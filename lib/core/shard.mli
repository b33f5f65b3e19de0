(** Geometric sharding: decompose an instance into interaction
    components (AP groups no load or decision ever crosses), solve each
    independently — optionally on [Harness.Pool] domains via [fanout] —
    and merge deterministically. Whenever the runs converge, the merged
    association is byte-identical to the unsharded sequential solve, at
    any job count. See DESIGN.md §4.10.

    Emits deterministic counters: [shard.plans], [shard.components],
    [shard.halo_reconciles] (one per shard merged back). *)

open Wlan_model

type shard = {
  id : int;  (** dense shard index, ascending by smallest AP index *)
  aps : int array;  (** global AP indices, ascending *)
  users : int array;  (** global user indices, ascending *)
}

type plan = {
  shards : shard list;  (** ascending [id]; every shard has >= 1 user *)
  idle_aps : int array;  (** APs no present user can hear, ascending *)
  uncovered : int array;  (** users with an empty candidate list, ascending *)
}

(** Interaction components from the instance's candidate lists: two APs
    share a shard iff connected through a chain of users hearing both.
    Exact on both representations; O(links · α). *)
val plan : Problem.t -> plan

(** Interaction components from pure geometry: APs within
    [interaction_radius] of each other are coupled, discovered through a
    {!Wlan_model.Sparse.Grid} whose 3×3 probe block is the halo zone —
    cross-cell pairs at exactly the radius or on cell edges are never
    missed. Pass 2 × the rate table's range: any user hearing two APs
    places them within that distance (triangle inequality), so this is
    a superset of {!plan}'s coupling and equally exact for solving.
    @raise Invalid_argument if some user's candidates span two shards
    (the radius was smaller than twice the effective range). *)
val plan_geometric :
  ap_pos:Point.t array -> interaction_radius:float -> Problem.t -> plan

(** The sub-instance a shard solves: shard APs/users reindexed densely
    (order-preserving), the full session table, sliced per-AP budgets.
    The links are a direct slice of the parent's CSR planes
    ({!Wlan_model.Sparse.restrict}; lost links dropped), validated like
    any built instance — the dense matrix is never allocated. *)
val extract : Problem.t -> shard -> Problem.t

type result = {
  assoc : Association.t;  (** merged global association *)
  rounds : int;  (** max shard rounds (shards run concurrently) *)
  moves : int;  (** total moves across shards *)
  converged : bool;  (** every shard converged *)
  n_shards : int;
}

(** [solve ~objective p] plans (unless [plan] is given), solves every
    shard with [Distributed.run ~scheduler:Sequential ?max_rounds], and
    merges in ascending shard order. [fanout] runs the per-shard thunks
    (default: in place; inject [Harness.Pool.run pool] for domain
    parallelism — results are consumed in submission order, so the
    output is identical at any job count). Uncovered users stay
    unserved. *)
val solve :
  ?plan:plan ->
  ?fanout:
    ((unit -> Distributed.outcome) list -> Distributed.outcome list) ->
  ?max_rounds:int ->
  objective:Distributed.objective ->
  Problem.t ->
  result

(** {1 Shard-aware centralized reductions}

    The covering reductions decompose over interaction components: a
    covering set only contains users of its AP's shard, so gains, spent
    budgets and replays never cross shards. The globally-coupled pieces
    — the H1/H2 repair's keep decision, and SCG's per-round variant of
    it — are re-made on weights summed across shards, reproducing the
    unsharded choice. The greedy's lower-index total tie order makes
    per-shard selection sequences exactly the unsharded run's
    projection, so the merged association is byte-identical to the
    unsharded solve: [solve_mnu p] ≡ [Mnu.run p] and [solve_bla p] ≡
    [Bla.run p]. *)

(** Sharded Centralized MNU (Fig. 3 per shard, global H1/H2 decision).
    [fanout] spreads the per-shard solve thunks over domains (each
    yields the shard's two candidate half-associations and their
    weights); submission-order consumption keeps the result identical
    at any job count. *)
val solve_mnu :
  ?plan:plan ->
  ?fanout:
    ((unit -> float * float * Association.t * Association.t) list ->
    (float * float * Association.t * Association.t) list) ->
  Problem.t ->
  Solution.t

(** Sharded Centralized BLA (Fig. 6): the global [B*] grid's probes run
    every shard's SCG rounds in lockstep through {!Optkit.Mcg.session}s,
    then feasible probes are ranked exactly as [Bla.run] (summed-cover
    bound, then realized max load). The largest guess probes first
    ({!Optkit.Scg.reuse_grid}); at a lower guess, a shard that emptied
    in that run and whose own budget witness and max set cost clear the
    guess by 1e-9 opens no session and replays its recorded kept-H1
    splits — only the binding shards re-solve, and the result is the
    from-scratch probe's (DESIGN.md §4.5). [fanout] evaluates the
    per-probe thunks (each yields feasibility, the probe's max summed
    group cost, and its merged association); they share the top run's
    record read-only. Counts [scg.grid_probes] and [scg.solves] per
    probe and [scg.shard_reuses] per replayed shard. [None] when no
    [B* <= 1] is feasible. *)
val solve_bla :
  ?plan:plan ->
  ?n_guesses:int ->
  ?fanout:
    ((unit -> bool * float * Association.t) list ->
    (bool * float * Association.t) list) ->
  Problem.t ->
  Solution.t option

val pp_plan : Format.formatter -> plan -> unit
