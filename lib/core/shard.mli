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
  aps : int array;  (** global AP indices, ascending *)
  users : int array;  (** global user indices, ascending *)
}

type plan = {
  shards : shard list;
      (** ascending by smallest AP index; every shard has >= 1 user *)
  uncovered : int array;  (** users with an empty candidate list, ascending *)
}

(** Interaction components from the instance's candidate lists: two APs
    share a shard iff connected through a chain of users hearing both.
    Exact on both representations; O(links · α). *)
(* lint: allow export-reachability — tests inspect the components the drivers solve *)
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
    any built instance — the dense matrix is never allocated. A shard
    holding every AP and user of an instance with no lost link returns
    the instance itself, physically (no [sparse.builds]). *)
val extract : Problem.t -> shard -> Problem.t

type result = {
  assoc : Association.t;  (** merged global association *)
  (* the city golden pins the merged rounds and moves, and the
     unsharded differential the moves — lint: allow field-reachability *)
  rounds : int;  (** max shard rounds (shards run concurrently) *)
  (* lint: allow field-reachability — see [rounds] *)
  moves : int;  (** total moves across shards *)
  converged : bool;  (** every shard converged *)
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
    projection, so the merged association is byte-identical to one
    solve over the whole instance. These are the only centralized MNU
    and BLA drivers: [Mnu.run] and [Bla.run] are [solve_mnu] and
    [solve_bla] on {!plan}, relabelled. *)

(** Sharded Centralized MNU (Fig. 3 per shard, global H1/H2 decision).
    [fanout] spreads the per-shard solve thunks over domains (each
    yields the shard's split and its two candidate half-associations);
    submission-order consumption keeps the result identical at any job
    count. *)
val solve_mnu :
  ?plan:plan ->
  ?fanout:
    ((unit -> Optkit.Mcg.split * Association.t * Association.t) list ->
    (Optkit.Mcg.split * Association.t * Association.t) list) ->
  Problem.t ->
  Solution.t

(** Sharded Centralized BLA (Fig. 6), the one BLA driver ([Bla.run] is
    this on {!plan}). The global [B*] grid goes to
    {!Optkit.Scg.solve_grid} over the shards' cover instances: every
    probe runs the shards' SCG rounds in lockstep, the largest guess
    probes first, and lower guesses reuse it whole or per shard
    (DESIGN.md §4.5). Each feasible probe's per-shard selections merge
    into one association; among them, in summed-cover-bound order, the
    smallest realized max AP load wins. [mode] is the MCG inner loop
    (default [`Soft], see [Bla]); [fanout] evaluates the per-probe
    thunks in submission order, so the result is identical at any job
    count. [None] when no [B* <= 1] is feasible.
    @raise Invalid_argument when [n_guesses < 1]. *)
val solve_bla :
  ?plan:plan ->
  ?mode:[ `Soft | `Hard ] ->
  ?n_guesses:int ->
  ?fanout:
    ((unit -> Optkit.Scg.result) list -> Optkit.Scg.result list) ->
  Problem.t ->
  Solution.t option
