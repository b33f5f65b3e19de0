(** Set Cover with Group Budgets (SCG) — the engine of the paper's
    Centralized BLA (Fig. 6): guess a bound [B*], give every group that
    budget and iterate the MCG greedy [log_{8/7} n + 1] times until every
    element is covered (Theorem 4's [(log_{8/7} n + 1)]-approximation of
    the minimum maximum group cost). *)

(** One [B*] probe over an array of shards. *)
type result = {
  (* the grid differentials match each sorted probe to its reference
     run by its guess — lint: allow field-reachability *)
  bstar : float;
  feasible : bool;  (** every shard's universe covered *)
  selections : int array array;
      (** per shard, the selected set ids in selection order: replayed
          in order against the shard's universe, each covers what it
          newly covered in its round *)
  group_cost : float array array;  (** per shard, summed over rounds *)
}

(** The paper's iteration bound: [ceil (log_{8/7} n)] + 1. *)
(* lint: allow export-reachability — Scg_ref's reference grid runs the same round budget *)
val max_rounds_for : int -> int

(** [add_round_cost acc round] adds one round's per-group cost
    ({!Mcg.kept_group_cost}) into the running sum [acc]. Every run's
    cost is summed this way, round by round — never selection by
    selection, which rounds differently in the last ulp and can reorder
    near-tied probes. *)
(* lint: allow export-reachability — Scg_ref's reference grid sums round costs the same way *)
val add_round_cost : float array -> float array -> unit

(** The grid's clamped lower end, [max_e min_{S∋e} c(S)] over [universe]
    clamped to [[1e-6, 1]]. Decomposes over interaction components: the
    global value is the max of per-shard values (elements and the sets
    containing them never cross shards). *)
val grid_lo : universe:Bitset.t -> 'a Cover_instance.t -> float

(** [n_guesses] (default 12) geometric guesses between a lower end and
    1. One guess is [[1.]].
    @raise Invalid_argument when [n_guesses < 1]. *)
val grid_points : ?n_guesses:int -> float -> float list

(** Exact B* probe reuse. [probe top b] prepares guess [b]; applied to
    [()] it runs and returns its result with a record [w] of the run,
    whose [bound w] is the run's reuse bound over all of its sessions:
    its {!Mcg.session_witness} joined with every set cost. A run replays
    exactly, bit for bit, at any uniform budget [b] with
    [bound <= b - 1e-9]. The largest guess [B_top] runs first, on its
    own, as [probe None B_top ()]; every guess [b] at which that run
    replays, and every copy of [B_top], yields [reuse top b]. The other
    guesses are prepared in grid order as [probe (Some w) b] — the top
    record is shared read-only, so a probe may take parts of the top run
    — and their runs go through [fanout] (which must return one result
    per thunk, in submission order). Results come back in grid order;
    [scg.grid_probes] counts the guesses probed and [scg.grid_reuses]
    the guesses reused.
    @raise Invalid_argument when [fanout] returns too few results. *)
(* lint: allow export-reachability — its unit test pins the reuse order apart from solve_grid *)
val reuse_grid :
  fanout:((unit -> 'r) list -> 'r list) ->
  bound:('w -> float) ->
  probe:('w option -> float -> unit -> 'r * 'w) ->
  reuse:('r -> float -> 'r) ->
  float list ->
  'r list

(** [solve_grid shards ~grid] — the B* grid driver. [shards] are
    (instance, universe) pairs whose sets and elements are disjoint —
    interaction components; one shard is the unsharded solve. Each
    guess of [grid] is one probe that runs every shard's SCG rounds in
    lockstep through {!Mcg.session}s, keeping the H1 or H2 half on the
    weights summed over shards, for at most [max_rounds_for] (total
    universe size) rounds; it is feasible when every universe empties.
    Each shard's selections are the projection of one run over the
    shards' disjoint union. A universe member that no set covers makes
    every probe infeasible.

    Guesses go through {!reuse_grid} on the bound over all shards; a
    reused guess is [{ top with bstar = b }], sharing the top run's
    selections and cost arrays (results are never mutated). At the other
    guesses, a shard that emptied at the top and whose own bound clears
    the guess by 1e-9 replays its top kept-H1 splits without a session
    ([scg.shard_reuses] counts these (probe, shard) pairs); the binding
    shards re-solve, each resuming its first round from the top's
    ({!Mcg.resume}). A shard's first-round record lives only as long as
    some prepared probe still resumes it. Every result is the
    from-scratch probe's (DESIGN.md §4.5).

    [fanout] evaluates the other guesses (default: sequentially, in list
    order). An evaluator that preserves submission order — e.g.
    [Harness.Pool.run pool] — parallelizes them with an identical
    result; the pool is injected because this layer sits below the
    harness. Each probe owns one {!Arena.t}, so probes never share
    scratch across domains. Counts [scg.solves] per probe and
    [scg.rounds] per lockstep round.

    Returns the feasible probes, smallest summed group cost over every
    shard first (stable on ties, so in grid order). *)
val solve_grid :
  ?mode:[ `Soft | `Hard ] ->
  ?fanout:((unit -> result) list -> result list) ->
  ('a Cover_instance.t * Bitset.t) array ->
  grid:float list ->
  result list
