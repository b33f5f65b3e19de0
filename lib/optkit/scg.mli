(** Set Cover with Group Budgets (SCG) — the engine of the paper's
    Centralized BLA (Fig. 6): guess a bound [B*], give every group that
    budget and iterate the MCG greedy [log_{8/7} n + 1] times until every
    element is covered (Theorem 4's [(log_{8/7} n + 1)]-approximation of
    the minimum maximum group cost). *)

type result = {
  bstar : float;
  rounds : Mcg.result list;  (** one MCG result per iteration *)
  feasible : bool;  (** all universe elements covered *)
  group_cost : float array;  (** summed over rounds *)
}

(** The paper's iteration bound: [ceil (log_{8/7} n)] + 1. *)
val max_rounds_for : int -> int

(** All selections, flattened in selection order; the [newly] attributions
    of different rounds are disjoint by construction. *)
val selections : result -> Mcg.selection list

val max_group_cost : result -> float

(** One run at a fixed [B*]. An explicitly-passed [universe] is taken
    literally (uncoverable members make the run infeasible); the default
    universe is everything coverable. The rounds run through one
    {!Mcg.session}, so set-score bounds persist across the shrinking
    remaining set — no per-round seed pass. [arena] backs each round's
    heap and candidate planes; never share one across pool domains. *)
val solve_for :
  ?mode:[ `Soft | `Hard ] ->
  ?arena:Arena.t ->
  'a Cover_instance.t ->
  bstar:float ->
  ?universe:Bitset.t ->
  unit ->
  result

(** Geometric grid of [B*] guesses between the smallest feasible bound
    ([max_e min_{S∋e} c(S)] over the universe) and 1. *)
val default_grid :
  ?n_guesses:int -> ?universe:Bitset.t -> 'a Cover_instance.t -> float list

(** The grid's clamped lower end, [max_e min_{S∋e} c(S)] over the
    universe clamped to [[1e-6, 1]]. Decomposes over interaction
    components: the global value is the max of per-shard values
    (elements and the sets containing them never cross shards). *)
val grid_lo : ?universe:Bitset.t -> 'a Cover_instance.t -> float

(** The geometric guesses for a given lower end;
    [default_grid = grid_points (grid_lo ...)]. One guess is [[1.]].
    @raise Invalid_argument when [n_guesses < 1]. *)
val grid_points : ?n_guesses:int -> float -> float list

(** [replays ~bound b]: a run whose reuse bound — its
    {!Mcg.session_witness} joined with every set cost — is [bound]
    replays exactly, bit for bit, at any uniform budget [b] with
    [bound <= b - 1e-9]. The one reuse rule of both grid drivers. *)
val replays : bound:float -> float -> bool

(** Exact B* probe reuse, shared by both grid drivers. [probe top b]
    runs guess [b] and returns its result with a record [w] of the run,
    whose [bound w] is the run's reuse bound over all of the driver's
    sessions (see {!replays}). The largest guess [B_top] runs first, on
    its own, as [probe None B_top]; every guess [b] at which that run
    {!replays}, and every copy of [B_top], yields [reuse top b]. The
    other guesses go through [fanout] (which must return one result per
    thunk, in submission order) as [probe (Some w) b]: the top record is
    shared read-only, so a driver may reuse parts of the top run exactly
    (the sharded driver's per-shard reuse). Results come back in grid
    order; [scg.grid_probes] counts the guesses probed and
    [scg.grid_reuses] the guesses reused.
    @raise Invalid_argument when [fanout] returns too few results. *)
val reuse_grid :
  fanout:((unit -> 'r) list -> 'r list) ->
  bound:('w -> float) ->
  probe:('w option -> float -> 'r * 'w) ->
  reuse:('r -> float -> 'r) ->
  float list ->
  'r list

(** Feasible runs over [grid], smallest realized max group cost first;
    every run is exactly {!solve_for} at its guess.

    Guesses go through {!reuse_grid} with the instance's max set cost; a
    reused guess is [{ top with bstar = b }], sharing the top run's
    rounds and cost arrays (results are never mutated). [fanout]
    evaluates the other guesses (default: sequentially, in list order).
    An evaluator that preserves submission order — e.g.
    [Harness.Pool.run pool] — parallelizes them with an identical
    result; the pool is injected because this layer sits below the
    harness. [scg.grid_probes] counts the guesses solved.

    [arena] lets successive probes reuse scratch planes — only pass one
    with the default sequential [fanout]: arenas must not cross pool
    domains. *)
val solve_grid :
  ?mode:[ `Soft | `Hard ] ->
  ?arena:Arena.t ->
  ?fanout:((unit -> result) list -> result list) ->
  'a Cover_instance.t ->
  ?universe:Bitset.t ->
  grid:float list ->
  unit ->
  result list

(** Best feasible run over the default grid, if any. *)
val solve :
  ?mode:[ `Soft | `Hard ] ->
  ?arena:Arena.t ->
  ?fanout:((unit -> result) list -> result list) ->
  ?n_guesses:int ->
  'a Cover_instance.t ->
  ?universe:Bitset.t ->
  unit ->
  result option
