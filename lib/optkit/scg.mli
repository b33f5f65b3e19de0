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
    [default_grid = grid_points (grid_lo ...)]. *)
val grid_points : ?n_guesses:int -> float -> float list

(** Feasible runs over [grid], smallest realized max group cost first.

    [fanout] evaluates the per-guess thunks (default: sequentially, in
    list order). An evaluator that preserves submission order — e.g.
    [Harness.Pool.run pool] — parallelizes the grid with an identical
    result; the pool is injected because this layer sits below the
    harness.

    [strategy]: [`Exhaustive] (default) evaluates every grid point;
    [`Bisect] binary-searches the ascending grid for the smallest
    feasible [B*] (feasibility is monotone in the budget), evaluating
    O(log |grid|) points and returning only those runs ([fanout]
    unused — probes are sequentially dependent).

    [arena] lets successive probes reuse scratch planes — only pass one
    with the default sequential [fanout] (or [`Bisect]): arenas must not
    cross pool domains. *)
val solve_grid :
  ?mode:[ `Soft | `Hard ] ->
  ?arena:Arena.t ->
  ?strategy:[ `Exhaustive | `Bisect ] ->
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
  ?strategy:[ `Exhaustive | `Bisect ] ->
  ?fanout:((unit -> result) list -> result list) ->
  ?n_guesses:int ->
  'a Cover_instance.t ->
  ?universe:Bitset.t ->
  unit ->
  result option
