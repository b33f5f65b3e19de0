(** 0/1 integer programming by LP-based branch and bound (on {!Lp}).

    Variables flagged binary are branched to 0/1 via equality rows;
    continuous variables (e.g. a makespan variable) are never branched.
    Upper bounds [x <= 1] on binaries are added lazily, only when the
    relaxation actually exceeds 1, keeping tableaus small. Used for the
    paper's Fig. 12 optimal baselines. *)

type t = {
  base : Lp.problem;  (** the relaxation, without integrality *)
  binary : bool array;  (** per variable: branch to 0/1? *)
}

type solution = {
  x : float array;
  objective_value : float;
  proved_optimal : bool;  (** false when [node_limit] was exhausted *)
}

(** [solve t] finds an optimal 0/1 assignment.

    [initial_bound] is a known objective value (e.g. from a greedy
    approximation): nodes that cannot {e strictly} beat it are pruned, and
    if nothing better exists the result is [None] — the caller keeps its
    greedy solution, now proved optimal (up to the node limit).

    [integral_objective] enables rounding-based pruning when every feasible
    objective value is an integer.

    @raise Invalid_argument when [binary] has the wrong arity. *)
val solve :
  ?node_limit:int ->
  ?initial_bound:float ->
  ?integral_objective:bool ->
  t ->
  solution option
