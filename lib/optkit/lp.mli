(** Two-phase primal simplex, on a full tableau, for linear programs
    over [x >= 0].

    Constraints are [a·x {<=,>=,=} b] rows; the objective may minimize or
    maximize. Phase 1 drives artificial variables out; phase 2 optimizes
    with Dantzig pivoting, degrading to Bland's rule after an iteration
    threshold so the algorithm terminates. Intended for the small/medium
    dense programs of the ILP branch-and-bound and the LP-rounding cover
    — not a sparse industrial solver. *)

type cmp = Le | Ge | Eq

type constr = { coeffs : float array; cmp : cmp; rhs : float }

type problem = {
  n_vars : int;
  maximize : bool;
  objective : float array;
  constraints : constr array;
}

type solution = { x : float array; objective_value : float }
type result = Optimal of solution | Infeasible | Unbounded

(** @raise Invalid_argument on arity mismatches between [n_vars],
    [objective] and constraint rows. *)
val solve : problem -> result
