(** Centralized MNU — Maximize the Number of Users (§4.1): Maximum
    Coverage with Group Budgets via Theorem 1; budgeted greedy with the
    H1/H2 split, an 8-approximation (Theorem 2). The returned association
    always respects every AP's budget. *)

val name : string

val run : Wlan_model.Problem.t -> Solution.t

(** Revenue-weighted MNU: maximize total user {e value} (the §3.2
    pay-per-view model with heterogeneous prices). Returns the solution
    and the realized revenue. All-1 weights coincide with {!run}.
    @raise Invalid_argument on negative weights or wrong arity. *)
val run_weighted :
  weights:float array -> Wlan_model.Problem.t -> Solution.t * float

(** Extension (not in the paper's algorithm): after the cover, admit
    remaining users that can decode an already-scheduled transmission for
    free. Never increases any AP's load. *)
val run_with_free_riders : Wlan_model.Problem.t -> Solution.t
