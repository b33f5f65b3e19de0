(** Minimum Makespan Scheduling on identical machines — source problem of
    the paper's BLA NP-hardness proof (Appendix B); the tests use its
    exact solver as the oracle for the BLA reduction. *)

type schedule = {
  assignment : int array;  (** job index -> machine index *)
  makespan : float;
}

(** Longest-Processing-Time-first: the classic 4/3-approximation.
    @raise Invalid_argument when [machines <= 0]. *)
val lpt : machines:int -> jobs:float list -> schedule

(** Exact minimum makespan by branch and bound with machine symmetry
    breaking. Exponential; for small instances. *)
val exact : machines:int -> jobs:float list -> schedule
