(** The paper's worked examples and NP-hardness constructions as problem
    instances — the fixtures the test suite replays step by step. *)

(** {1 Figure 1} — two APs, five users; u1,u3 request s1, u2,u4,u5 request
    s2; budget 1. Link rates: a1 -> 3,6,4,4,4; a2 -> -,-,5,5,3. *)

(** Figure 1 with both session rates set to [session_rate_mbps] (3 for the
    MNU walk-through, 1 for BLA/MLA). *)
val fig1 : session_rate_mbps:float -> Problem.t

(** {1 Figure 4} — the simultaneous-decision oscillation example: four
    users of one 1 Mbps session between two APs. *)

val fig4 : Problem.t

(** Figure 4's initial association: u1,u2 -> a1; u3,u4 -> a2. *)
val fig4_initial : Association.t

(** {1 NP-hardness constructions} (Appendix A–C): the equivalent
    association-control instance of each source problem. *)

(** Appendix A: Subset Sum -> MNU (single AP whose budget is the scaled
    target; number [g_i] becomes a session with [g_i] unit-rate users). *)
val of_subset_sum : numbers:int list -> target:int -> Problem.t

(** Appendix B: Minimum Makespan -> BLA ([machines] APs at one unit rate,
    job [i] a single-user session with scaled load [p_i]). *)
val of_makespan : jobs:float list -> machines:int -> Problem.t

(** Appendix C: cardinality Set Cover -> MLA (AP [j] reaches exactly the
    users in subset [j]; one session of load [cost] over unit links). *)
val of_set_cover :
  n_users:int -> subsets:int list list -> cost:float -> Problem.t
