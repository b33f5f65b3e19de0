(** The paper's worked examples as problem instances — the fixtures the
    test suite replays step by step. *)

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
