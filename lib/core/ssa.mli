(** Signal-Strength-based Association (SSA) — the 802.11 default and the
    paper's baseline: every user joins the AP with the strongest signal.
    Users are admitted in index order; a user whose strongest AP cannot
    take it within the multicast budget stays unserved (no fallback to a
    weaker AP — 802.11 association considers signal strength only). *)

val run : Wlan_model.Problem.t -> Solution.t
