(** 802.11 transmission-rate adaptation tables (the paper's Table 1).

    A link of length [d] runs at the highest rate whose distance threshold
    is at least [d]; beyond the largest threshold the nodes cannot
    communicate. *)

type entry = { rate_mbps : float; threshold_m : float }

type t

(** Entries must have strictly decreasing rates and strictly increasing
    thresholds. @raise Invalid_argument otherwise. *)
val make : entry list -> t

val invariant : t -> bool

(** The paper's Table 1: 802.11a, 6–54 Mbps over 200–35 m. *)
val ieee80211a : t

(** IEEE 802.11b: 1–11 Mbps, longer reach, only 3 non-overlapping
    channels in practice. *)
val ieee80211b : t

(** Alias for {!ieee80211a}. *)
val default : t

val entries : t -> entry list

(** All supported rates, highest first. *)
val rates : t -> float list

(** Radio range: the largest distance threshold. *)
val range : t -> float

(** [rate_at_distance t d] is the maximum link rate at distance [d], or
    [None] beyond the radio range. *)
val rate_at_distance : t -> float -> float option

(** Scale every threshold by a factor > 0 — the adaptive-power-control
    extension (§8). @raise Invalid_argument on non-positive factors. *)
val scale_thresholds : float -> t -> t
