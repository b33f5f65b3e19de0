(** Active scanning: every user broadcasts a probe request; each AP in
    range answers after a processing delay plus deterministic jitter.
    When the last response lands the user knows its neighbor APs, signal
    strengths and link rates. *)

type neighbor = { ap : int; link_rate_mbps : float; signal : float }

type result = neighbor list array  (** per user *)

(** Schedule the scan: probes go out at time 0, and each AP answers
    after 2 ms plus up to 1 ms of jitter. [on_complete] fires (as a
    simulation event) once every expected probe response has been
    received. *)
val start : Engine.t -> Radio.t -> on_complete:(result -> unit) -> unit

(** Sort each user's neighbors strongest-signal-first (ties by AP
    index). *)
val sort_by_signal : result -> result
