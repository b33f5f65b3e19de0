(** Active scanning: every user broadcasts a probe request; each AP in
    range answers after a processing delay plus deterministic jitter.
    When the last response lands the user knows its neighbor APs, signal
    strengths and link rates. *)

(** What a user learns about one neighbor AP. *)
type neighbor = { ap : int; link_rate : float; signal : float }

type result = neighbor list array  (** per user *)

(** Schedule the scan of every user's candidate APs in the problem
    ({!Wlan_model.Problem.iter_candidates}, ascending AP order): probes
    go out at time 0, and each AP answers after 2 ms plus up to 1 ms of
    jitter plus the propagation delay. [on_complete] fires (as a
    simulation event) once every expected probe response has been
    received. *)
val start :
  Engine.t ->
  Wlan_model.Problem.t ->
  Radio.t ->
  on_complete:(result -> unit) ->
  unit

(** Sort each user's neighbors strongest-signal-first (ties by AP
    index). *)
val sort_by_signal : result -> result
