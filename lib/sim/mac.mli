(** MAC-layer airtime accounting for the streaming phase.

    Each served (AP, session) pair transmits periodic 1500-byte (12,000-
    bit) frames; a session at [r] Mbps sends a frame every [12000 / r]
    microseconds, each occupying [12000 / tx_rate] microseconds of
    airtime. Per-AP busy time over the measurement window, divided by the
    window, is the {e measured} multicast load — which must agree with
    Definition 1 (asserted by the integration tests). *)

(** One scheduled transmission. *)
type stream = {
  ap : int;
  session_rate_mbps : float;
  tx_rate_mbps : float;
}

(** The multicast streams a problem + association implies: one per served
    (AP, session) at its min-receiver rate. *)
val plan_of_association :
  Wlan_model.Problem.t -> Wlan_model.Association.t -> stream list

type accounting = {
  busy : float array;  (** per-AP seconds of airtime used *)
  frames : int array;  (** per-AP frames transmitted *)
  window : float * float;
}

(** Schedule every stream's frames over [window]; the returned record
    fills in as the engine runs. @raise Invalid_argument on empty
    windows. *)
val start :
  Engine.t -> n_aps:int -> window:float * float -> stream list -> accounting

(** Measured per-AP load once the engine has drained the window. *)
val measured_loads : accounting -> float array
