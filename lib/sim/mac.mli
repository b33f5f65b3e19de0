(** MAC-layer airtime accounting for the streaming phase.

    Each served (AP, session) pair transmits periodic fixed-size frames; a
    session at [r] Mbps with [frame_bits]-bit frames sends a frame every
    [frame_bits / r] seconds, each occupying [frame_bits / tx_rate]
    seconds of airtime. Per-AP busy time over the measurement window,
    divided by the window, is the {e measured} multicast load — which must
    agree with Definition 1 (asserted by the integration tests). *)

type config = {
  frame_bits : float;  (** default 12000 bits = 1500-byte frames *)
  multi_rate : bool;  (** false: always transmit at the basic rate *)
}

val default_config : config

(** One scheduled transmission; unicast background traffic uses the same
    mechanics tagged [session = unicast_tag]. *)
type stream = {
  ap : int;
  session : int;
  session_rate_mbps : float;
  tx_rate_mbps : float;
}

(** Unicast background streams for dual-association studies: user [u]
    (entry of [assoc], [-1] = none) with demand [demands.(u)] pulls frames
    from its AP at [link_rate ap u]. *)
val unicast_plan :
  assoc:int array ->
  demands:float array ->
  link_rate:(int -> int -> float) ->
  stream list

(** The multicast streams a problem + association implies: one per served
    (AP, session) at its min-receiver rate ([basic_rate] when the config
    disables multi-rate multicast). *)
val plan_of_association :
  Wlan_model.Problem.t ->
  Wlan_model.Association.t ->
  basic_rate:float ->
  config:config ->
  stream list

type accounting = {
  busy : float array;  (** per-AP seconds of airtime used *)
  frames : int array;  (** per-AP frames transmitted *)
  window : float * float;
}

(** Schedule every stream's frames over [window]; the returned record
    fills in as the engine runs. @raise Invalid_argument on empty
    windows. *)
val start :
  Engine.t ->
  ?config:config ->
  ?trace:Trace.t ->
  n_aps:int ->
  window:float * float ->
  stream list ->
  accounting

(** Measured per-AP load once the engine has drained the window. *)
val measured_loads : accounting -> float array
