(** Radio propagation for the simulator: positions plus the scenario's
    link-rate model give link rates, ranges and signal ordering — the
    same {!Wlan_model.Rate_model.link} predicate the compile uses. *)

open Wlan_model

type t = {
  rate_table : Rate_table.t;
  model : Rate_model.t;
  ap_pos : Point.t array;
  user_pos : Point.t array;
}

val of_scenario : Scenario.t -> t
val n_users : t -> int

(** Link rate after rate adaptation; [None] out of range. *)
val link_rate : t -> ap:int -> user:int -> float option

(** Signal metric (higher = stronger): the model's — negative distance
    for [Table] models, received dBm for [Path_loss]. *)
val signal : t -> ap:int -> user:int -> float

(** APs within radio range of a user. *)
val neighbor_aps : t -> user:int -> int list

(** Speed-of-light propagation delay in seconds. *)
val propagation_delay : t -> ap:int -> user:int -> float

(** Airtime of one frame of [bits] at [rate_mbps]. *)
val frame_airtime : bits:float -> rate_mbps:float -> float
