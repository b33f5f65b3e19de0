(** Radio propagation for the simulator: positions + the scenario's
    link-rate model give link rates, ranges and received-signal
    ordering. Thin, deterministic, and shared by scanning, the MAC and
    the protocol. Every query goes through the one {!Rate_model.link}
    predicate, so the simulator sees exactly the links the compiled
    problem has — for the default [Table] model this is bit-identical
    to the historical distance-threshold path. *)

open Wlan_model

type t = {
  model : Rate_model.t;
  ap_pos : Point.t array;
  user_pos : Point.t array;
}

let of_scenario (sc : Scenario.t) =
  {
    model = sc.Scenario.model;
    ap_pos = sc.Scenario.ap_pos;
    user_pos = sc.Scenario.user_pos;
  }

let n_aps t = Array.length t.ap_pos
let n_users t = Array.length t.user_pos

let distance t ~ap ~user = Point.dist t.ap_pos.(ap) t.user_pos.(user)

let link t ~ap ~user =
  Rate_model.link t.model ~ap ~user ~dist:(distance t ~ap ~user)

(** Link rate after rate adaptation; [None] out of range. *)
let link_rate t ~ap ~user = Option.map fst (link t ~ap ~user)

let in_range t ~ap ~user = Option.is_some (link t ~ap ~user)

(** Signal metric (higher = stronger): the model's — negative distance
    for [Table] models, received dBm for [Path_loss] — matching how
    geometric scenarios compile to problems. *)
let signal t ~ap ~user =
  match link t ~ap ~user with
  | Some (_, s) -> s
  | None -> Rate_model.dead_signal t.model ~dist:(distance t ~ap ~user)

(** APs within radio range of [user]. *)
let neighbor_aps t ~user =
  let acc = ref [] in
  for a = n_aps t - 1 downto 0 do
    if in_range t ~ap:a ~user then acc := a :: !acc
  done;
  !acc

(** Propagation delay in seconds (speed of light), for message latencies. *)
let propagation_delay t ~ap ~user = distance t ~ap ~user /. 3.0e8

(** Airtime of one frame of [bits] at [rate_mbps]. *)
let frame_airtime ~bits ~rate_mbps = bits /. (rate_mbps *. 1e6)
