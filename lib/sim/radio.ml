(** Radio propagation for the simulator. Which APs a user hears, at what
    rate and signal, is the compiled problem's ({!Wlan_model.Problem},
    built by the one {!Wlan_model.Rate_model.link} predicate); what the
    positions still give is each message's propagation delay. *)

open Wlan_model

type t = { ap_pos : Point.t array; user_pos : Point.t array }

let of_scenario (sc : Scenario.t) =
  { ap_pos = sc.Scenario.ap_pos; user_pos = sc.Scenario.user_pos }

(** Propagation delay in seconds (speed of light), for message latencies. *)
let propagation_delay t ~ap ~user =
  Point.dist t.ap_pos.(ap) t.user_pos.(user) /. 3.0e8
