(** Radio propagation for the simulator: the one quantity the compiled
    problem does not carry — how long a frame takes to cross the air.
    Links, rates and signals come from {!Wlan_model.Problem}. *)

open Wlan_model

type t

val of_scenario : Scenario.t -> t

(** Speed-of-light propagation delay in seconds. *)
val propagation_delay : t -> ap:int -> user:int -> float
