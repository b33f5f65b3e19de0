(** Dual association (§3.1 / WiMesh'05): independent unicast and multicast
    APs per user. The unicast side stays on the strongest-signal AP; the
    multicast side is association-controlled. Delivering unicast demand
    [d] Mbps over a link at rate [r] costs [d / r] airtime on top of the
    multicast load of Definition 1. *)

open Wlan_model

type t = {
  unicast : Association.t;
  multicast : Association.t;
}

(** Airtime each AP spends on its unicast users' demands.
    @raise Invalid_argument when [demands] has the wrong arity. *)
(* lint: allow export-reachability — test_extensions pins the unicast airtime on Figure 1 *)
val unicast_loads :
  Problem.t -> demands:float array -> Association.t -> float array

type combined = {
  total : float;  (** unicast + multicast airtime over every AP *)
  max : float;  (** the busiest AP's unicast + multicast airtime *)
}

(* lint: allow export-reachability — the airtime model the simulator cross-check compares against *)
val combined : Problem.t -> demands:float array -> t -> combined

(** One shared SSA AP for both roles — the baseline. *)
(* lint: allow export-reachability — test_extensions checks that both roles share the AP *)
val single_association : Problem.t -> t

(** SSA unicast + association-controlled multicast (default [`Mla]). *)
(* lint: allow export-reachability — the plan the simulator cross-check replays *)
val plan : ?objective:[ `Mla | `Bla | `Mnu ] -> Problem.t -> t

val uniform_demands : Problem.t -> mbps:float -> float array

type comparison = {
  single : combined;
  dual : combined;
  total_saving_pct : float;
}

(** Head-to-head single vs dual association at the given demands. *)
val compare_single_vs_dual :
  ?objective:[ `Mla | `Bla | `Mnu ] ->
  Problem.t ->
  demands:float array ->
  comparison
