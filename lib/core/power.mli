(** Adaptive per-AP transmit power control (§8 future work): coordinate
    descent over discrete power levels, minimizing MLA total load plus
    [mu ×] co-channel interference, jointly with association control and
    never losing a user coverable at full power. *)

open Wlan_model

type plan = {
  levels : int array;  (** AP index -> index into [factors] *)
  factors : float array;
  problem : Problem.t;
  solution : Solution.t;  (** centralized MLA at the chosen powers *)
  objective : float;
  full_power_objective : float;
}

(** Compile a scenario with per-AP power scalings. A level that leaves a
    user out of every AP's range yields an instance with that user
    uncovered ({!optimize} rejects such levels).
    @raise Invalid_argument on arity mismatch. *)
(* lint: allow export-reachability — the compile optimize searches over, checked against the plain one *)
val problem_with_powers :
  Scenario.t -> factors:float array -> levels:int array -> Problem.t

(** @raise Invalid_argument unless [factors.(0) = 1.0]. *)
val optimize :
  ?factors:float array ->
  ?mu:float ->
  ?max_passes:int ->
  channels:Channels.assignment ->
  Scenario.t ->
  plan

(** APs that ended below full power. *)
val reduced_count : plan -> int
