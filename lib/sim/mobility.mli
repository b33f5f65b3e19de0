(** Quasi-static user mobility (§3.1's campus-measurement regime): long
    static epochs separated by instants at which a fraction of users
    relocate. Each epoch re-runs the {!Runner} pipeline warm-started with
    the previous association, exposing the re-convergence cost of a
    mobility burst. *)

open Wlan_model

type epoch_report = {
  epoch : int;
  relocated : int;  (** users moved at the start of this epoch *)
  report : Runner.report;
  rejoin_moves : int;
      (** users whose association changed vs the previous epoch *)
}

(** Session zapping: [fraction] of the users switch to a uniformly random
    session (channel change). *)
(* lint: allow export-reachability — test_extensions pins the zapped count and untouched positions *)
val zap :
  rng:Random.State.t -> fraction:float -> Scenario.t -> Scenario.t * int

(** [run ~epochs ~move_fraction ~policy sc]: one report per epoch, in
    order; no relocation before the first epoch. *)
val run :
  ?seed:int ->
  ?move_fraction:float ->
  ?session_churn:float ->
  ?ap_failure_fraction:float ->
  ?epochs:int ->
  ?loss_rate:float ->
  policy:Runner.policy ->
  Scenario.t ->
  epoch_report list
