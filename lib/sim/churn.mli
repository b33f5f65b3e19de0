(** The churn engine: replay a declarative {!Wlan_model.Churn_script}
    against a live network ({!Mcast_core.Distributed.Online}), measuring
    per-step disruption.

    Each same-timestamp event group, in script order, is one atomic
    batch through {!Mcast_core.Distributed.Online.apply} followed by one
    settle to quiescence. Runs are deterministic: a pure function of
    (problem, script, objective, mode, init) — no randomness, ascending
    index order everywhere. *)

open Wlan_model
open Mcast_core

(** Disruption record of one quiescence: the initial convergence
    ([events = 0]) or one script step. *)
type step = {
  time : float;
  events : int;  (** script events applied in this step *)
  reassociated : int;  (** users whose serving AP changed while settling *)
  interrupted : int;
      (** sessions forcibly cut by this step's deltas: members detached
          by AP failures plus serving links lost to rate drift *)
  rounds : int;  (** decision rounds to quiescence *)
  moves : int;
  converged : bool;
  oscillated : bool;
  total_load : float;  (** network load at quiescence *)
  max_load : float;  (** peak AP load at quiescence *)
  opt_total_load : float;
      (** total load of a fresh sequential solve of the effective static
          instance; [nan] when the baseline is disabled *)
  opt_max_load : float;  (** peak load of the fresh solve; [nan] if off *)
}

(** Overshoot against the fresh static solve — negative when churn
    history beats the greedy static rule; [nan] if the baseline was
    disabled. *)
val total_overshoot : step -> float

val peak_overshoot : step -> float

type outcome = {
  steps : step list;  (** chronological; head is the initial convergence *)
  (* the quiescence oracle and the serve/churn differentials check the
     final state — lint: allow field-reachability *)
  assoc : Association.t;  (** final association (a copy) *)
  (* lint: allow field-reachability — see [assoc] *)
  loads : float array;
      (** final per-AP loads as the incremental tracker cached them — the
          quiescence oracle pins these bit-for-bit to a fresh recompute *)
  (* lint: allow field-reachability — see [assoc] *)
  effective : Problem.t;  (** final effective static instance *)
  trace : Trace.t;
  total_rounds : int;
  total_moves : int;
  total_reassociated : int;
  total_interrupted : int;
  oscillated : bool;  (** any settle oscillated *)
}

(** [run ~objective ~script p] converges the network once (the head
    {!step}), then replays the script step by step.

    - [mode] (default [`Sequential]) is the settle discipline;
      [`Simultaneous] reproduces Fig. 4-style oscillation under
      simultaneous moves.
    - [tiers] is the rate ladder drift moves along (sorted descending
      here; default
      [Problem.distinct_rates p] — the ladder the instance actually
      uses, the same derivation the serve daemon's config defaults to).
      Pass the scenario's full {!Wlan_model.Rate_model.tier_rates}
      ladder when rungs unused by the instance must stay reachable.
    - [baseline] (default true) runs a fresh sequential static solve of
      the effective instance after every step for the overshoot
      metrics; disable to make long replays cheap.

    @raise Invalid_argument if the script references out-of-range
    users or APs, or a tier is not finite and positive. *)
val run :
  ?init:Association.t ->
  ?mode:[ `Sequential | `Simultaneous ] ->
  ?max_rounds:int ->
  ?baseline:bool ->
  ?tiers:float list ->
  objective:Distributed.objective ->
  script:Churn_script.t ->
  Problem.t ->
  outcome
