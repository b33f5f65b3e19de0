(** End-to-end simulation runs (the ns-2 substitute): scan → associate
    (under a policy) → stream → measure. *)

open Wlan_model

type policy =
  | Ssa_policy
      (** users join their strongest AP in index order, with admission
          control at the multicast budget *)
  | Distributed_policy of {
      objective : Mcast_core.Distributed.objective;
      mode : [ `Sequential | `Simultaneous ];
      max_passes : int;
    }  (** the query/response protocol of {!Proto}, in passes *)
  | Static_policy of Association.t
      (** install a precomputed association (centralized algorithms:
          computed offline, pushed to users) *)

type report = {
  problem : Problem.t;
  assoc : Association.t;
  solution : Mcast_core.Solution.t;
  analytic_loads : float array;  (** Definition 1 on the final association *)
  measured_loads : float array;  (** airtime counted by the MAC *)
  passes : int;
  converged : bool;
  oscillated : bool;
  events : int;  (** simulation events processed *)
  sim_time : float;
}

(** [run ~policy sc] simulates the whole pipeline on scenario [sc].

    [init] installs a starting association right after scanning (users
    whose old AP fell out of range rejoin through the protocol).

    [loss_rate] drops each protocol query/response exchange independently
    with that probability (deterministically from [seed]); the decision
    rule degrades gracefully to the neighbors that answered.

    [disabled_aps] never answer probes: no user can discover or associate
    with them (failed or administratively-down APs).

    @raise Invalid_argument if a [Static_policy] association places a
    user on an AP its scan did not find. *)
val run :
  ?seed:int ->
  ?streaming_window:float ->
  ?loss_rate:float ->
  ?disabled_aps:int list ->
  ?init:Association.t ->
  policy:policy ->
  Scenario.t ->
  report
