(** The distributed association protocol at message level (§4.2/§5.2):
    an AP's answer to a load query, and user decisions computed from
    answers only (no global state) by the abstract engine's own rule,
    [Mcast_core.Distributed.choose]. The integration tests assert that
    the protocol's fixpoint equals the abstract [Mcast_core.Distributed]
    one. *)

open Wlan_model

(** {1 Query responses} *)

type response = {
  from_ap : int;
  tx : float array;
      (** the AP's transmission rate per session, [0.] where it sends
          none *)
  load : float;
  budget : float;  (** the AP's advertised multicast airtime limit *)
  load_without_you : float option;  (** only for the queried user's own AP *)
}

(** [answer tracker assoc ~budget ~ap ~user] is AP [ap]'s answer to
    [user]'s query, read off the tracker of association [assoc]: its
    transmission rates and load now, [budget], and — when [user] is
    among its members — its load without [user]. *)
val answer :
  Loads.Tracker.t ->
  Association.t ->
  budget:float ->
  ap:int ->
  user:int ->
  response

(** {1 User decisions} *)

(** The local rule ({!Mcast_core.Distributed.choose}) on inputs taken
    from answers only: the advertised load, budget and load without the
    user, and each neighbor's join load ({!Loads.join_load} on its
    advertised rates). [Some ap] to (re)associate, [None] to stay.
    Robust to partial information: neighbors whose response was lost
    are neither candidates nor part of the objective this round, and if
    the user's own AP did not answer it stays put. *)
val decide :
  objective:Mcast_core.Distributed.objective ->
  session_rates:float array ->
  session:int ->
  current:int option ->
  neighbors:Scanning.neighbor list ->
  responses:response list ->
  int option
