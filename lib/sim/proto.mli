(** The distributed association protocol at message level (§4.2/§5.2):
    AP agents answering load queries, and user decisions computed from
    responses only (no global state) by the abstract engine's own rule,
    [Mcast_core.Distributed.choose]. The integration tests assert that
    the protocol's fixpoint equals the abstract [Mcast_core.Distributed]
    one. *)

(** {1 AP agents} *)

type ap_state = {
  ap_id : int;
  mutable members : (int * int * float) list;
      (** (user, session, link rate) of associated users *)
}

val ap_create : int -> ap_state
val ap_join : ap_state -> user:int -> session:int -> link_rate:float -> unit
val ap_leave : ap_state -> user:int -> unit

(** Transmission rate per served session: min member link rate. *)
val ap_tx_table : ap_state -> (int, float) Hashtbl.t

val ap_load : ap_state -> session_rates:float array -> float
val ap_load_without :
  ap_state -> session_rates:float array -> user:int -> float

(** {1 Query responses} *)

type response = {
  from_ap : int;
  sessions : (int * float) list;  (** (session, tx rate) currently served *)
  load : float;
  budget : float;  (** the AP's advertised multicast airtime limit *)
  load_without_you : float option;  (** only for the queried user's own AP *)
}

val ap_answer :
  ap_state -> session_rates:float array -> budget:float -> user:int -> response

(** {1 User decisions} *)

(** What a user learned about one neighbor AP during scanning. *)
type neighbor_info = { ap : int; link_rate : float; signal : float }

(** The local rule ({!Mcast_core.Distributed.choose}) on inputs taken
    from responses only: the advertised load, budget and load without the
    user, and each neighbor's join load re-summed from its advertised
    sessions. [Some ap] to (re)associate, [None] to stay. Robust to
    partial information: neighbors whose response was lost are neither
    candidates nor part of the objective this round, and if the user's
    own AP did not answer it stays put. *)
val decide :
  objective:Mcast_core.Distributed.objective ->
  session_rates:float array ->
  session:int ->
  current:int option ->
  neighbors:neighbor_info list ->
  responses:response list ->
  int option
