(** Simulation event traces: a bounded chronological log of protocol and
    MAC events for assertions and debugging. *)

type kind =
  | Probe_request of { user : int }
  | Probe_response of { ap : int; user : int }
  | Query of { user : int; ap : int }
  | Query_response of { ap : int; user : int }
  | Associate of { user : int; ap : int }
  | Disassociate of { user : int; ap : int }
  | Frame of { ap : int; session : int; airtime : float }
  | Decision of { user : int; moved : bool }
  | Mark of string
  | Arrive of { user : int }  (** churn: a user enters the network *)
  | Depart of { user : int; ap : int }
      (** churn: a user leaves; [ap] is its serving AP, or
          [Wlan_model.Association.none] if it was unserved *)
  | Ap_down of { ap : int; detached : int }
      (** churn: AP failure, [detached] members forcibly unserved *)
  | Ap_up of { ap : int }  (** churn: AP recovery *)
  | Rate_drift of { user : int; steps : int }
      (** churn: every link of [user] shifted [steps] rate tiers *)
  | Settle of {
      rounds : int;
      moves : int;
      reassociated : int;
      oscillated : bool;
    }  (** churn: one re-convergence to quiescence *)

type record = { time : float; kind : kind }

type t

(** [create ~limit ()] — records beyond [limit] (default 200k) are
    dropped. *)
val create : ?limit:int -> unit -> t

val log : t -> time:float -> kind -> unit

(** Records in chronological order. *)
(* lint: allow export-reachability — tests read a simulation's trace back *)
val records : t -> record list

(** The whole log as text, one record per line, chronological — the byte
    stream the golden-trace regression tests digest. *)
val to_string : t -> string
