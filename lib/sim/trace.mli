(** The churn engine's event log: a bounded chronological record of the
    deltas {!Churn.run} applies and the settles that follow them. *)

type kind =
  | Arrive of { user : int }  (** a user enters the network *)
  | Depart of { user : int; ap : int }
      (** a user leaves; [ap] is its serving AP, or
          [Wlan_model.Association.none] if it was unserved *)
  | Ap_down of { ap : int; detached : int }
      (** AP failure, [detached] members forcibly unserved *)
  | Ap_up of { ap : int }  (** AP recovery *)
  | Rate_drift of { user : int; steps : int }
      (** every link of [user] shifted [steps] rate tiers *)
  | Settle of {
      rounds : int;
      moves : int;
      reassociated : int;
      oscillated : bool;
    }  (** one re-convergence to quiescence *)

type t

(** An empty log. It keeps the first 200,000 records and counts the
    later ones it drops. *)
val create : unit -> t

val log : t -> time:float -> kind -> unit

(** The whole log as text, one record per line, chronological — the byte
    stream the golden-trace regression tests digest. A log that dropped
    N > 0 records ends with the line
    [dropped N records past the 200000-record limit]. *)
val to_string : t -> string
