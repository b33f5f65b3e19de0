(** Multicast sessions (streams): a TV channel, radio channel or
    information feed with a fixed data rate. Every user subscribes to
    exactly one session (paper §3.1). A session's id is its index in
    the scenario's session array. *)

type t = { rate_mbps : float }

(** @raise Invalid_argument on a non-positive or non-finite rate. *)
val make : rate_mbps:float -> t

val rate_mbps : t -> float

(** [uniform ~n ~rate_mbps]: [n] sessions all streaming at the same rate —
    the configuration the paper's evaluation uses. *)
val uniform : n:int -> rate_mbps:float -> t array
