(** Multicast sessions (streams).

    Each session is a live stream — a TV channel, radio channel, visitor
    information feed — with a fixed data rate in Mbps. Every user subscribes
    to exactly one session (paper §3.1: "each user may request one multicast
    stream", like watching one TV channel at a time). *)

type t = { id : int; rate_mbps : float }

let make ~id ~rate_mbps =
  (* [<= 0.] is false for nan: require finiteness explicitly *)
  if not (Float.is_finite rate_mbps) || rate_mbps <= 0. then
    invalid_arg "Session.make: rate must be positive";
  if id < 0 then invalid_arg "Session.make: id must be non-negative";
  { id; rate_mbps }

let rate_mbps t = t.rate_mbps

(** [uniform ~n ~rate_mbps] is [n] sessions all streaming at [rate_mbps],
    the configuration used throughout the paper's evaluation. *)
let uniform ~n ~rate_mbps =
  Array.init n (fun id -> make ~id ~rate_mbps)
