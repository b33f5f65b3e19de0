(** A binary min-heap of timestamped events. Ties in time break by
    insertion order, so simultaneous events fire in the order they were
    scheduled — the determinism a discrete-event simulator needs. *)

type 'a t

val create : unit -> 'a t

(** [push t ~time payload] schedules at [time].
    @raise Invalid_argument on negative or non-finite times. *)
val push : 'a t -> time:float -> 'a -> unit

(** Pop the earliest event as [(time, payload)]. *)
val pop : 'a t -> (float * 'a) option
