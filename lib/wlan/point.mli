(** Planar geometry for node placement. Coordinates in meters. *)

type t = { x : float; y : float }

val v : float -> float -> t

(** Euclidean distance in meters. *)
val dist : t -> t -> float

(** [within r a b] is true when [a] and [b] are at most [r] meters apart. *)
val within : float -> t -> t -> bool

(** Uniform random point in the [w] × [h] rectangle anchored at the
    origin. *)
val random : rng:Random.State.t -> w:float -> h:float -> t
