(** The discrete-event simulation engine: a clock, a queue of closures
    fired at simulated times (seconds), and a seeded RNG for deterministic
    jitter. Scheduling in the past is a hard error. *)

type t

val create : ?seed:int -> unit -> t
val now : t -> float
val processed : t -> int
val rng : t -> Random.State.t

(** Fire [f] at absolute time [at] (clamped up to [now]).
    @raise Invalid_argument when [at] is in the past. *)
val schedule : t -> at:float -> (unit -> unit) -> unit

(** Fire [f] [delay] seconds from now. *)
val after : t -> delay:float -> (unit -> unit) -> unit

(** Uniform jitter in [0, max); deterministic for a fixed seed. *)
val jitter : t -> max:float -> float

(** Run until the queue drains. Returns the final clock.
    @raise Invalid_argument on re-entrant calls. *)
val run : t -> float
