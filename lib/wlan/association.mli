(** User-to-AP association state: a dense array mapping every user to its
    serving AP, or {!none} for unserved users. The representation is
    exposed (it is the lingua franca between the algorithms, the
    simulator and the tests); treat it as owned by whoever created it. *)

type t = int array

val none : int

(** Fresh association with every user unserved. *)
val empty : n_users:int -> t

val copy : t -> t
val ap_of : t -> int -> int option
val is_served : t -> int -> bool
val serve : t -> user:int -> ap:int -> unit

(** Number of users currently served. *)
val served_count : t -> int

val equal : t -> t -> bool

(** Every served user is in range of its AP. *)
val in_range_ok : Problem.t -> t -> bool

val pp : Format.formatter -> t -> unit
