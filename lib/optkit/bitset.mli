(** Fixed-capacity bitsets over dense integer universes [0, capacity).

    The covering algorithms spend almost all their time computing
    [|S ∩ X'|]; representing element sets as bit vectors makes that a
    word-wise AND plus popcount. All operations besides the explicit
    [*_inplace] variants are persistent. *)

type t

(** [create capacity] is the empty set over universe [0, capacity).
    @raise Invalid_argument on negative capacity. *)
val create : int -> t

val capacity : t -> int
val copy : t -> t

(** Mutators; indices outside [0, capacity) raise [Invalid_argument]. *)

val add : t -> int -> unit

val mem : t -> int -> bool
val cardinal : t -> int
val is_empty : t -> bool

(** Binary operations require equal capacities ([Invalid_argument]
    otherwise). *)

(** [inter_cardinal a b] is [|a ∩ b|], without allocating. *)
val inter_cardinal : t -> t -> int

val inter : t -> t -> t
val diff : t -> t -> t

(** [diff_inplace a b] removes the elements of [b] from [a]. *)
val diff_inplace : t -> t -> unit

val subset : t -> t -> bool
val equal : t -> t -> bool

(** [full n] contains every element of [0, n). *)
val full : int -> t

(** [iter f t] visits members in ascending order, scanning whole words
    and peeling set bits — O(words + members), not O(capacity). *)
val iter : (int -> unit) -> t -> unit

val to_list : t -> int list
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** {1 Member slices} Set algebra, without allocating, against the
    slice [a.(lo) .. a.(hi - 1)] of a member plane (a {!Cover_instance}
    set), whose members must lie in [0, capacity). *)

(** How many of the slice's members are in [t]. *)
val count_in : t -> int array -> int -> int -> int

val add_in : t -> int array -> int -> int -> unit
val remove_in : t -> int array -> int -> int -> unit

(** [move_in ~src ~dst a lo hi] moves the slice's members in [src] to
    [dst]; how many. *)
val move_in : src:t -> dst:t -> int array -> int -> int -> int

(** [iter_inter f a b] visits the elements of [a ∩ b] in ascending
    order without allocating the intersection. *)
val iter_inter : (int -> unit) -> t -> t -> unit
