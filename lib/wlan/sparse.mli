(** Range-limited sparse link structure: per-user candidate-AP lists and
    per-AP member lists in CSR form, sharing one mutable rate plane, plus
    the spatial bucket grid that builds them from geometry without ever
    allocating the dense (AP × user) matrix. See DESIGN.md §4.10.

    The slot structure is immutable after {!make}: churn may drive a
    slot's rate to [0.] ("link lost", skipped by every reader) and back,
    but a pair that was out of range at build time can never gain a link.

    Emits deterministic counters (when [Wlan_obs.Counters] collection is
    on): [sparse.builds], [sparse.candidate_list_len] (total slots
    built), [sparse.grid_cells_probed] (non-empty cells examined). *)

type t

val n_aps : t -> int
val n_users : t -> int

(** Total number of slots (in-range pairs at build time, lost or not). *)
val n_links : t -> int

(** [make ~n_aps ~links] builds both CSR planes from per-user candidate
    lists: [links.(u)] lists user [u]'s [(ap, rate, signal)] triples in
    strictly ascending AP order. Rates must be finite and non-negative.
    @raise Invalid_argument on unsorted/duplicate/out-of-range entries. *)
val make : n_aps:int -> links:(int * float * float) list array -> t

(** [restrict t ~aps ~users] is the sub-structure on the listed APs and
    users, reindexed densely in the given order (local AP [i] is
    [aps.(i)], local user [j] is [users.(j)]): each listed user keeps
    its in-range candidates, lost slots are dropped. It slices [t]'s
    planes directly and shares {!make}'s member-plane assembly and
    validation, so it equals {!make} on the restricted candidate lists
    plane for plane (and counts as one build). [aps] must be ascending
    for the result to validate — the shard sub-instance's case.
    @raise Invalid_argument when a listed user hears an AP not in
    [aps]. *)
val restrict : t -> aps:int array -> users:int array -> t

(** [of_dense ~n_users ~rates ~signal] builds from (AP × user) matrices:
    one slot per positive-rate pair. The matrices must have [n_users]
    columns. *)
val of_dense :
  n_users:int -> rates:float array array -> signal:float array array -> t

(** Structural validation; returns its argument.
    @raise Invalid_argument on malformed structure. *)
val validate : t -> t

(** Candidate slot index of [(ap, user)], [-1] if the pair was never in
    range (binary search over the user's candidate list; allocates
    nothing). *)
val find_slot : t -> ap:int -> user:int -> int

(** Link rate, [0.] when the pair was never in range or the link is lost. *)
val link_rate : t -> ap:int -> user:int -> float

(** Signal metric; [neg_infinity] when the pair was never in range. *)
val signal : t -> ap:int -> user:int -> float

(** [iter_candidates t u f] calls [f ap rate signal] for every in-range
    candidate AP of user [u] (rate [> 0.]), in ascending AP order. *)
val iter_candidates : t -> int -> (int -> float -> float -> unit) -> unit

(** [iter_members t a f] calls [f user rate] for every in-range member
    user of AP [a] (rate [> 0.]), in ascending user order. *)
val iter_members : t -> int -> (int -> float -> unit) -> unit

(** [iter_member_users t a f] calls [f user] for every in-range member
    user of AP [a], ascending — {!iter_members} without the rate, so no
    float is boxed per call. *)
val iter_member_users : t -> int -> (int -> unit) -> unit

(** [fill_candidates t u ~ap_alive ~aps ~rates ~sigs] writes user [u]'s
    in-range candidates whose AP is alive ([ap_alive.(ap)]) into the
    three planes, ascending AP order, and returns how many. The planes
    must hold [degree t u] entries. Allocates nothing: this is how the
    flat decision kernel reads a neighbourhood. *)
val fill_candidates :
  t ->
  int ->
  ap_alive:bool array ->
  aps:int array ->
  rates:float array ->
  sigs:float array ->
  int

(** In-range candidate APs of a user, ascending index order. *)
val candidate_aps : t -> int -> int list

(** Number of slots of a user (in-range or lost). *)
val degree : t -> int -> int

(** [set_rate t ~ap ~user r] overwrites the slot's rate in place ([0.] =
    lost, positive = re-armed). Setting an absent link to [0.] is a
    no-op.
    @raise Invalid_argument when the pair was never in range and
    [r > 0.] — the slot structure cannot grow. *)
val set_rate : t -> ap:int -> user:int -> float -> unit

(** A copy whose rate plane is private; all immutable planes are shared.
    Take one before mutating (churn replay does). *)
val copy_values : t -> t

(** A copy with the rates of dead APs' and absent users' slots forced to
    [0.] — the sparse counterpart of zeroing matrix rows and columns. *)
val masked : t -> ap_alive:bool array -> user_present:bool array -> t

(** A copy with every in-range rate mapped through the function (lost
    links stay lost). *)
val map_rates : t -> (float -> float) -> t

val pp : Format.formatter -> t -> unit

(** Spatial bucket grid over point sets (typically AP positions). Square
    cells of side [cell]; probing gathers the 3×3 cell block around a
    point, a guaranteed superset of the points within [cell] of it — no
    false negatives at the exact reach boundary or on cell edges. The
    caller applies the exact distance/rate predicate downstream, so
    candidate construction is bit-identical to an all-pairs scan. *)
module Grid : sig
  type grid

  (** [build ~cell pts] buckets every point index by its cell.
      Bucket contents are index-ascending regardless of input order.
      @raise Invalid_argument if [cell <= 0]. *)
  val build : cell:float -> Point.t array -> grid

  (** All point indices in the 3×3 cell block around the probe point, in
      ascending index order (deterministic: explicit key lookups, no
      hash-order iteration). *)
  val probe : grid -> Point.t -> int list
end
