(** Range-limited sparse link structure: per-user candidate-AP lists and
    per-AP member lists in CSR form, sharing one mutable rate plane, plus
    the spatial bucket grid that builds them from geometry without ever
    allocating the dense (AP × user) matrix. See DESIGN.md §4.10.

    The slot structure is immutable once built: churn may drive a
    slot's rate to [0.] ("link lost", skipped by every reader) and back,
    but a pair that was out of range at build time can never gain a link.

    Emits deterministic counters (when [Wlan_obs.Counters] collection is
    on): [sparse.builds], [sparse.candidate_list_len] (total slots
    built), [sparse.grid_cells_probed] (non-empty cells examined). *)

type t

val n_aps : t -> int
val n_users : t -> int

(** Total number of slots (in-range pairs at build time, lost or not). *)
(* lint: allow export-reachability — tests size the link structure by it *)
val n_links : t -> int

(** Whether some slot is lost (rate [0.]): {!restrict} drops those. *)
val has_lost : t -> bool

(** [assemble ~n_aps ~user_off ~cand_ap ~cand_rate ~cand_signal] builds
    both CSR planes from the candidate plane: user [u]'s slots are
    [user_off.(u) .. user_off.(u+1) - 1], in strictly ascending AP order,
    with finite non-negative rates. Mirrors them into the member plane,
    counts one build and validates; the arrays are taken, not copied.
    @raise Invalid_argument on malformed planes. *)
(* lint: allow export-reachability — the sparse battery builds hand-made planes through it *)
val assemble :
  n_aps:int ->
  user_off:int array ->
  cand_ap:int array ->
  cand_rate:float array ->
  cand_signal:float array ->
  t

(** [restrict t ~aps ~users] is the sub-structure on the listed APs and
    users, reindexed densely in the given order (local AP [i] is
    [aps.(i)], local user [j] is [users.(j)]): each listed user keeps
    its in-range candidates, lost slots are dropped. It slices [t]'s
    planes directly into {!assemble} (one build). [aps] must be ascending
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
(* lint: allow export-reachability — the sparse digest records each link's slot *)
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

(** [fill_members t a ~users ~rates] writes AP [a]'s in-range members
    into the two planes, ascending user order, and returns how many. The
    planes must hold [member_degree t a] entries. Allocates nothing:
    this is how cover instances read an AP's receivers. *)
val fill_members : t -> int -> users:int array -> rates:float array -> int

(** Number of member slots of an AP (in-range or lost). *)
val member_degree : t -> int -> int

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

(** The in-range candidate AP of a user with the strongest signal
    under [Float.compare], ties to the lower AP index; [-1] if none. One
    pass over the user's slots; allocates nothing. *)
val strongest_ap : t -> int -> int

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

(** Spatial bucket grid over point sets (typically AP positions): point
    indices sorted by square cell of side [cell]. The 3×3 cell block
    around a point is a superset of the points within [cell] of it — no
    false negatives at the exact reach boundary or on cell edges. *)
module Grid : sig
  type grid

  (** [build ~cell pts] sorts every point index by its cell.
      @raise Invalid_argument if [cell <= 0]. *)
  val build : cell:float -> Point.t array -> grid

  (** [iter_block g p f] calls [f i] for every point index in the 3×3
      cell block around [p]: cell by cell (each found by its own binary
      search, so cell keys that wrap at |x| >= 2^62 · cell are still
      exact), ascending index within a cell. Deterministic; counts the
      non-empty cells in [sparse.grid_cells_probed]. *)
  val iter_block : grid -> Point.t -> (int -> unit) -> unit
end

(** [of_geometry ~cell ~ap_pos ~user_pos ~link] compiles positions
    straight into the planes: user [u] gets a slot for AP [a] iff
    [dist <= cell] and [link ~ap:a ~user:u ~dist] is [Some (rate,
    signal)], [dist] being [Point.dist]'s bits. With [link] [None] beyond
    [cell], this equals an all-pairs scan. One {!Grid} and two passes
    over its blocks: the first sizes the planes exactly, the second
    inserts each link in ascending AP order.
    @raise Invalid_argument if [cell <= 0] or a rate is invalid. *)
val of_geometry :
  cell:float ->
  ap_pos:Point.t array ->
  user_pos:Point.t array ->
  link:(ap:int -> user:int -> dist:float -> (float * float) option) ->
  t
