(** Instances of covering problems over a dense ground set [0, n).

    One representation serves weighted Set Cover, Maximum Coverage with
    Group Budgets (MCG) and Set Cover with Group Budgets (SCG): a family
    of subsets with positive costs, each belonging to a group (in the
    WLAN reductions, one group per AP). Each set carries an opaque
    payload so callers can map chosen sets back to their domain. *)

(** Read-only planes, which the greedy cores index directly (DESIGN.md
    §4.12, "Hot loops under [-opaque]"). Set [j] is the slice
    [members.(lo.(j)) .. members.(hi.(j) - 1)] of one member plane, in
    no particular order; slices may share members. *)
type 'a t = private {
  n_elements : int;
  members : int array;
  lo : int array;
  hi : int array;
  costs : float array;
  group_of : int array;
  n_groups : int;
  payload : int -> 'a;
  coverable : Bitset.t;  (** union of the sets; never mutate it *)
}

(** [of_planes ~n_elements ~members ~lo ~hi ~costs ~group_of ~n_groups
    ~payload] takes the planes as they are (not copied): [lo], [hi],
    [costs] and [group_of] have one entry per set, every member lies in
    [0, n_elements), costs are positive and groups lie in
    [0, n_groups). [payload j] is set [j]'s payload.
    @raise Invalid_argument on any violation. *)
val of_planes :
  n_elements:int ->
  members:int array ->
  lo:int array ->
  hi:int array ->
  costs:float array ->
  group_of:int array ->
  n_groups:int ->
  payload:(int -> 'a) ->
  'a t

(** [make ~n_elements ~sets ~costs ?group_of ?n_groups ~payload ()] builds
    an instance from one bitset per set, laid out into the member plane.
    [sets], [costs] and [payload] must have equal lengths; costs must be
    positive; every set's capacity must be [n_elements]. [group_of]
    defaults to all sets in group 0; [n_groups] may widen the group
    count beyond the largest used index (so empty groups exist).
    @raise Invalid_argument on any violation. *)
(* lint: allow export-reachability — builds the hand-made instances the test references solve *)
val make :
  n_elements:int ->
  sets:Bitset.t array ->
  costs:float array ->
  ?group_of:int array ->
  ?n_groups:int ->
  payload:'a array ->
  unit ->
  'a t

val n_sets : 'a t -> int
val n_elements : 'a t -> int
val n_groups : 'a t -> int

(** Set [j] as a fresh bitset. *)
val set : 'a t -> int -> Bitset.t

val cost : 'a t -> int -> float
val group : 'a t -> int -> int
(* lint: allow export-reachability — the test references read selected sets back through it *)
val payload : 'a t -> int -> 'a

(** A fresh copy of the [coverable] plane, which the caller may mutate. *)
val coverable : 'a t -> Bitset.t

val max_cost : 'a t -> float
