(** Instances of covering problems over a dense ground set [0, n).

    One representation serves weighted Set Cover, Maximum Coverage with
    Group Budgets (MCG) and Set Cover with Group Budgets (SCG): a family
    of subsets with positive costs, each belonging to a group (in the
    WLAN reductions, one group per AP). Each set carries an opaque
    payload so callers can map chosen sets back to their domain. *)

type 'a t

(** [make ~n_elements ~sets ~costs ?group_of ?n_groups ~payload ()] builds
    an instance. [sets], [costs] and [payload] must have equal lengths;
    costs must be positive; every set's capacity must be [n_elements].
    [group_of] defaults to all sets in group 0; [n_groups] may widen the
    group count beyond the largest used index (so empty groups exist).
    @raise Invalid_argument on any violation. *)
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
val set : 'a t -> int -> Bitset.t
val cost : 'a t -> int -> float
val group : 'a t -> int -> int
val payload : 'a t -> int -> 'a

(** Union of all sets — the coverable portion of the ground set. *)
val coverable : 'a t -> Bitset.t

val max_cost : 'a t -> float
