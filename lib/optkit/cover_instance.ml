(** Instances of covering problems over a dense ground set [0, n).

    One representation serves plain weighted Set Cover, Maximum Coverage
    with Group Budgets (MCG) and Set Cover with Group Budgets (SCG): a
    family of subsets with positive costs, each belonging to a group (the
    paper's groups are "all subsets of one AP"). Ungrouped problems put
    every set in group 0. Each set carries an opaque payload so callers can
    map chosen sets back to their domain ((AP, session, rate) triples in the
    reductions). *)

type 'a t = {
  n_elements : int;
  sets : Bitset.t array;
  costs : float array;
  group_of : int array;
  n_groups : int;
  payload : 'a array;
  coverable : Bitset.t;  (** union of [sets], computed once by {!make} *)
}

let make ~n_elements ~sets ~costs ?group_of ?n_groups ~payload () =
  let m = Array.length sets in
  if Array.length costs <> m || Array.length payload <> m then
    invalid_arg "Cover_instance.make: array length mismatch";
  Array.iter
    (fun c -> if c <= 0. then invalid_arg "Cover_instance.make: cost <= 0")
    costs;
  Array.iter
    (fun s ->
      if Bitset.capacity s <> n_elements then
        invalid_arg "Cover_instance.make: set capacity mismatch")
    sets;
  let group_of =
    match group_of with Some g -> g | None -> Array.make m 0
  in
  if Array.length group_of <> m then
    invalid_arg "Cover_instance.make: group_of length mismatch";
  let min_groups =
    Array.fold_left (fun acc g -> Int.max acc (g + 1)) 0 group_of
  in
  let n_groups =
    match n_groups with
    | None -> min_groups
    | Some n ->
        if n < min_groups then
          invalid_arg "Cover_instance.make: n_groups below max group index";
        n
  in
  Array.iter
    (fun g -> if g < 0 then invalid_arg "Cover_instance.make: negative group")
    group_of;
  let coverable = Bitset.create n_elements in
  Array.iter (Bitset.union_inplace coverable) sets;
  { n_elements; sets; costs; group_of; n_groups; payload; coverable }

let n_sets t = Array.length t.sets
let n_elements t = t.n_elements
let n_groups t = t.n_groups
let set t j = t.sets.(j)
let cost t j = t.costs.(j)
let group t j = t.group_of.(j)
let payload t j = t.payload.(j)

(** A copy of the [coverable] plane {!make} computed: callers mutate it. *)
let coverable t = Bitset.copy t.coverable

let max_cost t = Array.fold_left Float.max 0. t.costs
