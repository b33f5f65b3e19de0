(** Instances of covering problems over a dense ground set [0, n).

    One representation serves plain weighted Set Cover, Maximum Coverage
    with Group Budgets (MCG) and Set Cover with Group Budgets (SCG): a
    family of subsets with positive costs, each belonging to a group (the
    paper's groups are "all subsets of one AP"). Ungrouped problems put
    every set in group 0. Each set carries an opaque payload so callers can
    map chosen sets back to their domain ((AP, session, rate) triples in the
    reductions). Sets are slices of one member plane (DESIGN.md §4.12). *)

type 'a t = {
  n_elements : int;
  members : int array;
  lo : int array;
  hi : int array;
  costs : float array;
  group_of : int array;
  n_groups : int;
  payload : int -> 'a;
  coverable : Bitset.t;  (** union of the sets, computed once *)
}

let of_planes ~n_elements ~members ~lo ~hi ~costs ~group_of ~n_groups
    ~payload =
  let m = Array.length costs in
  if Array.length lo <> m || Array.length hi <> m || Array.length group_of <> m
  then invalid_arg "Cover_instance: array length mismatch";
  if Array.exists (fun e -> e < 0 || e >= n_elements) members then
    invalid_arg "Cover_instance: member outside the ground set";
  let coverable = Bitset.create n_elements in
  (* a loop, not [Array.iter]: a closure would box every cost *)
  for j = 0 to m - 1 do
    if costs.(j) <= 0. then invalid_arg "Cover_instance: cost <= 0";
    if lo.(j) < 0 || lo.(j) > hi.(j) || hi.(j) > Array.length members then
      invalid_arg "Cover_instance: set slice outside the member plane";
    if group_of.(j) < 0 then invalid_arg "Cover_instance: negative group";
    if group_of.(j) >= n_groups then
      invalid_arg "Cover_instance: n_groups below max group index";
    Bitset.add_in coverable members lo.(j) hi.(j)
  done;
  { n_elements; members; lo; hi; costs; group_of; n_groups; payload; coverable }

let make ~n_elements ~sets ~costs ?group_of ?n_groups ~payload () =
  let m = Array.length sets in
  if Array.length payload <> m then
    invalid_arg "Cover_instance.make: array length mismatch";
  if Array.exists (fun s -> Bitset.capacity s <> n_elements) sets then
    invalid_arg "Cover_instance.make: set capacity mismatch";
  let group_of = Option.value group_of ~default:(Array.make m 0) in
  let n_groups =
    Option.value n_groups
      ~default:(Array.fold_left (fun acc g -> Int.max acc (g + 1)) 0 group_of)
  in
  let slices = Array.map (fun s -> Array.of_list (Bitset.to_list s)) sets in
  let hi = Array.make m 0 in
  Array.iteri
    (fun j a -> hi.(j) <- (if j = 0 then 0 else hi.(j - 1)) + Array.length a)
    slices;
  of_planes ~n_elements
    ~members:(Array.concat (Array.to_list slices))
    ~lo:(Array.mapi (fun j h -> h - Array.length slices.(j)) hi)
    ~hi ~costs ~group_of ~n_groups ~payload:(Array.get payload)

let n_sets t = Array.length t.costs
let n_elements t = t.n_elements
let n_groups t = t.n_groups

let set t j =
  let s = Bitset.create t.n_elements in
  Bitset.add_in s t.members t.lo.(j) t.hi.(j);
  s

let cost t j = t.costs.(j)
let group t j = t.group_of.(j)
let payload t j = t.payload j

(** A copy of the [coverable] plane: callers mutate it. *)
let coverable t = Bitset.copy t.coverable

let max_cost t = Array.fold_left Float.max 0. t.costs
