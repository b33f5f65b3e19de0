(* Exact MCG by branch and bound: the oracle the budgeted greedy
   ([Optkit.Mcg]) and the MNU ILP are cross-checked against on tiny
   instances (test_optkit.ml, test_optimal.ml). *)

open Optkit

type exact_result = {
  sets : int list;
  exact_covered : Bitset.t;
  coverage_weight : float;
  proved_optimal : bool;
}

(** Exact MCG by branch and bound over include/exclude decisions, with a
    reachability bound (current coverage + everything the remaining sets
    could still cover). Exponential in the number of sets — for the tiny
    instances the tests use to cross-validate the greedy and the ILP
    solvers. *)
let exact ?(node_limit = 1_000_000) ?element_weights inst ~budgets ?universe
    () =
  if Array.length budgets <> Cover_instance.n_groups inst then
    invalid_arg "Mcg_exact.exact: budgets length <> number of groups";
  let x0 =
    match universe with
    | Some u -> Bitset.inter u inst.Cover_instance.coverable
    | None -> inst.Cover_instance.coverable
  in
  let n = Cover_instance.n_elements inst in
  let weight_of set =
    match element_weights with
    | None -> float_of_int (Bitset.cardinal set)
    | Some w -> Bitset.fold (fun e acc -> acc +. w.(e)) set 0.
  in
  let m = Cover_instance.n_sets inst in
  let sets = Array.init m (Cover_instance.set inst) in
  (* order sets by decreasing standalone effectiveness for early incumbents *)
  let order = Array.init m Fun.id in
  Array.sort
    (fun a b ->
      Float.compare
        (weight_of (Bitset.inter sets.(b) x0)
        /. Cover_instance.cost inst b)
        (weight_of (Bitset.inter sets.(a) x0)
        /. Cover_instance.cost inst a))
    order;
  (* suffix unions for the reachability bound *)
  let suffix = Array.make (m + 1) (Bitset.create n) in
  for i = m - 1 downto 0 do
    suffix.(i) <-
      Bitset_ref.union suffix.(i + 1)
        (Bitset.inter sets.(order.(i)) x0)
  done;
  let best_w = ref 0. and best_sets = ref [] in
  let nodes = ref 0 and truncated = ref false in
  let spent = Array.make (Cover_instance.n_groups inst) 0. in
  let rec go i picked covered covered_w =
    incr nodes;
    if !nodes > node_limit then truncated := true
    else if covered_w > !best_w +. 1e-12 then begin
      best_w := covered_w;
      best_sets := picked;
      go_children i picked covered covered_w
    end
    else go_children i picked covered covered_w
  and go_children i picked covered covered_w =
    if i < m && not !truncated then begin
      let reachable =
        covered_w +. weight_of (Bitset.diff suffix.(i) covered)
      in
      if reachable > !best_w +. 1e-12 then begin
        let j = order.(i) in
        let g = Cover_instance.group inst j in
        let c = Cover_instance.cost inst j in
        (* include j if it fits its group's budget *)
        if spent.(g) +. c <= budgets.(g) +. 1e-12 then begin
          spent.(g) <- spent.(g) +. c;
          let newly = Bitset.diff (Bitset.inter sets.(j) x0) covered in
          let covered' = Bitset_ref.union covered newly in
          go (i + 1) (j :: picked) covered' (covered_w +. weight_of newly);
          spent.(g) <- spent.(g) -. c
        end;
        (* exclude j *)
        go (i + 1) picked covered covered_w
      end
    end
  in
  go 0 [] (Bitset.create n) 0.;
  let covered = Bitset.create n in
  List.iter
    (fun j ->
      Bitset_ref.union_inplace covered (Bitset.inter sets.(j) x0))
    !best_sets;
  {
    sets = List.rev !best_sets;
    exact_covered = covered;
    coverage_weight = !best_w;
    proved_optimal = not !truncated;
  }
