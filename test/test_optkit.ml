(* Tests for the combinatorial substrate: bitsets, the flat lazy-greedy heap,
   weighted set cover (greedy + exact), MCG, SCG, subset sum and makespan
   scheduling, including approximation-bound properties against the exact
   solvers on random small instances. The [differential] group holds the
   kernel-equivalence properties: the heap bank against a sorted-list
   reference, and greedy set cover, MCG rounds and SCG sessions, grids
   and resumed probes against eager or from-scratch references. *)

open Optkit

(* ------------------------------------------------------------------ *)
(* Bitset                                                             *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "not mem 64" false (Bitset.mem s 64);
  Alcotest.(check (list int)) "to_list" [ 0; 63; 99 ] (Bitset.to_list s)

let test_bitset_word_boundaries () =
  (* bits around the 62-bit word boundary *)
  let s = Bitset.create 200 in
  List.iter (Bitset.add s) [ 61; 62; 63; 123; 124; 125 ];
  Alcotest.(check int) "cardinal" 6 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list" [ 61; 62; 63; 123; 124; 125 ]
    (Bitset.to_list s)

let test_bitset_set_ops () =
  let a = Bitset_ref.of_list 50 [ 1; 2; 3; 10 ] in
  let b = Bitset_ref.of_list 50 [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "inter" [ 2; 3 ] Bitset.(to_list (inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 10 ] Bitset.(to_list (diff a b));
  Alcotest.(check int) "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  Alcotest.(check bool) "subset no" false (Bitset.subset a b);
  Alcotest.(check bool) "subset yes" true
    (Bitset.subset (Bitset_ref.of_list 50 [ 2; 3 ]) b)

let test_bitset_inplace () =
  let a = Bitset_ref.of_list 50 [ 1; 2; 3 ] in
  Bitset.diff_inplace a (Bitset_ref.of_list 50 [ 2 ]);
  Alcotest.(check (list int)) "diff_inplace" [ 1; 3 ] (Bitset.to_list a)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add s 10);
  let t = Bitset.create 20 in
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      ignore (Bitset.inter_cardinal s t))

let test_bitset_zero_capacity () =
  let s = Bitset.create 0 in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal s);
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check (list int)) "to_list" [] (Bitset.to_list s);
  Alcotest.(check bool) "full of nothing" true
    (Bitset.equal (Bitset.full 0) s)

let test_bitset_fold_order () =
  let s = Bitset_ref.of_list 10 [ 7; 2; 5 ] in
  Alcotest.(check (list int)) "ascending fold" [ 7; 5; 2 ]
    (Bitset.fold (fun e acc -> e :: acc) s [])

let prop_bitset_cardinal_matches_list =
  QCheck.Test.make ~name:"bitset cardinal = list length" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 199))
    (fun l ->
      let s = Bitset_ref.of_list 200 l in
      Bitset.cardinal s = List.length (List.sort_uniq compare l))

let prop_bitset_inter_cardinal =
  QCheck.Test.make ~name:"inter_cardinal = |inter as lists|" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 40) (int_range 0 150))
        (list_of_size Gen.(int_range 0 40) (int_range 0 150)))
    (fun (la, lb) ->
      let a = Bitset_ref.of_list 151 la and b = Bitset_ref.of_list 151 lb in
      let inter =
        List.filter (fun x -> List.mem x lb) (List.sort_uniq compare la)
      in
      Bitset.inter_cardinal a b = List.length inter)

(* ------------------------------------------------------------------ *)
(* Flat_heap                                                          *)
(* ------------------------------------------------------------------ *)

(* every priority moves through the bank's cell *)
let push h g ~prio v =
  h.Flat_heap.cell.(0) <- prio;
  Flat_heap.push h g v

(* group [g]'s stored root priority, [neg_infinity] when empty *)
let top_bound (h : Flat_heap.t) g =
  if h.size.(g) = 0 then neg_infinity else h.prio.(h.off.(g))

(* a one-group bank holding [entries] (priority, value), pushed in order *)
let heap_of entries =
  let h = Flat_heap.make ~capacities:[| List.length entries |] () in
  List.iter (fun (p, v) -> push h 0 ~prio:p v) entries;
  h

(* validate group [g]'s root in place: the answer's value, its fresh
   priority and its plane index, the entry left in the heap *)
let top_in h g ~revalidate =
  let i =
    Flat_heap.top h g ~revalidate:(fun v ->
        h.Flat_heap.cell.(0) <- revalidate v)
  in
  if i < 0 then None else Some (h.Flat_heap.value.(i), h.Flat_heap.prio.(i), i)

(* a pop: the validated root, then removed *)
let pop_in h g ~revalidate =
  match top_in h g ~revalidate with
  | None -> None
  | Some (v, p, i) ->
      Flat_heap.remove h g i;
      Some (v, p)

let pop h ~revalidate = pop_in h 0 ~revalidate

let popped = Alcotest.(option (pair int (float 0.)))

let test_heap_pop_order () =
  let h = heap_of [ (1., 0); (3., 1); (2., 2) ] in
  (* fresh priorities equal the stored ones *)
  let reval v = [| 1.; 3.; 2. |].(v) in
  Alcotest.check popped "max first" (Some (1, 3.)) (pop h ~revalidate:reval);
  Alcotest.check popped "then 2" (Some (2, 2.)) (pop h ~revalidate:reval);
  Alcotest.check popped "then 0" (Some (0, 1.)) (pop h ~revalidate:reval);
  Alcotest.check popped "empty" None (pop h ~revalidate:reval);
  Alcotest.(check (float 0.)) "empty bound" neg_infinity (top_bound h 0)

let test_heap_stale_reinsertion () =
  (* stored priorities are stale: the decayed top is re-inserted at its
     fresh priority and the true maximum wins *)
  let h = heap_of [ (10., 0); (9., 1) ] in
  let fresh = function 0 -> 1. | _ -> 8. in
  Alcotest.check popped "1 wins after decay" (Some (1, 8.)) (pop h ~revalidate:fresh);
  Alcotest.(check int) "stale top kept" 1 h.Flat_heap.size.(0);
  Alcotest.(check (float 0.)) "re-inserted at its fresh priority" 1.
    (top_bound h 0);
  Alcotest.check popped "then 0" (Some (0, 1.)) (pop h ~revalidate:fresh)

let test_heap_drops_dead_entries () =
  let h = heap_of [ (5., 0); (1., 1) ] in
  let fresh = function 0 -> neg_infinity | _ -> 1. in
  Alcotest.check popped "alive survives" (Some (1, 1.)) (pop h ~revalidate:fresh);
  Alcotest.(check int) "dead dropped" 0 h.Flat_heap.size.(0);
  Alcotest.check popped "empty" None (pop h ~revalidate:fresh)

let test_heap_top_in_place () =
  (* an exact or in-window root stays in the heap, re-keyed to its fresh
     priority; only [remove] takes it out *)
  let h = heap_of [ (3., 0); (2., 1); (1., 2) ] in
  let score = [| 3.; 2.; 1. |] in
  let reval v = score.(v) in
  let top () =
    Option.map (fun (v, p, _) -> (v, p)) (top_in h 0 ~revalidate:reval)
  in
  Alcotest.check popped "exact root" (Some (0, 3.)) (top ());
  Alcotest.(check int) "still held" 3 h.Flat_heap.size.(0);
  score.(0) <- 3. -. 4e-13;
  Alcotest.check popped "in-window root, re-keyed" (Some (0, 3. -. 4e-13))
    (top ());
  Alcotest.(check (float 0.)) "stored at its fresh priority" (3. -. 4e-13)
    (top_bound h 0);
  score.(0) <- 0.5;
  Alcotest.check popped "stale root re-keyed below the next" (Some (1, 2.))
    (top ());
  Alcotest.(check int) "nothing dropped" 3 h.Flat_heap.size.(0);
  Alcotest.check popped "then the rest in order" (Some (1, 2.))
    (pop h ~revalidate:reval);
  Alcotest.check popped "2" (Some (2, 1.)) (pop h ~revalidate:reval);
  Alcotest.check popped "0 last" (Some (0, 0.5)) (pop h ~revalidate:reval)

let test_heap_remove_anywhere () =
  let h = heap_of [ (5., 0); (4., 1); (3., 2); (2., 3); (1., 4) ] in
  let base = h.Flat_heap.off.(0) in
  (* a leaf, then an inner entry: the order holds after each *)
  let remove_value v =
    let i = ref (-1) in
    for k = base to base + h.Flat_heap.size.(0) - 1 do
      if h.Flat_heap.value.(k) = v then i := k
    done;
    Flat_heap.remove h 0 !i
  in
  remove_value 4;
  remove_value 1;
  let reval v = [| 5.; 4.; 3.; 2.; 1. |].(v) in
  let rec drain acc =
    match pop h ~revalidate:reval with
    | None -> List.rev acc
    | Some (v, _) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "the rest in order" [ 0; 2; 3 ] (drain []);
  Alcotest.check_raises "not a live entry"
    (Invalid_argument "Flat_heap.remove: no such entry") (fun () ->
      Flat_heap.remove h 0 base)

let test_heap_capacity () =
  let h = Flat_heap.make ~capacities:[| 1; 2 |] () in
  let full = Invalid_argument "Flat_heap.push: group capacity exceeded" in
  push h 0 ~prio:1. 0;
  Alcotest.check_raises "group 0 full" full (fun () ->
      push h 0 ~prio:2. 1);
  push h 1 ~prio:4. 8;
  push h 1 ~prio:5. 7;
  Alcotest.check_raises "group 1 full" full (fun () ->
      push h 1 ~prio:6. 9);
  Alcotest.(check (float 0.)) "group 0 untouched" 1. (top_bound h 0);
  Alcotest.(check (float 0.)) "group 1 top" 5. (top_bound h 1);
  Alcotest.(check int) "group 1 size" 2 h.Flat_heap.size.(1)

let test_heap_equal_priorities () =
  (* exact ties pop the lower value first, whatever the push order *)
  let h = heap_of [ (2., 5); (2., 3); (1., 0); (2., 4); (2., 1) ] in
  let reval v = if v = 0 then 1. else 2. in
  let rec drain acc =
    match pop h ~revalidate:reval with
    | None -> List.rev acc
    | Some (v, _) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "ties by lower value" [ 1; 3; 4; 5; 0 ] (drain [])

(* Fresh priorities drawn from a small set (so exact ties are common):
   draining pops by priority descending, then value ascending. *)
let prop_heap_sorts =
  QCheck.Test.make ~name:"flat heap drains by priority, then lower value"
    ~count:100
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 6))
    (fun levels ->
      let prios = Array.of_list (List.map float_of_int levels) in
      let h = heap_of (List.mapi (fun i p -> (float_of_int p, i)) levels) in
      let rec drain acc =
        match pop h ~revalidate:(fun i -> prios.(i)) with
        | None -> List.rev acc
        | Some (v, _) -> drain (v :: acc)
      in
      let expected =
        List.sort
          (fun i j ->
            match Float.compare prios.(j) prios.(i) with
            | 0 -> Int.compare i j
            | c -> c)
          (List.init (Array.length prios) Fun.id)
      in
      drain [] = expected)

(* The in-place top protocol against a sorted-list reference. Two
   groups hold the even and the odd values; each value has a true score
   that only decays — by 0 (an exact tie stays one), by less than the
   1e-12 acceptance window (accepted at the fresh score), by a level
   (stale: re-keyed), or to [neg_infinity] (dead: dropped). Priorities
   come from a few levels, so exact ties are common. The reference keeps
   each group as a list sorted by priority, then lower value: a top
   re-keys the head to its fresh score until one is accepted, and leaves
   it in the list; a take is a top followed by removing the answer. *)
type heap_op = Push of int | Decay of int * int | Top of int | Take of int

let ref_top entries ~fresh =
  let by (p, v) (q, w) =
    match Float.compare q p with 0 -> Int.compare v w | c -> c
  in
  let rec go = function
    | [] -> (None, [])
    | (stored, v) :: rest ->
        let f = fresh v in
        if (f = neg_infinity) [@lint.allow float_eq] then go rest
        else
          let l = List.sort by ((f, v) :: rest) in
          if f >= stored -. 1e-12 then (Some (v, f), l) else go l
  in
  go (List.sort by entries)

let heap_matches_reference ops =
  let score = Array.make 12 0. in
  let h = Flat_heap.make ~capacities:[| 6; 6 |] () in
  let model = [| []; [] |] in
  let held v = List.exists (fun (_, w) -> w = v) model.(v mod 2) in
  let fresh v = score.(v) in
  (* both sides' answer, the model left holding it *)
  let top g =
    let got = top_in h g ~revalidate:fresh in
    let want, rest = ref_top model.(g) ~fresh in
    model.(g) <- rest;
    let same =
      match (got, want) with
      | None, None -> true
      | Some (v, p, _), Some (w, q) -> v = w && Float.equal p q
      | _ -> false
    in
    (got, same)
  in
  List.for_all
    (function
      | Push v ->
          if not (held v) then begin
            score.(v) <- float_of_int (3 + (v mod 4));
            push h (v mod 2) ~prio:score.(v) v;
            model.(v mod 2) <- (score.(v), v) :: model.(v mod 2)
          end;
          true
      | Decay (v, kind) ->
          (match kind with
          | 0 -> ()
          | 1 -> score.(v) <- score.(v) -. 4e-13
          | 2 -> score.(v) <- score.(v) -. 1.
          | _ -> score.(v) <- neg_infinity);
          true
      | Top g ->
          let _, same = top g in
          same && h.Flat_heap.size.(g) = List.length model.(g)
      | Take g ->
          let got, same = top g in
          Option.iter
            (fun (v, _, i) ->
              Flat_heap.remove h g i;
              model.(g) <- List.filter (fun (_, w) -> w <> v) model.(g))
            got;
          same && h.Flat_heap.size.(g) = List.length model.(g))
    ops

let prop_heap_matches_reference =
  QCheck.Test.make ~name:"flat heap tops = sorted-list reference" ~count:500
    QCheck.(
      list_of_size
        Gen.(int_range 1 80)
        (make
           Gen.(
             frequency
               [
                 (3, map (fun v -> Push v) (int_range 0 11));
                 ( 3,
                   map2 (fun v k -> Decay (v, k)) (int_range 0 11)
                     (int_range 0 3) );
                 (1, map (fun g -> Top g) (int_range 0 1));
                 (2, map (fun g -> Take g) (int_range 0 1));
               ])))
    heap_matches_reference

(* ------------------------------------------------------------------ *)
(* Set cover                                                          *)
(* ------------------------------------------------------------------ *)

let mk_cover ~n sets_costs =
  let sets = Array.of_list (List.map (fun (s, _) -> Bitset_ref.of_list n s) sets_costs) in
  let costs = Array.of_list (List.map snd sets_costs) in
  let payload = Array.init (Array.length sets) Fun.id in
  Cover_instance.make ~n_elements:n ~sets ~costs ~payload ()

let test_greedy_cover_simple () =
  (* classic: one big cheap set beats many small ones *)
  let inst =
    mk_cover ~n:4
      [ ([ 0; 1; 2; 3 ], 2.); ([ 0 ], 1.); ([ 1 ], 1.); ([ 2; 3 ], 1.) ]
  in
  let r = Set_cover.greedy inst in
  Alcotest.(check int) "one set" 1 (List.length r.Set_cover.chosen);
  Alcotest.(check bool) "covered all" true (Bitset.is_empty r.uncovered);
  Alcotest.(check (float 1e-9)) "cost" 2. r.total_cost

let test_greedy_cover_partial () =
  let inst = mk_cover ~n:3 [ ([ 0 ], 1.) ] in
  let r = Set_cover.greedy inst in
  Alcotest.(check (list int)) "uncoverable left" [ 1; 2 ]
    (Bitset.to_list r.Set_cover.uncovered)

let test_greedy_cover_universe () =
  (* restricting the universe ignores other elements *)
  let inst = mk_cover ~n:4 [ ([ 0; 1 ], 1.); ([ 2 ], 5.) ] in
  let universe = Bitset_ref.of_list 4 [ 0; 1 ] in
  let r = Set_cover.greedy ~universe inst in
  Alcotest.(check bool) "covered" true (Bitset.is_empty r.Set_cover.uncovered);
  Alcotest.(check (float 1e-9)) "only cheap set" 1. r.total_cost

let test_exact_cover_beats_greedy_trap () =
  (* a greedy trap: the best ratio ({0,1} at 2.0) leads greedy to a total
     of 1.9, but the whole-universe set costs only 1.6 *)
  let inst =
    mk_cover ~n:3
      [
        ([ 0; 1 ], 1.0);
        ([ 1; 2 ], 1.0);
        ([ 0; 1; 2 ], 1.6);
        ([ 2 ], 0.9);
        ([ 0 ], 0.9);
      ]
  in
  let g = Set_cover.greedy inst in
  let e = Option.get (Set_cover.exact inst) in
  Alcotest.(check (float 1e-9)) "exact 1.6" 1.6 e.Set_cover.cost;
  Alcotest.(check (float 1e-9)) "greedy 1.9" 1.9 g.total_cost;
  Alcotest.(check bool) "proved" true e.proved_optimal

let test_exact_cover_truncation () =
  (* node_limit 1 on the greedy-trap instance: the search must be cut off
     before it can prove anything, keeping the greedy incumbent *)
  let inst =
    mk_cover ~n:3
      [ ([ 0; 1 ], 1.0); ([ 1; 2 ], 1.0); ([ 0; 1; 2 ], 1.6); ([ 2 ], 0.9);
        ([ 0 ], 0.9) ]
  in
  match Set_cover.exact ~node_limit:1 inst with
  | None -> Alcotest.fail "coverable instance"
  | Some r ->
      Alcotest.(check bool) "not proved" false r.Set_cover.proved_optimal;
      (* the incumbent is still a valid cover (the greedy one, cost 1.9) *)
      let covered = Bitset.create 3 in
      List.iter
        (fun j -> Bitset_ref.union_inplace covered (Cover_instance.set inst j))
        r.Set_cover.sets;
      Alcotest.(check int) "covers" 3 (Bitset.cardinal covered)

let test_exact_cover_infeasible () =
  let inst = mk_cover ~n:3 [ ([ 0 ], 1.) ] in
  Alcotest.(check bool) "no cover" true (Set_cover.exact inst = None)

let gen_cover_instance =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* m = int_range 1 8 in
    let* sets =
      list_repeat m
        (let* members = list_size (int_range 1 n) (int_range 0 (n - 1)) in
         let* cost = float_range 0.1 5. in
         return (members, cost))
    in
    (* guarantee coverability with one universal set *)
    let universal = (List.init n Fun.id, 6.) in
    return (n, universal :: sets))

let arb_cover =
  QCheck.make
    ~print:(fun (n, sets) ->
      Fmt.str "n=%d sets=%a" n
        Fmt.(list ~sep:semi (pair (Dump.list int) float))
        sets)
    gen_cover_instance

let prop_greedy_within_ln_bound =
  QCheck.Test.make ~name:"greedy cover within (ln n + 1) of exact" ~count:150
    arb_cover (fun (n, sets) ->
      let inst = mk_cover ~n sets in
      let g = Set_cover.greedy inst in
      let e = Option.get (Set_cover.exact inst) in
      g.Set_cover.total_cost
      <= (e.Set_cover.cost *. (log (float_of_int n) +. 1.)) +. 1e-9)

let prop_exact_never_worse =
  QCheck.Test.make ~name:"exact cover <= greedy cover" ~count:150 arb_cover
    (fun (n, sets) ->
      let inst = mk_cover ~n sets in
      let g = Set_cover.greedy inst in
      let e = Option.get (Set_cover.exact inst) in
      e.Set_cover.cost <= g.Set_cover.total_cost +. 1e-9)

let test_layered_simple () =
  (* disjoint sets: layering must take them all, at exactly their cost *)
  let inst = mk_cover ~n:4 [ ([ 0; 1 ], 1.); ([ 2; 3 ], 2.) ] in
  let r = Set_cover.layered inst in
  Alcotest.(check bool) "covers" true (Bitset.is_empty r.Set_cover.uncovered);
  Alcotest.(check (float 1e-9)) "cost" 3. r.Set_cover.total_cost

let test_max_frequency () =
  let inst = mk_cover ~n:3 [ ([ 0; 1 ], 1.); ([ 1; 2 ], 1.); ([ 1 ], 1.) ] in
  Alcotest.(check int) "element 1 in 3 sets" 3 (Set_cover.max_frequency inst)

let test_lp_rounding_simple () =
  let inst =
    mk_cover ~n:4 [ ([ 0; 1 ], 1.); ([ 2; 3 ], 2.); ([ 0; 1; 2; 3 ], 10.) ]
  in
  match Set_cover.lp_rounding inst with
  | None -> Alcotest.fail "LP failed"
  | Some r ->
      Alcotest.(check bool) "covers" true (Bitset.is_empty r.Set_cover.uncovered);
      Alcotest.(check bool) "avoids the overpriced set" true
        (r.Set_cover.total_cost <= 3. +. 1e-6)

let prop_layered_is_f_approx =
  QCheck.Test.make ~name:"layering within f of exact and covers everything"
    ~count:150 arb_cover (fun (n, sets) ->
      let inst = mk_cover ~n sets in
      let f = Set_cover.max_frequency inst in
      let l = Set_cover.layered inst in
      let e = Option.get (Set_cover.exact inst) in
      Bitset.is_empty l.Set_cover.uncovered
      && l.Set_cover.total_cost
         <= (float_of_int f *. e.Set_cover.cost) +. 1e-6)

let prop_lp_rounding_is_f_approx =
  QCheck.Test.make ~name:"LP rounding within f of exact and covers everything"
    ~count:100 arb_cover (fun (n, sets) ->
      let inst = mk_cover ~n sets in
      let f = Set_cover.max_frequency inst in
      match Set_cover.lp_rounding inst with
      | None -> false
      | Some r ->
          let e = Option.get (Set_cover.exact inst) in
          Bitset.is_empty r.Set_cover.uncovered
          && r.Set_cover.total_cost
             <= (float_of_int f *. e.Set_cover.cost) +. 1e-6)

let prop_exact_is_cover =
  QCheck.Test.make ~name:"exact result covers the universe" ~count:150
    arb_cover (fun (n, sets) ->
      let inst = mk_cover ~n sets in
      let e = Option.get (Set_cover.exact inst) in
      let covered = Bitset.create n in
      List.iter
        (fun j -> Bitset_ref.union_inplace covered (Cover_instance.set inst j))
        e.Set_cover.sets;
      Bitset.cardinal covered = n)

(* The reference for [Set_cover.greedy]: rescan every set each step and
   take the best ratio, the lower set index on exact ties. *)
let rescan_cover inst =
  let x' = Cover_instance.coverable inst in
  let rec go acc =
    let best = ref (-1) and best_p = ref neg_infinity in
    for j = 0 to Cover_instance.n_sets inst - 1 do
      let gain = Bitset.inter_cardinal (Cover_instance.set inst j) x' in
      if gain > 0 then begin
        let p = float_of_int gain /. Cover_instance.cost inst j in
        if p > !best_p then begin
          best := j;
          best_p := p
        end
      end
    done;
    if !best < 0 then List.rev acc
    else begin
      let newly = Bitset.inter (Cover_instance.set inst !best) x' in
      Bitset.diff_inplace x' newly;
      go ((!best, newly) :: acc)
    end
  in
  go []

(* Costs from a small ladder and few elements, so exact ratio ties (and
   duplicate sets) are common. *)
let arb_tied_cover =
  QCheck.make
    ~print:(fun (n, sets) ->
      Fmt.str "n=%d sets=%a" n
        Fmt.(list ~sep:semi (pair (Dump.list int) float))
        sets)
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* m = int_range 1 10 in
      let* sets =
        list_repeat m
          (let* members = list_size (int_range 1 n) (int_range 0 (n - 1)) in
           let* cost = oneofl [ 0.5; 1.; 1.5; 2.; 3. ] in
           return (members, cost))
      in
      return (n, sets))

let prop_cover_greedy_eq_rescan =
  QCheck.Test.make ~name:"greedy cover = rescan with lower-index ties"
    ~count:300 arb_tied_cover (fun (n, sets) ->
      let inst = mk_cover ~n sets in
      let g = Set_cover.greedy inst in
      List.map
        (fun (s : Set_cover.selection) -> (s.set, Bitset.to_list s.newly))
        g.Set_cover.chosen
      = List.map (fun (j, nw) -> (j, Bitset.to_list nw)) (rescan_cover inst))

(* ------------------------------------------------------------------ *)
(* MCG                                                                *)
(* ------------------------------------------------------------------ *)

let mk_grouped ~n sets_costs_groups =
  let sets =
    Array.of_list (List.map (fun (s, _, _) -> Bitset_ref.of_list n s) sets_costs_groups)
  in
  let costs = Array.of_list (List.map (fun (_, c, _) -> c) sets_costs_groups) in
  let group_of =
    Array.of_list (List.map (fun (_, _, g) -> g) sets_costs_groups)
  in
  let payload = Array.init (Array.length sets) Fun.id in
  Cover_instance.make ~n_elements:n ~sets ~costs ~group_of ~payload ()

let test_mcg_respects_budgets () =
  let inst =
    mk_grouped ~n:4
      [ ([ 0; 1 ], 0.6, 0); ([ 2 ], 0.6, 0); ([ 3 ], 0.5, 1) ]
  in
  let r = Mcg.greedy inst ~budgets:[| 1.0; 1.0 |] () in
  Alcotest.(check bool) "within budgets" true
    (Mcg.within_budgets r ~budgets:[| 1.0; 1.0 |]);
  (* group 0 can afford only one of its sets after the split *)
  Alcotest.(check bool) "coverage at least 2" true (Mcg.coverage r >= 2)

let test_mcg_filters_oversized_sets () =
  (* a set costing more than its group budget is never chosen *)
  let inst = mk_grouped ~n:2 [ ([ 0; 1 ], 2.0, 0); ([ 0 ], 0.5, 0) ] in
  let r = Mcg.greedy inst ~budgets:[| 1.0 |] () in
  List.iter
    (fun (s : Mcg.selection) ->
      if s.set = 0 then Alcotest.fail "oversized set chosen")
    r.Mcg.kept;
  Alcotest.(check int) "covers 1" 1 (Mcg.coverage r)

let test_mcg_split_keeps_larger_half () =
  (* reproduce the paper's Fig. 2 trace at the MCG level: S4 kept, S2 (the
     budget violator) dropped *)
  let inst =
    mk_grouped ~n:5
      [
        ([ 0; 2 ], 1.0, 0) (* S2: a1 s1 @3 *);
        ([ 2 ], 0.75, 0) (* S3 *);
        ([ 1; 3; 4 ], 0.75, 0) (* S4 *);
        ([ 1 ], 0.5, 0) (* S1: a1 s2 @6 *);
        ([ 2 ], 0.6, 1) (* S5 *);
        ([ 3 ], 0.6, 1) (* S6 *);
        ([ 3; 4 ], 1.0, 1) (* S7 *);
      ]
  in
  let r = Mcg.greedy inst ~budgets:[| 1.0; 1.0 |] () in
  Alcotest.(check int) "covers 3" 3 (Mcg.coverage r);
  Alcotest.(check (list int)) "covered = {1,3,4}" [ 1; 3; 4 ]
    (Bitset.to_list r.Mcg.covered)

let gen_grouped_instance =
  QCheck.Gen.(
    let* n = int_range 1 10 in
    let* n_groups = int_range 1 4 in
    let* m = int_range 1 10 in
    let* sets =
      list_repeat m
        (let* members = list_size (int_range 1 n) (int_range 0 (n - 1)) in
         let* cost = float_range 0.1 1.0 in
         let* g = int_range 0 (n_groups - 1) in
         return (members, cost, g))
    in
    let* budget = float_range 0.5 2.0 in
    return (n, n_groups, sets, budget))

let arb_grouped = QCheck.make gen_grouped_instance

let prop_mcg_budgets_hold =
  QCheck.Test.make ~name:"MCG split solution within every group budget"
    ~count:150 arb_grouped (fun (n, n_groups, sets, budget) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let budgets = Array.make (Cover_instance.n_groups inst) budget in
      ignore n_groups;
      let r = Mcg.greedy inst ~budgets () in
      Mcg.within_budgets r ~budgets)

let prop_mcg_attribution_disjoint =
  QCheck.Test.make ~name:"MCG attributions are disjoint and match coverage"
    ~count:150 arb_grouped (fun (n, _, sets, budget) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let budgets = Array.make (Cover_instance.n_groups inst) budget in
      let r = Mcg.greedy inst ~budgets () in
      let seen = Bitset.create n in
      let disjoint = ref true in
      List.iter
        (fun (s : Mcg.selection) ->
          if Bitset.inter_cardinal seen s.newly > 0 then disjoint := false;
          Bitset_ref.union_inplace seen s.newly)
        r.Mcg.kept;
      !disjoint && Bitset.equal seen r.Mcg.covered)

(* MCG greedy (before split) is a 4-approximation; after split, 8. Verify
   the 8 bound against brute force on tiny instances. *)
let prop_mcg_8_approx =
  QCheck.Test.make ~name:"MCG within 8x of brute-force optimum" ~count:80
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 1 6 in
         let* m = int_range 1 6 in
         let* sets =
           list_repeat m
             (let* members = list_size (int_range 1 n) (int_range 0 (n - 1)) in
              let* cost = float_range 0.1 1.0 in
              let* g = int_range 0 1 in
              return (members, cost, g))
         in
         return (n, sets)))
    (fun (n, sets) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let n_groups = Cover_instance.n_groups inst in
      let budgets = Array.make n_groups 1.0 in
      let r = Mcg.greedy inst ~budgets () in
      (* brute force over all subsets of sets *)
      let m = Cover_instance.n_sets inst in
      let best = ref 0 in
      for mask = 0 to (1 lsl m) - 1 do
        let cost_per_group = Array.make n_groups 0. in
        let covered = Bitset.create n in
        for j = 0 to m - 1 do
          if mask land (1 lsl j) <> 0 then begin
            let g = Cover_instance.group inst j in
            cost_per_group.(g) <- cost_per_group.(g) +. Cover_instance.cost inst j;
            Bitset_ref.union_inplace covered (Cover_instance.set inst j)
          end
        done;
        if Array.for_all2 (fun c b -> c <= b +. 1e-9) cost_per_group budgets
        then best := max !best (Bitset.cardinal covered)
      done;
      8 * Mcg.coverage r >= !best)

(* weighted coverage: same 8x bound against the weighted brute force *)
let prop_mcg_weighted_8_approx =
  QCheck.Test.make ~name:"weighted MCG within 8x of brute-force optimum"
    ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 1 6 in
         let* m = int_range 1 6 in
         let* sets =
           list_repeat m
             (let* members = list_size (int_range 1 n) (int_range 0 (n - 1)) in
              let* cost = float_range 0.1 1.0 in
              let* g = int_range 0 1 in
              return (members, cost, g))
         in
         let* weights = array_repeat n (float_range 0. 3.) in
         return (n, sets, weights)))
    (fun (n, sets, weights) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let n_groups = Cover_instance.n_groups inst in
      let budgets = Array.make n_groups 1.0 in
      let r = Mcg.greedy ~element_weights:weights inst ~budgets () in
      let weight_of set = Bitset.fold (fun e acc -> acc +. weights.(e)) set 0. in
      let m = Cover_instance.n_sets inst in
      let best = ref 0. in
      for mask = 0 to (1 lsl m) - 1 do
        let cost_per_group = Array.make n_groups 0. in
        let covered = Bitset.create n in
        for j = 0 to m - 1 do
          if mask land (1 lsl j) <> 0 then begin
            let g = Cover_instance.group inst j in
            cost_per_group.(g) <-
              cost_per_group.(g) +. Cover_instance.cost inst j;
            Bitset_ref.union_inplace covered (Cover_instance.set inst j)
          end
        done;
        if Array.for_all2 (fun c b -> c <= b +. 1e-9) cost_per_group budgets
        then best := Float.max !best (weight_of covered)
      done;
      (8. *. weight_of r.Mcg.covered) +. 1e-9 >= !best)

let prop_mcg_exact_matches_brute_force =
  QCheck.Test.make ~name:"exact MCG = brute force on tiny instances" ~count:60
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 1 6 in
         let* m = int_range 1 7 in
         let* sets =
           list_repeat m
             (let* members = list_size (int_range 1 n) (int_range 0 (n - 1)) in
              let* cost = float_range 0.1 1.0 in
              let* g = int_range 0 1 in
              return (members, cost, g))
         in
         let* budget = float_range 0.3 1.5 in
         return (n, sets, budget)))
    (fun (n, sets, budget) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let n_groups = Cover_instance.n_groups inst in
      let budgets = Array.make n_groups budget in
      let e = Mcg_exact.exact inst ~budgets () in
      (* brute force *)
      let m = Cover_instance.n_sets inst in
      let best = ref 0 in
      for mask = 0 to (1 lsl m) - 1 do
        let cost_per_group = Array.make n_groups 0. in
        let covered = Bitset.create n in
        for j = 0 to m - 1 do
          if mask land (1 lsl j) <> 0 then begin
            let g = Cover_instance.group inst j in
            cost_per_group.(g) <-
              cost_per_group.(g) +. Cover_instance.cost inst j;
            Bitset_ref.union_inplace covered (Cover_instance.set inst j)
          end
        done;
        if Array.for_all2 (fun c b -> c <= b +. 1e-9) cost_per_group budgets
        then best := max !best (Bitset.cardinal covered)
      done;
      e.Mcg_exact.proved_optimal
      && int_of_float (e.Mcg_exact.coverage_weight +. 0.5) = !best)

let prop_greedy_mcg_within_8_of_exact =
  QCheck.Test.make ~name:"greedy MCG within 8x of exact MCG" ~count:100
    arb_grouped (fun (n, _, sets, budget) ->
      QCheck.assume (sets <> []);
      QCheck.assume (List.length sets <= 10);
      let inst = mk_grouped ~n sets in
      let budgets = Array.make (Cover_instance.n_groups inst) budget in
      let g = Mcg.greedy inst ~budgets () in
      let e = Mcg_exact.exact inst ~budgets () in
      float_of_int (8 * Mcg.coverage g) +. 1e-9 >= e.Mcg_exact.coverage_weight)

let test_mcg_weighted_validation () =
  let inst = mk_grouped ~n:2 [ ([ 0; 1 ], 0.5, 0) ] in
  (try
     ignore
       (Mcg.greedy ~element_weights:[| 1. |] inst ~budgets:[| 1. |] ());
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ());
  try
    ignore
      (Mcg.greedy ~element_weights:[| 1.; -1. |] inst ~budgets:[| 1. |] ());
    Alcotest.fail "expected negativity failure"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* SCG                                                                *)
(* ------------------------------------------------------------------ *)

(* The best feasible probe of the default grid over one shard, if any. *)
let scg_best inst =
  let universe = Cover_instance.coverable inst in
  match
    Scg.solve_grid [| (inst, universe) |]
      ~grid:(Scg_ref.default_grid ~universe inst)
  with
  | [] -> None
  | best :: _ -> Some best

let same_selections a b =
  List.length a = List.length b
  && List.for_all2
       (fun (s : Mcg.selection) (s' : Mcg.selection) ->
         s.set = s'.set && Bitset.equal s.newly s'.newly)
       a b

let ids_of sels =
  Array.of_list (List.map (fun (s : Mcg.selection) -> s.set) sels)

(* A probe's set ids replayed in order against the universe: each with
   what it newly covers. *)
let replayed inst ids =
  let x' = Cover_instance.coverable inst in
  Array.to_list
    (Array.map
       (fun j ->
         let newly = Bitset.inter (Cover_instance.set inst j) x' in
         Bitset.diff_inplace x' newly;
         { Mcg.set = j; newly })
       ids)

let test_scg_feasible_run () =
  let inst =
    mk_grouped ~n:4
      [ ([ 0; 1 ], 0.4, 0); ([ 2 ], 0.3, 0); ([ 3 ], 0.3, 1) ]
  in
  match scg_best inst with
  | None -> Alcotest.fail "expected feasible"
  | Some r ->
      Alcotest.(check bool) "feasible" true r.Scg.feasible;
      let covered = Bitset.create 4 in
      List.iter
        (fun (s : Mcg.selection) -> Bitset_ref.union_inplace covered s.newly)
        (replayed inst r.Scg.selections.(0));
      Alcotest.(check int) "all covered" 4 (Bitset.cardinal covered)

let test_scg_infeasible () =
  (* element 1 in no set: infeasible when the universe demands it,
     feasible when the universe is the coverable elements *)
  let inst = mk_grouped ~n:2 [ ([ 0 ], 0.4, 0) ] in
  let feasible universe =
    Scg.solve_grid [| (inst, universe) |] ~grid:[ 1.0 ] <> []
  in
  Alcotest.(check bool) "explicit universe infeasible" false
    (feasible (Bitset.full 2));
  Alcotest.(check bool) "coverable universe feasible" true
    (feasible (Cover_instance.coverable inst));
  Alcotest.(check bool) "reference agrees" false
    (Scg_ref.solve_for inst ~bstar:1.0 ~universe:(Bitset.full 2) ())
      .Scg_ref.feasible

let test_scg_max_rounds_bound () =
  Alcotest.(check int) "log_{8/7} 100 + 1" 36 (Scg.max_rounds_for 100);
  Alcotest.(check int) "n=1" 1 (Scg.max_rounds_for 1)

let test_scg_grid_points () =
  Alcotest.(check (list (float 0.))) "one guess" [ 1. ]
    (Scg.grid_points ~n_guesses:1 0.3);
  Alcotest.(check (list (float 0.))) "two guesses" [ 0.25; 1. ]
    (Scg.grid_points ~n_guesses:2 0.25);
  Alcotest.check_raises "no guess"
    (Invalid_argument "Scg.grid_points: n_guesses < 1") (fun () ->
      ignore (Scg.grid_points ~n_guesses:0 0.3));
  for n_guesses = 1 to 24 do
    List.iter
      (fun b ->
        if Float.is_nan b || b <= 0. || b > 1. then
          Alcotest.failf "n_guesses=%d: guess %h outside (0, 1]" n_guesses b)
      (Scg.grid_points ~n_guesses 0.01)
  done

let prop_scg_selections_disjoint_and_cover =
  QCheck.Test.make ~name:"SCG rounds attribute disjointly" ~count:100
    arb_grouped (fun (n, _, sets, _) ->
      QCheck.assume (sets <> []);
      (* add a universal set so the instance is coverable *)
      let sets = (List.init n Fun.id, 1.0, 0) :: sets in
      let inst = mk_grouped ~n sets in
      match scg_best inst with
      | None -> QCheck.assume_fail ()
      | Some r ->
          (* the ids replayed = the reference run's per-round
             attributions at the same guess *)
          let sels = replayed inst r.Scg.selections.(0) in
          let seen = Bitset.create n in
          List.iter
            (fun (s : Mcg.selection) -> Bitset_ref.union_inplace seen s.newly)
            sels;
          same_selections sels
            (Scg_ref.selections (Scg_ref.solve_for inst ~bstar:r.Scg.bstar ()))
          && ((not r.Scg.feasible) || Bitset.cardinal seen = n))

(* The reference the greedy is proven against: a full rescan of every
   admissible set of every eligible group each round (the lower set index
   wins exact score ties within a group), the same fold across groups
   (highest group first, near ties to the least-spent group) and the same
   H1/H2 split. O(rounds * sets), no heaps, no bounds. *)
let eager_greedy ?(mode = `Soft) ?element_weights inst ~budgets ~universe =
  let n_groups = Cover_instance.n_groups inst in
  let x0 = Bitset.inter universe (Cover_instance.coverable inst) in
  let x' = Bitset.copy x0 in
  let gain j =
    let s = Cover_instance.set inst j in
    match element_weights with
    | None -> float_of_int (Bitset.inter_cardinal s x')
    | Some w -> Bitset.fold (fun e acc -> acc +. w.(e)) (Bitset.inter s x') 0.
  in
  let spent = Array.make n_groups 0. in
  let selectable j =
    let g = Cover_instance.group inst j and c = Cover_instance.cost inst j in
    c <= budgets.(g) +. 1e-12
    && spent.(g) < budgets.(g) -. 1e-12
    && (mode = `Soft || c <= budgets.(g) -. spent.(g) +. 1e-12)
  in
  let raw = ref [] in
  let continue = ref true in
  while !continue && not (Bitset.is_empty x') do
    let best = Array.make n_groups None in
    for j = 0 to Cover_instance.n_sets inst - 1 do
      if selectable j then begin
        let gn = gain j in
        if gn > 0. then begin
          let p = gn /. Cover_instance.cost inst j in
          let g = Cover_instance.group inst j in
          match best.(g) with
          | Some (_, q) when q >= p -> ()
          | _ -> best.(g) <- Some (j, p)
        end
      end
    done;
    let pick = ref None in
    for g = n_groups - 1 downto 0 do
      match (best.(g), !pick) with
      | None, _ -> ()
      | Some (j, p), None -> pick := Some (g, j, p)
      | Some (j, p), Some (g', _, p') ->
          if
            p > p' +. 1e-12
            || (p >= p' -. 1e-12 && spent.(g) < spent.(g') -. 1e-12)
          then pick := Some (g, j, p)
    done;
    match !pick with
    | None -> continue := false
    | Some (g, j, _) ->
        spent.(g) <- spent.(g) +. Cover_instance.cost inst j;
        raw := j :: !raw;
        Bitset.diff_inplace x' (Cover_instance.set inst j)
  done;
  let raw_order = List.rev !raw in
  (* H1/H2: tag each selection by whether it pushed its group past the
     budget, replay both halves against x0, keep the heavier *)
  let spent = Array.make n_groups 0. in
  let over =
    List.map
      (fun j ->
        let g = Cover_instance.group inst j in
        spent.(g) <- spent.(g) +. Cover_instance.cost inst j;
        spent.(g) > budgets.(g) +. 1e-12)
      raw_order
  in
  let replay half =
    let x = Bitset.copy x0 in
    let sels =
      List.concat
        (List.map2
           (fun j o ->
             if o <> half then []
             else begin
               let newly = Bitset.inter (Cover_instance.set inst j) x in
               Bitset.diff_inplace x newly;
               [ { Mcg.set = j; newly } ]
             end)
           raw_order over)
    in
    let cov = Bitset.diff x0 x in
    let w =
      match element_weights with
      | None -> float_of_int (Bitset.cardinal cov)
      | Some w -> Bitset.fold (fun e acc -> acc +. w.(e)) cov 0.
    in
    (sels, cov, w)
  in
  let h1, cov1, w1 = replay false and h2, cov2, w2 = replay true in
  let kept, covered = if w1 >= w2 then (h1, cov1) else (h2, cov2) in
  let group_cost = Array.make n_groups 0. in
  List.iter
    (fun (s : Mcg.selection) ->
      let g = Cover_instance.group inst s.set in
      group_cost.(g) <- group_cost.(g) +. Cover_instance.cost inst s.set)
    kept;
  { Mcg.kept; raw_order; covered; group_cost }

let same_mcg_result (a : Mcg.result) (b : Mcg.result) =
  a.Mcg.raw_order = b.Mcg.raw_order
  && List.length a.Mcg.kept = List.length b.Mcg.kept
  && List.for_all2
       (fun (s : Mcg.selection) (s' : Mcg.selection) ->
         s.set = s'.set && Bitset.equal s.newly s'.newly)
       a.Mcg.kept b.Mcg.kept
  && Bitset.equal a.Mcg.covered b.Mcg.covered
  && Array.for_all2 Float.equal a.Mcg.group_cost b.Mcg.group_cost

(* The bound-skipping greedy must reproduce the eager rescan exactly —
   same selection sequence, same split, same coverage — weighted and
   not, in both budget modes. *)
let prop_mcg_greedy_eq_eager =
  QCheck.Test.make ~name:"MCG greedy = eager rescan" ~count:200
    (QCheck.pair arb_grouped QCheck.bool)
    (fun ((n, _, sets, budget), hard) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let budgets = Array.make (Cover_instance.n_groups inst) budget in
      let mode = if hard then `Hard else `Soft in
      let weights = Array.init n (fun e -> float_of_int ((e * 7 mod 5) + 1)) in
      let universe = Cover_instance.coverable inst in
      let check element_weights =
        same_mcg_result
          (Mcg.greedy ~mode ?element_weights inst ~budgets ())
          (eager_greedy ~mode ?element_weights inst ~budgets ~universe)
      in
      check None && check (Some weights))

(* Driver probes: every field of every shard. *)
let same_scg_result (a : Scg.result) (b : Scg.result) =
  Float.equal a.Scg.bstar b.Scg.bstar
  && a.Scg.feasible = b.Scg.feasible
  && Array.length a.Scg.group_cost = Array.length b.Scg.group_cost
  && Array.for_all2 (Array.for_all2 Float.equal) a.Scg.group_cost
       b.Scg.group_cost
  && Array.for_all2 ( = ) a.Scg.selections b.Scg.selections

let same_grid_results a b =
  List.length a = List.length b && List.for_all2 same_scg_result a b

(* Reference runs: every field, raw orders included. *)
let same_ref_result (a : Scg_ref.result) (b : Scg_ref.result) =
  Float.equal a.Scg_ref.bstar b.Scg_ref.bstar
  && a.Scg_ref.feasible = b.Scg_ref.feasible
  && Array.for_all2 Float.equal a.Scg_ref.group_cost b.Scg_ref.group_cost
  && same_selections (Scg_ref.selections a) (Scg_ref.selections b)
  && List.length a.Scg_ref.rounds = List.length b.Scg_ref.rounds
  && List.for_all2
       (fun (ra : Mcg.result) (rb : Mcg.result) ->
         ra.Mcg.raw_order = rb.Mcg.raw_order
         && Bitset.equal ra.Mcg.covered rb.Mcg.covered)
       a.Scg_ref.rounds b.Scg_ref.rounds

(* The grid driver over one shard, [sets], and over two: [sets] and a
   copy of it at [scale] times the cost, which binds at fewer guesses
   and so replays at the probes where the first shard re-solves. With
   the reference runs on the one instance and on the two shards'
   disjoint union (the copy's elements, sets and groups after the
   first's), projected back onto the shards. *)
type grid_case = {
  one : (int Cover_instance.t * Bitset.t) array;
  two : (int Cover_instance.t * Bitset.t) array;
  union : int Cover_instance.t;
  project : Scg_ref.result -> Scg.result;
}

let with_universe inst = (inst, Cover_instance.coverable inst)

let grid_case ?(scale = 0.05) ~n sets =
  let a = mk_grouped ~n sets in
  let copy = List.map (fun (m, c, g) -> (m, c *. scale, g)) sets in
  let ga = Cover_instance.n_groups a and sa = Cover_instance.n_sets a in
  let union =
    mk_grouped ~n:(2 * n)
      (sets @ List.map (fun (m, c, g) -> (List.map (( + ) n) m, c, g + ga)) copy)
  in
  let project (r : Scg_ref.result) =
    let ids = ids_of (Scg_ref.selections r) in
    let gc = r.Scg_ref.group_cost in
    {
      Scg.bstar = r.Scg_ref.bstar;
      feasible = r.Scg_ref.feasible;
      selections =
        [|
          Array.of_seq (Seq.filter (fun j -> j < sa) (Array.to_seq ids));
          Array.of_seq
            (Seq.filter_map
               (fun j -> if j >= sa then Some (j - sa) else None)
               (Array.to_seq ids));
        |];
      group_cost =
        [| Array.sub gc 0 ga; Array.sub gc ga (Array.length gc - ga) |];
    }
  in
  {
    one = [| with_universe a |];
    two = [| with_universe a; with_universe (mk_grouped ~n copy) |];
    union;
    project;
  }

let of_ref (r : Scg_ref.result) =
  {
    Scg.bstar = r.Scg_ref.bstar;
    feasible = r.Scg_ref.feasible;
    selections = [| ids_of (Scg_ref.selections r) |];
    group_cost = [| r.Scg_ref.group_cost |];
  }

(* [solve_grid] with probe reuse = the from-scratch reference grid, on
   one shard and on two. *)
let grid_matches_reference ~mode c grid =
  let inst, _ = c.one.(0) in
  same_grid_results
    (List.map of_ref (Scg_ref.exhaustive ~mode inst grid))
    (Scg.solve_grid ~mode c.one ~grid)
  && same_grid_results
       (List.map c.project (Scg_ref.exhaustive ~mode c.union grid))
       (Scg.solve_grid ~mode c.two ~grid)

(* the [fanout] contract: any evaluator that returns results in
   submission order — here one that forces the thunks in reverse — is
   indistinguishable from the sequential default, on one shard and on
   two *)
let prop_scg_fanout_order_independent =
  QCheck.Test.make ~name:"SCG grid fanout: reverse evaluation = sequential"
    ~count:100 arb_grouped (fun (n, _, sets, _) ->
      QCheck.assume (sets <> []);
      let sets = (List.init n Fun.id, 1.0, 0) :: sets in
      let c = grid_case ~n sets in
      let grid = Scg_ref.default_grid ~n_guesses:6 (fst c.one.(0)) in
      let reverse_fanout thunks =
        List.rev_map (fun f -> f ()) thunks |> List.rev
      in
      List.for_all
        (fun shards ->
          same_grid_results
            (Scg.solve_grid shards ~grid)
            (Scg.solve_grid ~fanout:reverse_fanout shards ~grid))
        [ c.one; c.two ])

(* [Scg_ref.solve_for] with every round re-run from scratch by the
   eager rescan, over the same shrinking remaining set. *)
let eager_scg ~mode inst ~bstar =
  let budgets = Array.make (Cover_instance.n_groups inst) bstar in
  let remaining = Cover_instance.coverable inst in
  let group_cost = Array.make (Cover_instance.n_groups inst) 0. in
  let rec go k acc =
    if k = 0 || Bitset.is_empty remaining then List.rev acc
    else
      let r = eager_greedy ~mode inst ~budgets ~universe:remaining in
      if Bitset.is_empty r.Mcg.covered then List.rev acc
      else begin
        Array.iteri
          (fun g c -> group_cost.(g) <- group_cost.(g) +. c)
          r.Mcg.group_cost;
        Bitset.diff_inplace remaining r.Mcg.covered;
        go (k - 1) (r :: acc)
      end
  in
  let k = Scg.max_rounds_for (Bitset.cardinal remaining) in
  let rounds = go k [] in
  { Scg_ref.bstar; rounds; feasible = Bitset.is_empty remaining; group_cost }

(* The SCG session (cross-round bound persistence, DESIGN.md §4.12) must
   reproduce per-round eager rescans exactly — raw orders included —
   whether or not an arena backs its planes. *)
let prop_scg_session_eq_eager =
  QCheck.Test.make ~name:"SCG session rounds = eager rounds" ~count:100
    (QCheck.pair arb_grouped QCheck.bool)
    (fun ((n, _, sets, _), hard) ->
      QCheck.assume (sets <> []);
      let sets = (List.init n Fun.id, 1.0, 0) :: sets in
      let inst = mk_grouped ~n sets in
      let mode = if hard then `Hard else `Soft in
      let arena = Arena.create () in
      let grid = Scg_ref.default_grid ~n_guesses:4 inst in
      List.for_all
        (fun bstar ->
          let eg = eager_scg ~mode inst ~bstar in
          let lz = Scg_ref.solve_for ~mode ~arena inst ~bstar () in
          let lz' = Scg_ref.solve_for ~mode inst ~bstar () in
          same_ref_result lz eg && same_ref_result lz' eg)
        grid)

(* The rounds [Scg_ref.solve_for] runs, on a visible session. *)
let session_rounds session inst =
  let remaining = Cover_instance.coverable inst in
  let rec go k acc =
    if k = 0 || Bitset.is_empty remaining then List.rev acc
    else
      let r = Mcg.session_round session ~remaining in
      if Bitset.is_empty r.Mcg.covered then List.rev (r :: acc)
      else begin
        Bitset.diff_inplace remaining r.Mcg.covered;
        go (k - 1) (r :: acc)
      end
  in
  go (Scg.max_rounds_for (Bitset.cardinal remaining)) []

let uniform inst b = Array.make (Cover_instance.n_groups inst) b

(* The witness of a from-scratch session at [bstar]. *)
let session_witness_at ~mode inst ~bstar =
  let session = Mcg.session ~mode inst ~budgets:(uniform inst bstar) in
  ignore (session_rounds session inst);
  Mcg.session_witness session

(* B* probe reuse is exact: on grids whose points straddle every set
   cost and the top probe's reuse bound (max of witness and max cost) by
   a few ulps to a few margins, repeat points and sometimes sit above
   1, [solve_grid] returns exactly the from-scratch runs, every field
   compared, in both modes, on one shard and on two. Scaling the costs
   down moves the bound below most of the default grid, so most guesses
   are reused. *)
let prop_scg_grid_reuse_exact =
  QCheck.Test.make ~name:"SCG grid with probe reuse = from-scratch grid"
    ~count:300
    (QCheck.quad arb_grouped QCheck.bool QCheck.bool
       (QCheck.oneofl [ 0.05; 0.3; 1.0 ]))
    (fun ((n, _, sets, _), hard, above_one, scale) ->
      QCheck.assume (sets <> []);
      let sets =
        List.map (fun (m, c, g) -> (m, c *. scale, g))
          ((List.init n Fun.id, 1.0, 0) :: sets)
      in
      let c = grid_case ~n sets in
      let inst, _ = c.one.(0) in
      let mode = if hard then `Hard else `Soft in
      let base = Scg_ref.default_grid ~n_guesses:6 inst in
      let b_top = if above_one then 1.5 else 1.0 in
      let bound =
        Float.max
          (session_witness_at ~mode inst ~bstar:b_top)
          (Cover_instance.max_cost inst)
      in
      let straddle x =
        [ x -. 1e-12; x; x +. 1e-12; x +. 0.5e-9; x +. 1e-9; x +. 2e-9 ]
      in
      let costs =
        List.init (Cover_instance.n_sets inst) (Cover_instance.cost inst)
      in
      let grid =
        List.filter
          (fun b -> b > 0. && b <= b_top)
          ((b_top :: base) @ straddle bound
          @ List.concat_map straddle costs
          @ [ b_top; List.hd base ])
      in
      grid_matches_reference ~mode c grid)

let c_resumed_picks = Wlan_obs.Counters.make "mcg.resumed_picks"

(* Prefix resumption is exact: a session at [b] resumed from the top
   session's first round runs every round exactly as a fresh session at
   [b] does, and replays exactly the picks whose running witness clears
   [b] by 1e-9. The guesses straddle each recorded witness and every set
   cost by a few ulps to a few margins, in both modes; costs scaled to
   1e-12 put whole runs inside the margin. *)
let prop_resumed_probe_exact =
  QCheck.Test.make ~name:"resumed probe = from-scratch probe" ~count:300
    (QCheck.quad arb_grouped QCheck.bool QCheck.bool
       (QCheck.oneofl [ `Scaled 1e-12; `Scaled 0.3; `Scaled 1.0; `Tied ]))
    (fun ((n, _, sets, _), hard, above_one, costs) ->
      QCheck.assume (sets <> []);
      let cost i c =
        match costs with
        | `Scaled k -> c *. k
        | `Tied ->
            Float.max 0.25 (Float.round (c *. 4.) /. 4.)
            *. (1. +. [| 0.; 0.8e-12; 1.5e-12 |].(i mod 3))
      in
      let sets =
        List.mapi (fun i (m, c, g) -> (m, cost i c, g))
          ((List.init n Fun.id, 1.0, 0) :: sets)
      in
      let inst = mk_grouped ~n sets in
      let mode = if hard then `Hard else `Soft in
      let b_top = if above_one then 1.5 else 1.0 in
      let top = Mcg.session ~mode inst ~budgets:(uniform inst b_top) in
      ignore (session_rounds top inst);
      let first = Option.get (Mcg.first_round top) in
      let witnesses = Mcg.witnesses first in
      let straddle x =
        [ x -. 1e-12; x; x +. 1e-12; x +. 0.5e-9; x +. 1e-9; x +. 2e-9 ]
      in
      let grid =
        List.filter
          (fun b -> b > 0. && b <= b_top)
          (List.concat_map straddle (Array.to_list witnesses)
          @ List.init (Cover_instance.n_sets inst) (Cover_instance.cost inst))
      in
      List.for_all
        (fun b ->
          let fresh =
            session_rounds (Mcg.session ~mode inst ~budgets:(uniform inst b)) inst
          in
          let s = Mcg.session ~mode inst ~budgets:(uniform inst b) in
          Mcg.resume s first;
          Wlan_obs.Counters.reset ();
          Wlan_obs.Counters.set_enabled true;
          let resumed =
            Fun.protect
              ~finally:(fun () -> Wlan_obs.Counters.set_enabled false)
              (fun () -> session_rounds s inst)
          in
          let prefix =
            Array.fold_left
              (fun acc w -> if w <= b -. 1e-9 then acc + 1 else acc)
              0 witnesses
          in
          Wlan_obs.Counters.value c_resumed_picks = prefix
          && List.length fresh = List.length resumed
          && List.for_all2 same_mcg_result fresh resumed)
        grid)

(* [resume] refuses what it cannot resume exactly. *)
let test_resume_guards () =
  let inst = mk_grouped ~n:2 [ ([ 0 ], 0.5, 0); ([ 1 ], 0.5, 1) ] in
  let top = Mcg.session inst ~budgets:[| 1.; 1. |] in
  Alcotest.(check bool) "no first round yet" true
    (Option.is_none (Mcg.first_round top));
  ignore (session_rounds top inst);
  let first = Option.get (Mcg.first_round top) in
  let raises label f =
    match f () with
    | () -> Alcotest.failf "%s: resumed" label
    | exception Invalid_argument _ -> ()
  in
  raises "larger budget" (fun () ->
      Mcg.resume (Mcg.session inst ~budgets:[| 1.; 1.5 |]) first);
  raises "other mode" (fun () ->
      Mcg.resume (Mcg.session ~mode:`Hard inst ~budgets:[| 1.; 1. |]) first);
  raises "other instance" (fun () ->
      Mcg.resume
        (Mcg.session
           (mk_grouped ~n:2 [ ([ 0 ], 0.5, 0); ([ 1 ], 0.5, 1) ])
           ~budgets:[| 1.; 1. |])
        first);
  raises "started session" (fun () -> Mcg.resume top first);
  let s = Mcg.session inst ~budgets:[| 0.7; 0.7 |] in
  Mcg.resume s first;
  raises "other remaining set" (fun () ->
      ignore (Mcg.session_round s ~remaining:(Bitset_ref.of_list 2 [ 0 ])))

(* Near-ties at the 1e-12 scale of MCG's tie-break: prio(S1) beats
   prio(S2) by more than 1e-12, prio(S0) sits within 1e-12 of both, and
   the less-loaded-group rule lets S0 displace S1 but not S2. So whether
   group 1 still competes decides the second pick: S0 when it does, S2
   when it does not. *)
let near_tie_costs ~gain =
  ( gain /. (4. +. 0.8e-12) (* S0, group 0 *),
    gain /. (4. +. 1.5e-12) (* S1, group 1 *) )

(* [grid_matches_reference] on one named case. *)
let check_grid_exact label ~mode ~n sets grid =
  if not (grid_matches_reference ~mode (grid_case ~n sets) grid) then
    Alcotest.failf "%s: reused probe differs from a fresh solve" label

(* Group 1 first picks A1 (six elements), then S0, S1 and S2 compete
   for the last two. *)
let near_tie_sets ~a1_cost =
  let c0, c1 = near_tie_costs ~gain:2. in
  [
    ([ 6; 7 ], c0, 0);
    ([ 0; 1; 2; 3; 4; 5 ], a1_cost, 1);
    ([ 6; 7 ], c1, 1);
    ([ 6; 7 ], 0.5, 2);
  ]

(* A1 costs the whole reuse bound (it is the max cost). At B* = 2 group
   1 stays eligible and S0 wins the second pick; at B* = 1 it is
   exhausted and S2 wins — a guess at the bound itself must not reuse
   the top probe (the 1e-9 margin). *)
let test_scg_reuse_margin () =
  let sets = near_tie_sets ~a1_cost:1.0 in
  check_grid_exact "guess at the bound" ~mode:`Soft ~n:8 sets [ 1.0; 2.0 ];
  check_grid_exact "guesses around the bound" ~mode:`Soft ~n:8 sets
    [ 1.0 -. 1e-12; 1.0 +. 1e-12; 1.0 +. 2e-9; 2.0 ]

(* In [`Hard] mode S1 passes its fit check at B* = 2 (0.6 + 0.5 <= 2)
   but is never picked, so no spend exceeds 0.6; at B* = 0.7 it no
   longer fits, group 1 offers no candidate and S2 wins. The passing
   fit check must count in the witness. *)
let test_scg_reuse_fit_witness () =
  check_grid_exact "unfit candidate" ~mode:`Hard ~n:8
    (near_tie_sets ~a1_cost:0.6)
    [ 0.7; 2.0 ]

(* S1 (cost ~1) is never picked at B* = 2, so no spend reaches it (the
   witness is A1's 0.6), yet as group 1's candidate it lets S0 win the
   second pick. At B* = 0.7 it is inadmissible and S2 wins: reuse must
   also wait for the largest set cost (the max-cost guard). *)
let test_scg_reuse_max_cost_guard () =
  let c0, c1 = near_tie_costs ~gain:4. in
  check_grid_exact "inadmissible candidate" ~mode:`Soft ~n:10
    [
      ([ 6; 7 ], c0 /. 2., 0);
      ([ 0; 1; 2; 3; 4; 5 ], 0.6, 1);
      ([ 6; 7; 8; 9 ], c1, 1);
      ([ 6; 7 ], 0.5, 2);
      ([ 8; 9 ], 0.5, 2);
    ]
    [ 0.7; 2.0 ]

(* [reuse_grid] probes the top guess alone, with no record; every
   guess it does not reuse is probed with the top's record, and results
   come back in grid order, the top's own slots through [reuse] too. *)
let test_reuse_grid_shares_top () =
  let calls = ref [] in
  let probe top b =
    calls := (top, b) :: !calls;
    fun () -> (b, if Option.is_none top then 0.6 else -1.)
  in
  let results =
    Scg.reuse_grid
      ~fanout:(List.map (fun f -> f ()))
      ~bound:(Float.max 0.3) ~probe
      ~reuse:(fun top b -> top +. (10. *. b))
      [ 0.2; 0.7; 1.0; 0.5; 1.0 ]
  in
  Alcotest.(check (list (float 0.))) "grid order"
    [ 0.2; 1.0 +. 7.; 1.0 +. 10.; 0.5; 1.0 +. 10. ]
    results;
  Alcotest.(check (list (pair (option (float 0.)) (float 0.))))
    "the top alone first, then the rest with its record"
    [ (None, 1.0); (Some 0.6, 0.2); (Some 0.6, 0.5) ]
    (List.rev !calls)

(* The sharded drivers take both halves from [session_round_split]; the
   heavier half must be exactly what [session_round] keeps, round after
   round of a shrinking remaining set. *)
let prop_session_split_matches_round =
  QCheck.Test.make ~name:"session_round_split heavier half = session_round"
    ~count:100 (QCheck.pair arb_grouped QCheck.bool)
    (fun ((n, _, sets, budget), hard) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let budgets = Array.make (Cover_instance.n_groups inst) budget in
      let mode = if hard then `Hard else `Soft in
      let a = Mcg.session ~mode inst ~budgets in
      let b = Mcg.session ~mode inst ~budgets in
      let remaining = Cover_instance.coverable inst in
      let rec go k =
        k = 0 || Bitset.is_empty remaining
        ||
        let r = Mcg.session_round a ~remaining in
        let sp = Mcg.session_round_split b ~remaining in
        let kept, cov =
          if sp.Mcg.w1 >= sp.Mcg.w2 then (sp.Mcg.h1, sp.Mcg.cov1)
          else (sp.Mcg.h2, sp.Mcg.cov2)
        in
        kept = List.map (fun (s : Mcg.selection) -> s.set) r.Mcg.kept
        && Bitset.equal cov r.Mcg.covered
        && (Bitset.is_empty cov
           || (Bitset.diff_inplace remaining cov;
               go (k - 1)))
      in
      go 4)

let same_split (a : Mcg.split) (b : Mcg.split) =
  a.Mcg.h1 = b.Mcg.h1 && a.Mcg.h2 = b.Mcg.h2
  && Bitset.equal a.Mcg.cov1 b.Mcg.cov1
  && Bitset.equal a.Mcg.cov2 b.Mcg.cov2
  && Float.equal a.Mcg.w1 b.Mcg.w1
  && Float.equal a.Mcg.w2 b.Mcg.w2

(* The sharded driver's per-shard B* reuse rests on this: a session
   round's split depends only on the remaining set (and the budgets),
   not on the stored bound plane. Here one session repeats every round
   and a second never does, while an arbitrary keep sequence — as a
   global H1/H2 decision across shards would — keeps H1, keeps H2 or
   (with the kept half empty) leaves the remaining set unchanged. The
   repeat, and the session that never repeated, return the identical
   split. *)
let prop_session_repeat_same_split =
  QCheck.Test.make
    ~name:"session round on an unchanged remaining set = the same split"
    ~count:150
    (QCheck.triple arb_grouped QCheck.bool
       (QCheck.list_of_size (QCheck.Gen.int_range 1 6) QCheck.bool))
    (fun ((n, _, sets, budget), hard, keeps) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let budgets = Array.make (Cover_instance.n_groups inst) budget in
      let mode = if hard then `Hard else `Soft in
      let repeating = Mcg.session ~mode inst ~budgets in
      let fresh = Mcg.session ~mode inst ~budgets in
      let remaining = Cover_instance.coverable inst in
      List.for_all
        (fun keep_h1 ->
          let sp = Mcg.session_round_split repeating ~remaining in
          let again = Mcg.session_round_split repeating ~remaining in
          let once = Mcg.session_round_split fresh ~remaining in
          Bitset.diff_inplace remaining (if keep_h1 then sp.Mcg.cov1 else sp.Mcg.cov2);
          same_split sp again && same_split sp once)
        keeps)

(* An arena is pure scratch reuse: running every mode with a shared
   (repeatedly reused) arena must be bit-identical to running without
   one. *)
let prop_arena_never_changes_results =
  QCheck.Test.make ~name:"arena-backed solves = fresh-allocation solves"
    ~count:100 arb_grouped
    (fun (n, _, sets, budget) ->
      QCheck.assume (sets <> []);
      let inst = mk_grouped ~n sets in
      let budgets = Array.make (Cover_instance.n_groups inst) budget in
      let arena = Arena.create () in
      List.for_all
        (fun mode ->
          same_mcg_result
            (Mcg.greedy ~mode ~arena inst ~budgets ())
            (Mcg.greedy ~mode inst ~budgets ()))
        [ `Soft; `Hard ]
      &&
      let a = Set_cover.greedy ~arena inst in
      let b = Set_cover.greedy inst in
      List.length a.Set_cover.chosen = List.length b.Set_cover.chosen
      && List.for_all2
           (fun (s : Set_cover.selection) (s' : Set_cover.selection) ->
             s.set = s'.set && Bitset.equal s.newly s'.newly)
           a.Set_cover.chosen b.Set_cover.chosen
      && Bitset.equal a.Set_cover.covered b.Set_cover.covered
      && Float.equal a.Set_cover.total_cost b.Set_cover.total_cost)

(* ------------------------------------------------------------------ *)
(* Subset sum / makespan                                              *)
(* ------------------------------------------------------------------ *)

let test_subset_sum_hit () =
  match Subset_sum.solve [ 3; 34; 4; 12; 5; 2 ] 9 with
  | None -> Alcotest.fail "expected solution"
  | Some idxs ->
      let nums = [| 3; 34; 4; 12; 5; 2 |] in
      let total = List.fold_left (fun acc i -> acc + nums.(i)) 0 idxs in
      Alcotest.(check int) "sums to target" 9 total

let test_subset_sum_miss () =
  Alcotest.(check bool) "no subset" true
    (Subset_sum.solve [ 2; 4; 6 ] 5 = None);
  Alcotest.(check bool) "negative target" true (Subset_sum.solve [ 1 ] (-1) = None)

let test_subset_sum_best_at_most () =
  Alcotest.(check int) "best <= 11" 11
    (Subset_sum.best_at_most [ 3; 34; 4; 12; 5; 2 ] 11);
  Alcotest.(check int) "best <= 1" 0 (Subset_sum.best_at_most [ 2; 4 ] 1);
  Alcotest.(check int) "empty" 0 (Subset_sum.best_at_most [] 10)

let prop_subset_sum_dp_sound =
  QCheck.Test.make ~name:"subset-sum witness sums to target" ~count:200
    QCheck.(
      pair (list_of_size Gen.(int_range 0 10) (int_range 0 20)) (int_range 0 60))
    (fun (nums, target) ->
      match Subset_sum.solve nums target with
      | None -> true
      | Some idxs ->
          let arr = Array.of_list nums in
          List.fold_left (fun acc i -> acc + arr.(i)) 0 idxs = target)

let test_makespan_lpt () =
  (* {3,3,2,2,2} on 2 machines: LPT lands on 7, the optimum is 6 *)
  let s = Makespan.lpt ~machines:2 ~jobs:[ 3.; 3.; 2.; 2.; 2. ] in
  Alcotest.(check (float 1e-9)) "lpt makespan" 7. s.Makespan.makespan

let test_makespan_exact_simple () =
  (* {3,3,2,2,2} on 2 machines: optimal 6 = {3,3} vs {2,2,2} *)
  let s = Makespan.exact ~machines:2 ~jobs:[ 3.; 3.; 2.; 2.; 2. ] in
  Alcotest.(check (float 1e-9)) "optimal" 6. s.Makespan.makespan

let test_makespan_exact_beats_lpt () =
  (* classic LPT-suboptimal instance: jobs {5,5,4,4,3,3,3} on 3 machines
     LPT gives 10? optimal is 9 *)
  let jobs = [ 5.; 5.; 4.; 4.; 3.; 3.; 3. ] in
  let e = Makespan.exact ~machines:3 ~jobs in
  Alcotest.(check (float 1e-9)) "optimal 9" 9. e.Makespan.makespan

let prop_makespan_exact_le_lpt =
  QCheck.Test.make ~name:"exact makespan <= LPT makespan" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (float_range 0.5 10.))
        (int_range 1 4))
    (fun (jobs, machines) ->
      let l = Makespan.lpt ~machines ~jobs in
      let e = Makespan.exact ~machines ~jobs in
      e.Makespan.makespan <= l.Makespan.makespan +. 1e-9)

let prop_lpt_within_4_3 =
  QCheck.Test.make ~name:"LPT within 4/3 of optimal" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 8) (float_range 0.5 10.))
        (int_range 1 4))
    (fun (jobs, machines) ->
      let l = Makespan.lpt ~machines ~jobs in
      let e = Makespan.exact ~machines ~jobs in
      l.Makespan.makespan
      <= (e.Makespan.makespan *. ((4. /. 3.) +. 1e-9)) +. 1e-9)

(* The kernel-equivalence battery: each flat kernel against its eager or
   from-scratch reference. CI reruns it under QCHECK_SEED 1-20. *)
let differential_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_heap_matches_reference;
      prop_cover_greedy_eq_rescan;
      prop_mcg_greedy_eq_eager;
      prop_scg_session_eq_eager;
      prop_scg_grid_reuse_exact;
      prop_resumed_probe_exact;
    ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bitset_cardinal_matches_list;
      prop_bitset_inter_cardinal;
      prop_heap_sorts;
      prop_greedy_within_ln_bound;
      prop_exact_never_worse;
      prop_exact_is_cover;
      prop_layered_is_f_approx;
      prop_lp_rounding_is_f_approx;
      prop_mcg_budgets_hold;
      prop_mcg_attribution_disjoint;
      prop_mcg_8_approx;
      prop_mcg_weighted_8_approx;
      prop_mcg_exact_matches_brute_force;
      prop_greedy_mcg_within_8_of_exact;
      prop_scg_selections_disjoint_and_cover;
      prop_scg_fanout_order_independent;
      prop_session_split_matches_round;
      prop_session_repeat_same_split;
      prop_arena_never_changes_results;
      prop_subset_sum_dp_sound;
      prop_makespan_exact_le_lpt;
      prop_lpt_within_4_3;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "optkit"
    [
      ( "bitset",
        [
          tc "basic" test_bitset_basic;
          tc "zero capacity" test_bitset_zero_capacity;
          tc "fold order" test_bitset_fold_order;
          tc "word boundaries" test_bitset_word_boundaries;
          tc "set ops" test_bitset_set_ops;
          tc "in-place ops" test_bitset_inplace;
          tc "bounds checks" test_bitset_bounds;
        ] );
      ( "flat_heap",
        [
          tc "pop order" test_heap_pop_order;
          tc "stale-top re-insertion" test_heap_stale_reinsertion;
          tc "drops dead entries" test_heap_drops_dead_entries;
          tc "group capacity" test_heap_capacity;
          tc "equal priorities" test_heap_equal_priorities;
          tc "top stays in place" test_heap_top_in_place;
          tc "remove anywhere" test_heap_remove_anywhere;
        ] );
      ( "set_cover",
        [
          tc "greedy simple" test_greedy_cover_simple;
          tc "greedy partial" test_greedy_cover_partial;
          tc "greedy universe" test_greedy_cover_universe;
          tc "exact beats greedy trap" test_exact_cover_beats_greedy_trap;
          tc "exact infeasible" test_exact_cover_infeasible;
          tc "exact truncation" test_exact_cover_truncation;
          tc "layered simple" test_layered_simple;
          tc "max frequency" test_max_frequency;
          tc "lp rounding simple" test_lp_rounding_simple;
        ] );
      ( "mcg",
        [
          tc "respects budgets" test_mcg_respects_budgets;
          tc "filters oversized sets" test_mcg_filters_oversized_sets;
          tc "split keeps larger half" test_mcg_split_keeps_larger_half;
          tc "weighted validation" test_mcg_weighted_validation;
        ] );
      ( "scg",
        [
          tc "feasible run" test_scg_feasible_run;
          tc "infeasible" test_scg_infeasible;
          tc "round bound" test_scg_max_rounds_bound;
          tc "grid points" test_scg_grid_points;
          tc "reuse needs the margin" test_scg_reuse_margin;
          tc "reuse needs the max-cost guard" test_scg_reuse_max_cost_guard;
          tc "reuse needs the fit witness" test_scg_reuse_fit_witness;
          tc "reuse grid shares the top record" test_reuse_grid_shares_top;
          tc "resume guards" test_resume_guards;
        ] );
      ( "subset_sum",
        [
          tc "hit" test_subset_sum_hit;
          tc "miss" test_subset_sum_miss;
          tc "best at most" test_subset_sum_best_at_most;
        ] );
      ( "makespan",
        [
          tc "lpt" test_makespan_lpt;
          tc "exact simple" test_makespan_exact_simple;
          tc "exact beats lpt" test_makespan_exact_beats_lpt;
        ] );
      ("properties", qcheck_cases);
      ("differential", differential_cases);
    ]
