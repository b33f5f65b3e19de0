(** Weighted Set Cover: the greedy [CostSC] algorithm (Fig. 8 of the paper,
    after Vazirani) and an exact branch-and-bound solver used to measure
    optimality gaps on small instances. *)

(** One greedy pick: the chosen set index and the elements it newly covered
    (the attribution needed to map covers back to user→AP associations). *)
type selection = { set : int; newly : Bitset.t }

type result = {
  chosen : selection list;  (** in selection order *)
  covered : Bitset.t;
  uncovered : Bitset.t;  (** elements no set contains, or left by budget *)
  total_cost : float;
}

let cost_of_sets inst sets =
  List.fold_left (fun acc j -> acc +. Cover_instance.cost inst j) 0. sets

(* set [j]'s members still in [x'], moved out of it *)
let take inst x' j =
  let newly = Bitset.create (Bitset.capacity x') in
  ignore
    (Bitset.move_in ~src:x' ~dst:newly inst.Cover_instance.members
       inst.Cover_instance.lo.(j) inst.Cover_instance.hi.(j));
  newly

(* |S_j ∩ x'| *)
let gain inst x' j =
  Bitset.count_in x' inst.Cover_instance.members inst.Cover_instance.lo.(j)
    inst.Cover_instance.hi.(j)

(** Greedy weighted set cover: repeatedly pick the set maximizing
    [|S ∩ X'| / c(S)] (lazy-greedy heap), until everything coverable is
    covered. [(ln n + 1)]-approximation (Theorem 6).

    The heap is a single-group {!Flat_heap} bank, so exactly equal ratios
    pick the lower set index; [arena] reuses its planes across solves. *)
let greedy ?arena ?(universe : Bitset.t option) inst =
  let n = Cover_instance.n_elements inst in
  let { Cover_instance.members; lo; hi; costs; _ } = inst in
  let n_sets = Array.length costs in
  let x' =
    match universe with
    | Some u -> Bitset.inter u inst.Cover_instance.coverable
    | None -> Cover_instance.coverable inst
  in
  let target = Bitset.copy x' in
  let heap =
    Flat_heap.make ?arena ~slot:"set_cover.heap"
      ~capacities:[| n_sets |] ()
  in
  let cell = heap.Flat_heap.cell in
  for j = 0 to n_sets - 1 do
    let gain = Bitset.count_in x' members lo.(j) hi.(j) in
    if gain > 0 then begin
      cell.(0) <- float_of_int gain /. costs.(j);
      Flat_heap.push heap 0 j
    end
  done;
  let revalidate j =
    let gain = Bitset.count_in x' members lo.(j) hi.(j) in
    if gain = 0 then cell.(0) <- neg_infinity
    else cell.(0) <- float_of_int gain /. costs.(j)
  in
  let chosen = ref [] in
  let continue = ref true in
  while !continue && not (Bitset.is_empty x') do
    let j = Flat_heap.pop_max heap 0 ~revalidate in
    if j < 0 then continue := false
    else begin
      chosen := { set = j; newly = take inst x' j } :: !chosen
    end
  done;
  let chosen = List.rev !chosen in
  let covered = Bitset.diff target x' in
  let uncovered =
    match universe with
    | Some u -> Bitset.diff u covered
    | None -> Bitset.diff (Bitset.full n) covered
  in
  {
    chosen;
    covered;
    uncovered;
    total_cost = cost_of_sets inst (List.map (fun s -> s.set) chosen);
  }

(** {1 f-approximations}

    The paper remarks (§6.1) that besides greedy, "the layer algorithm,
    which is bounded by a constant, can also be used if for any user the
    number of APs that it can associate with is bounded by a constant" —
    i.e. the classic frequency-based approximations, where
    [f = max element frequency] (the most APs any one user can hear).
    Both are implemented here and cross-checked against the exact solver
    in the tests. *)

(** Maximum element frequency: how many sets the busiest element is in. *)
let max_frequency ?universe inst =
  let n = Cover_instance.n_elements inst in
  let freq = Array.make n 0 in
  let { Cover_instance.members; lo; hi; _ } = inst in
  for j = 0 to Cover_instance.n_sets inst - 1 do
    for i = lo.(j) to hi.(j) - 1 do
      freq.(members.(i)) <- freq.(members.(i)) + 1
    done
  done;
  match universe with
  | None -> Array.fold_left Int.max 0 freq
  | Some u -> Bitset.fold (fun e acc -> Int.max acc freq.(e)) u 0

(** Layering (Vazirani ch. 2): peel off "degree-weighted" cost layers.
    In each layer, compute every live set's cost-per-live-element, take the
    minimum [t], charge every set [t * |live elements|], and pick the sets
    whose cost is exhausted; repeat on what remains. An f-approximation.
    Only elements of [universe] (default: everything coverable) are
    covered; returns the picked sets with coverage attribution. *)
let layered ?universe inst =
  let x' =
    match universe with
    | Some u -> Bitset.inter u inst.Cover_instance.coverable
    | None -> Cover_instance.coverable inst
  in
  let target = Bitset.copy x' in
  let m = Cover_instance.n_sets inst in
  let residual = Array.init m (Cover_instance.cost inst) in
  let alive = Array.make m true in
  let chosen = ref [] in
  let continue = ref true in
  while !continue && not (Bitset.is_empty x') do
    (* cheapest residual cost per live element *)
    let t = ref infinity in
    for j = 0 to m - 1 do
      if alive.(j) then begin
        let k = gain inst x' j in
        if k > 0 then t := Float.min !t (residual.(j) /. float_of_int k)
      end
    done;
    if (!t = infinity) [@lint.allow float_eq] then continue := false
    else begin
      (* charge the layer; exhausted sets are picked *)
      let picked_this_layer = ref [] in
      for j = 0 to m - 1 do
        if alive.(j) then begin
          let k = gain inst x' j in
          if k > 0 then begin
            residual.(j) <- residual.(j) -. (!t *. float_of_int k);
            if residual.(j) <= 1e-12 then begin
              alive.(j) <- false;
              picked_this_layer := j :: !picked_this_layer
            end
          end
        end
      done;
      List.iter
        (fun j ->
          let newly = take inst x' j in
          if not (Bitset.is_empty newly) then
            chosen := { set = j; newly } :: !chosen)
        (List.rev !picked_this_layer)
    end
  done;
  let chosen = List.rev !chosen in
  let covered = Bitset.diff target x' in
  {
    chosen;
    covered;
    uncovered = Bitset.diff target covered;
    total_cost = cost_of_sets inst (List.map (fun s -> s.set) chosen);
  }

(** LP rounding: solve the fractional relaxation and keep every set with
    [x_j >= 1/f]. Also an f-approximation; exercises the {!Lp} stack on a
    problem with a known rounding guarantee. Intended for small instances
    (the LP is dense). *)
let lp_rounding ?universe inst =
  let x0 =
    match universe with
    | Some u -> Bitset.inter u inst.Cover_instance.coverable
    | None -> inst.Cover_instance.coverable
  in
  let m = Cover_instance.n_sets inst in
  let sets = Array.init m (Cover_instance.set inst) in
  let f = Int.max 1 (max_frequency ~universe:x0 inst) in
  let constraints =
    Bitset.fold
      (fun e acc ->
        let c = Array.make m 0. in
        for j = 0 to m - 1 do
          if Bitset.mem sets.(j) e then c.(j) <- 1.
        done;
        Lp.{ coeffs = c; cmp = Ge; rhs = 1. } :: acc)
      x0 []
  in
  let objective = Array.init m (Cover_instance.cost inst) in
  match
    Lp.solve
      {
        Lp.n_vars = m;
        maximize = false;
        objective;
        constraints = Array.of_list constraints;
      }
  with
  | Lp.Infeasible | Lp.Unbounded -> None
  | Lp.Optimal sol ->
      let threshold = (1. /. float_of_int f) -. 1e-9 in
      let x' = Bitset.copy x0 in
      let chosen = ref [] in
      for j = 0 to m - 1 do
        if sol.Lp.x.(j) >= threshold then begin
          let newly = take inst x' j in
          if not (Bitset.is_empty newly) then
            chosen := { set = j; newly } :: !chosen
        end
      done;
      let chosen = List.rev !chosen in
      let covered = Bitset.diff x0 x' in
      Some
        {
          chosen;
          covered;
          uncovered = Bitset.diff x0 covered;
          total_cost = cost_of_sets inst (List.map (fun s -> s.set) chosen);
        }

(** {1 Exact solver} *)

type exact_result = { sets : int list; cost : float; proved_optimal : bool }

(** Lower bound on the cost of covering [x']: charge every uncovered element
    its cheapest per-element share [min_{S ∋ e} c(S)/|S ∩ X'|]. *)
let lower_bound inst sets x' =
  let n = Cover_instance.n_elements inst in
  let best = Array.make n infinity in
  for j = 0 to Cover_instance.n_sets inst - 1 do
    let s = sets.(j) in
    let k = Bitset.inter_cardinal s x' in
    if k > 0 then begin
      let share = Cover_instance.cost inst j /. float_of_int k in
      Bitset.iter
        (fun e -> if Bitset.mem x' e then best.(e) <- Float.min best.(e) share)
        s
    end
  done;
  Bitset.fold
    (fun e acc ->
      if (best.(e) = infinity) [@lint.allow float_eq] then infinity
      else acc +. best.(e))
    x' 0.

(** Exact weighted set cover by branch and bound. Branches on an uncovered
    element with the fewest candidate sets; prunes with {!lower_bound} and
    the greedy incumbent. Returns [None] when some element of the universe is
    in no set. [node_limit] caps the search; if hit, the incumbent is
    returned with [proved_optimal = false]. *)
let exact ?(node_limit = 2_000_000) ?universe inst =
  let coverable = inst.Cover_instance.coverable in
  let x0 =
    match universe with
    | Some u -> Bitset.copy u
    | None -> Bitset.full (Cover_instance.n_elements inst)
  in
  if not (Bitset.subset x0 coverable) then None
  else begin
    let m = Cover_instance.n_sets inst in
    let sets = Array.init m (Cover_instance.set inst) in
    (* candidate sets per element, cheapest first *)
    let cands = Array.make (Cover_instance.n_elements inst) [] in
    for j = m - 1 downto 0 do
      Bitset.iter
        (fun e -> if Bitset.mem x0 e then cands.(e) <- j :: cands.(e))
        sets.(j)
    done;
    Array.iteri
      (fun e l ->
        cands.(e) <-
          List.sort
            (fun a b ->
              Float.compare (Cover_instance.cost inst a)
                (Cover_instance.cost inst b))
            l)
      cands;
    let g = greedy ?universe inst in
    let best_cost = ref g.total_cost in
    let best_sets = ref (List.map (fun s -> s.set) g.chosen) in
    let nodes = ref 0 in
    let truncated = ref false in
    let rec go x' picked cost =
      incr nodes;
      if !nodes > node_limit then truncated := true
      else if Bitset.is_empty x' then begin
        if cost < !best_cost -. 1e-12 then begin
          best_cost := cost;
          best_sets := picked
        end
      end
      else if cost +. lower_bound inst sets x' < !best_cost -. 1e-12 then begin
        (* branch on the uncovered element with fewest live candidates *)
        let pick = ref (-1) and pick_n = ref max_int in
        Bitset.iter
          (fun e ->
            let n_live =
              List.length
                (List.filter
                   (fun j -> Bitset.inter_cardinal sets.(j) x' > 0)
                   cands.(e))
            in
            if n_live < !pick_n then begin
              pick := e;
              pick_n := n_live
            end)
          x';
        let e = !pick in
        List.iter
          (fun j ->
            let s = sets.(j) in
            if Bitset.inter_cardinal s x' > 0 then begin
              let x2 = Bitset.diff x' s in
              go x2 (j :: picked) (cost +. Cover_instance.cost inst j)
            end)
          cands.(e)
      end
    in
    go (Bitset.copy x0) [] 0.;
    Some
      { sets = !best_sets; cost = !best_cost; proved_optimal = not !truncated }
  end
