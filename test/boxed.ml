(* The boxed reference of the distributed rule, shared by the test
   suites (the lockstep batteries of test_flat.ml, test_churn.ml and
   test_sim.ml, and the Nash checks): the local rule written out with
   lists and fresh arrays over eager load scans, the eager helpers it
   reads, and the loop of rounds around it — no dirty set, no tracker,
   no scratch planes.

   [decide p assoc ~loads ~objective u] is user [u]'s decision: [Some ap]
   to (re)associate, [None] to stay; [loads] must be the current per-AP
   loads. It folds the feasible neighbors in ascending order (a neighbor
   is feasible when it serves [u] or its join load fits its budget
   within 1e-12), keeps the first of eps-equal objectives unless a later
   one has a signal stronger by more than 1e-12, lets an unserved user
   join the best outright and moves a served one only on a strict
   improvement over staying.

   [run] rounds over every user, each decision from [decide] against
   loads recomputed by the eager scan.

   - [Sequential] visits users in ascending order and applies each move
     at once.
   - [Simultaneous] decides the round on one snapshot, applies it, and
     stops on a revisited association.
   - [Locked] starts round [r] (from 0) at user [r mod n_users]. A user
     with an empty neighborhood or a locked neighbor AP sits the round
     out; otherwise it locks its neighborhood and decides on live state.
     A mover keeps its locks to the round's end, a stayer releases them.

   A round with no move converges. Mutates [assoc], which the outcome
   returns. *)

open Wlan_model
open Mcast_core

(* Load of one AP, read off the eager scan of every AP. *)
let ap_load p assoc ~ap = (Loads.ap_loads p assoc).(ap)

let load_if_leaves p (assoc : Association.t) ~user ~ap =
  let old = assoc.(user) in
  assoc.(user) <- Association.none;
  let l = ap_load p assoc ~ap in
  assoc.(user) <- old;
  l

(* Non-increasing copy of a load array: the load-vector order. *)
let sorted_load_vector loads =
  let v = Array.copy loads in
  Array.sort (fun a b -> Float.compare b a) v;
  v

(* Lexicographic comparison of non-increasing load vectors, decided at
   the first differing entry: equal within 1e-9, by sign otherwise. *)
let compare_load_vectors_eps (a : float array) (b : float array) =
  let n = Int.min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then Int.compare (Array.length a) (Array.length b)
    else
      let c = Float.compare a.(i) b.(i) in
      if c = 0 then go (i + 1)
      else if Float.abs (a.(i) -. b.(i)) <= 1e-9 then 0
      else c
  in
  go 0

let vec_lt a b = compare_load_vectors_eps a b < 0

let vec_approx_equal a b =
  Array.length a = Array.length b && compare_load_vectors_eps a b = 0

let decide p (assoc : Association.t) ~loads ~objective u =
  match Problem.neighbor_aps p u with
  | [] -> None
  | neighbors -> (
      let current = assoc.(u) in
      let if_joins a = Loads.load_if_joins p assoc ~user:u ~ap:a in
      (* hypothetical load of neighbor [b] if [u] moves to [new_ap] *)
      let hypothetical new_ap b =
        if b = new_ap then if_joins b
        else if b = current then load_if_leaves p assoc ~user:u ~ap:b
        else loads.(b)
      in
      (* the objective after a hypothetical move; the total load boxed in
         a 1-element array so both objectives compare as vectors *)
      let eval new_ap =
        match objective with
        | Distributed.Min_total_load ->
            [|
              List.fold_left
                (fun acc b -> acc +. hypothetical new_ap b)
                0. neighbors;
            |]
        | Distributed.Min_load_vector ->
            sorted_load_vector
              (Array.of_list (List.map (hypothetical new_ap) neighbors))
      in
      let feasible a =
        a = current || if_joins a <= Problem.ap_budget p a +. 1e-12
      in
      let scored =
        List.map (fun a -> (a, eval a)) (List.filter feasible neighbors)
      in
      match scored with
      | [] -> None
      | first :: rest ->
          (* best score; ties by stronger signal, then lower index *)
          let best_ap, best_v =
            List.fold_left
              (fun (ba, bv) (a, v) ->
                if vec_lt v bv then (a, v)
                else if
                  vec_approx_equal v bv
                  && Problem.signal p ~ap:a ~user:u
                     > Problem.signal p ~ap:ba ~user:u +. 1e-12
                then (a, v)
                else (ba, bv))
              first rest
          in
          if current = Association.none then Some best_ap
          else if best_ap <> current && vec_lt best_v (eval current) then
            Some best_ap
          else None)

let run ~max_rounds ~scheduler ~objective p assoc =
  let n_aps, n_users = Problem.dims p in
  let decide u = decide p assoc ~loads:(Loads.ap_loads p assoc) ~objective u in
  let rounds = ref 0 and moves = ref 0 in
  let converged = ref false and oscillated = ref false in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen (Array.to_list assoc) ();
  while (not !converged) && (not !oscillated) && !rounds < max_rounds do
    let origin = if n_users = 0 then 0 else !rounds mod n_users in
    incr rounds;
    let moved = ref false in
    let move u a =
      assoc.(u) <- a;
      incr moves;
      moved := true
    in
    (match scheduler with
    | Distributed.Sequential ->
        for u = 0 to n_users - 1 do
          Option.iter (move u) (decide u)
        done
    | Distributed.Simultaneous ->
        let ds =
          List.filter_map
            (fun u -> Option.map (fun a -> (u, a)) (decide u))
            (List.init n_users Fun.id)
        in
        List.iter (fun (u, a) -> move u a) ds;
        if ds <> [] then begin
          let key = Array.to_list assoc in
          if Hashtbl.mem seen key then oscillated := true
          else Hashtbl.replace seen key ()
        end
    | Distributed.Locked ->
        let locked = Array.make n_aps false in
        for i = 0 to n_users - 1 do
          let u = (i + origin) mod n_users in
          let ns = Problem.neighbor_aps p u in
          if ns <> [] && List.for_all (fun a -> not locked.(a)) ns then begin
            List.iter (fun a -> locked.(a) <- true) ns;
            match decide u with
            | None -> List.iter (fun a -> locked.(a) <- false) ns
            | Some a -> move u a
          end
        done);
    if not !moved then converged := true
  done;
  {
    Distributed.assoc;
    rounds = !rounds;
    moves = !moves;
    converged = !converged;
    oscillated = !oscillated;
  }
