(* Negative fixture: idiomatic code every rule must accept — pure
   closures over immutable data, read-only sharing of a numeric plane,
   a per-task split RNG, the commutative counter API, a sorted
   (deterministic) float merge, an epsilon float comparison and a
   sorted Hashtbl histogram. *)

let evals = Wlan_obs.Counters.make "race_fixture.evals"

let pure pool xs = Harness.Pool.run pool (List.map (fun x () -> x * x) xs)

let readonly_plane pool (plane : float array) idxs =
  Harness.Pool.run pool (List.map (fun i () -> plane.(i) *. 2.) idxs)

let split_rng pool seeds =
  Harness.Pool.run pool
    (List.map
       (fun seed () ->
         let st = Random.State.make [| seed |] in
         Random.State.int st 1000)
       seeds)

let counted pool xs =
  Harness.Pool.run pool
    (List.map
       (fun x () ->
         Wlan_obs.Counters.incr evals;
         x + 1)
       xs)

let sorted_total (tbl : (int, float) Hashtbl.t) =
  let bindings = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.fold_left (fun acc (_, v) -> acc +. v) 0. (List.sort compare bindings)

let merge_in_submission_order pool xs =
  List.fold_left ( +. ) 0.
    (Harness.Pool.run pool (List.map (fun x () -> float_of_int x) xs))

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let pick st xs = List.nth xs (Random.State.int st (List.length xs))

let histogram xs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun x ->
      Hashtbl.replace tbl x (1 + Option.value ~default:0 (Hashtbl.find_opt tbl x)))
    xs;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
