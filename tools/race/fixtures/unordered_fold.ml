(* Positive fixture for unordered-fold: Hashtbl.fold/iter that let
   unspecified bucket order escape in a list, versus the sorted idiom. *)

let bad_escape tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let bad_iter_ref tbl =
  let acc = ref [] in
  Hashtbl.iter (fun k v -> acc := (k, v) :: !acc) tbl;
  !acc

let ok_sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let ok_scalar tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0

let ok_iter_sum tbl =
  let total = ref 0 in
  Hashtbl.iter (fun _ v -> total := !total + v) tbl;
  !total
