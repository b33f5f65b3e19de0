(* See twin_a.ml. *)
module T = Reach_lib.Twin_y

let b = T.y_only
