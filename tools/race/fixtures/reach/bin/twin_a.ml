(* Same alias name, same position as in twin_b.ml, another target:
   the two idents share a stamp, so aliases are resolved per unit. *)
module T = Reach_lib.Twin_x

let a = T.x_only
