(* Read in [bin/twin_b.ml] through an alias also named [T]. *)

val y_only : int
