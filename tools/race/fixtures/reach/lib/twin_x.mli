(* Read in [bin/twin_a.ml] through an alias named [T]. *)

val x_only : int
