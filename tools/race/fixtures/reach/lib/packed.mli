(* Packed as a first-class module in [bin/]: every export is read. *)

val packed : int
