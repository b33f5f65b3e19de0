(* Included whole by [bin/]: every export is read. *)

val included : int
