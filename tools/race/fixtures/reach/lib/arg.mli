(* Passed whole to a functor in [bin/]: every export is read. *)

val by_functor : int
