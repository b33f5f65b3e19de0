(* Set literals and unions for the test references and checkers, over
   Bitset's public element API. *)

open Optkit

let of_list n l =
  let s = Bitset.create n in
  List.iter (Bitset.add s) l;
  s

let union_inplace a b = Bitset.iter (Bitset.add a) b

let union a b =
  let c = Bitset.copy a in
  union_inplace c b;
  c
