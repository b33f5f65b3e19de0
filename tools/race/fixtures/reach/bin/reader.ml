(* Shipped readers, one per shape the rule resolves. *)

let direct = Reach_lib.Api.shipped 1
let opened = Reach_lib.Api.(via_open + 1)

module P = Reach_lib.Api

let aliased = P.via_alias
let printed = Format.asprintf "%a" Reach_lib.Api.pp 7

include Reach_lib.Inc

module type S = sig
  val by_functor : int
end

module Make (X : S) = struct
  let v = X.by_functor
end

module Applied = Make (Reach_lib.Arg)

module type Q = sig
  val packed : int
end

let first_class = (module Reach_lib.Packed : Q)
