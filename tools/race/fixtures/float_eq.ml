(* Positive fixture for float-eq: structural comparison on float
   operands, found by type — through a field access or a Float.t —
   plus both suppression forms. *)

type event = { time : float; seq : int }

let bad_literal x = x = 3.14
let bad_arith a b = a +. b <> 1.0
let bad_call a = compare (float_of_int a) 0.5
let bad_sentinel x = x = infinity
let bad_module_fn a b = Float.max a b = 0.
let bad_field a b = a.time = b.time && a.seq < b.seq
let bad_float_t (a : Float.t) b = a == b

let ok_annotated baseline = (baseline = 0.) [@lint.allow float_eq]

let ok_comment_same_line baseline =
  baseline = 0. (* lint: allow float-eq *)

let ok_comment_prev_line baseline =
  (* lint: allow float_eq *)
  baseline = 0.

let ok_int a b = a = b
let ok_poly a b = compare a b
let ok_tolerant a b = Float.abs (a -. b) <= 1e-9
let ok_seq a b = a.seq = b.seq

(* a local [compare] is not the stdlib's structural one *)
let ok_shadowed (a : float) b =
  let compare x y = Float.compare x y in
  compare a b
