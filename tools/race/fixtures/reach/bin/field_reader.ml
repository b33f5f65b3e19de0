(* Shipped reads of the field-reachability corpus. *)

open Reach_lib

let shipped (r : Field.r) = r.shipped
let by_pattern (r : Field.r) = match r with { Field.by_pattern; _ } -> by_pattern
let kept (k : Field.k) = { k with Field.overridden = 0 }
let hidden (p : Field.p) = p.Field.hidden
let finished (b : Field.b) = ((Field.finish b).answer, b.Field.proved)
