(* Test-only reads of the field-reachability corpus. *)

let tested (r : Reach_lib.Field.r) = r.tested + r.allowed
let deep (s : Reach_lib.Field.Sub.s) = s.deep
