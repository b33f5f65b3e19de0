(* Shipped callers of the optional-reachability corpus, one per pass
   shape. *)

module O = Reach_lib.Opt

let passed = O.by_bin ~l:1 ()
let omitted = O.unpassed ()
let tested = O.tested ()
let forwarded = O.forwarded () + O.forwarder ()
let computed = O.computed ?l:(List.nth_opt [ 1 ] 0) ()
let helper ?l () = O.by_helper ?l ()
let inside = O.inside ()
let apply (f : unit -> int) = f ()
let as_value = apply O.as_value
let listed = List.length O.listed
let kept = O.kept ()
let escaped = [ O.escaped ]
