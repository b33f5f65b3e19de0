(* Test-only readers: they sort an export as test-only, never shipped. *)

let t = Reach_lib.Api.tested 1
let o = Reach_lib.Api.oracle 1 = Reach_lib.Api.shipped 1
let d = Reach_lib.Api.Sub.deep

(* Racy on purpose: units under test/ are readers only, so no
   domain-safety rule reports this. *)
let racy pool = Harness.Pool.run pool [ (fun () -> Random.int 10) ]
