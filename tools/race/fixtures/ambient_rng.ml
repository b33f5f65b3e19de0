(* Positive fixture for no-ambient-rng: ambient RNG taps are errors
   anywhere, in a pooled task or not; split Random.State is fine. *)

let bad_jitter () = Random.float 1.0

let bad_setup () =
  Random.self_init ();
  Random.int 10

let bad_indirect = Stdlib.Random.bool

(* one finding, under this rule only: ambient-rng-in-task leaves the
   tap to the tree-wide check *)
let bad_in_task pool n = Harness.Pool.run pool [ (fun () -> Random.int n) ]

let ok_split st = Random.State.float st 1.0

let ok_make seed tag i = Random.State.make [| seed; tag; i |]
