(* Positive fixture for ambient-rng-in-task: seeding from the outside
   world inside a pooled task, and capturing one shared Random.State
   across tasks. A tap of the global Random stream is no-ambient-rng's,
   in a task or not (ambient_rng.ml). *)

let self_seeded pool =
  Harness.Pool.run pool [ (fun () -> Random.State.make_self_init ()) ]

let shared_state pool n =
  let st = Random.State.make [| 42 |] in
  Harness.Pool.run pool
    [ (fun () -> Random.State.int st n); (fun () -> Random.State.int st n) ]
