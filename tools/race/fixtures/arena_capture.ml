(* Positive fixture for shared-mutable-escape: an arena, or a buffer
   acquired from one, captured by a closure shipped to the pool. Arena
   stands in for Optkit.Arena, with the same shape: a record of
   Hashtbls, so strongly mutable. A task-local arena is fine. *)

module Arena = struct
  type t = {
    f : (string, float array) Hashtbl.t;
    i : (string, int array) Hashtbl.t;
  }

  let create () = { f = Hashtbl.create 8; i = Hashtbl.create 8 }

  let acquire tbl make slot n =
    match Hashtbl.find_opt tbl slot with
    | Some a -> a
    | None ->
        let a = make n in
        Hashtbl.replace tbl slot a;
        a

  let floats t slot n = acquire t.f (fun n -> Array.make n 0.) slot n
  let ints t slot n = acquire t.i (fun n -> Array.make n 0) slot n
end

let bad_shared_across_pool pool jobs n =
  let scratch = Arena.create () in
  Harness.Pool.run pool
    (List.map
       (fun j () ->
         ignore (Arena.floats scratch "s" n);
         j)
       jobs)

let bad_arena_across_fanout pool p =
  let scratch = Arena.create () in
  let run ~fanout p = fanout [ (fun () -> p) ] in
  run
    ~fanout:(fun fs ->
      Harness.Pool.run pool
        (List.map
           (fun f () ->
             ignore (Arena.ints scratch "x" 4);
             f ())
           fs))
    p

let bad_buffer_across_pool pool jobs =
  let scratch = Arena.create () in
  let plane = Arena.floats scratch "plane" 8 in
  Harness.Pool.run pool (List.map (fun j () -> plane.(0) <- float_of_int j) jobs)

let ok_task_local_arena pool jobs n =
  Harness.Pool.run pool
    (List.map
       (fun j () ->
         let scratch = Arena.create () in
         ignore (Arena.floats scratch "s" n);
         j)
       jobs)

let ok_used_before_dispatch pool jobs =
  let scratch = Arena.create () in
  let warm = Arena.floats scratch "warm" 8 in
  warm.(0) <- 1.;
  Harness.Pool.run pool (List.map (fun j () -> j) jobs)
