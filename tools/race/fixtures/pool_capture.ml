(* Positive fixture for shared-mutable-escape: shared mutable state
   captured by closures shipped to the domain pool, directly or through
   a ~fanout whose thunks run on the pool. Scg, Bla and Shard stand in
   for the solvers that take one. *)

module Scg = struct
  let solve_grid ~fanout shards ~grid =
    fanout (List.map (fun s () -> s + grid) shards)
end

module Bla = struct
  let run ?(n_guesses = 1) ~fanout p =
    fanout (List.init n_guesses (fun i () -> p + i))
end

module Shard = struct
  let solve_bla ?plan ~fanout p = fanout [ (fun () -> p) ]
end

let bad_counter pool jobs =
  let hits = ref 0 in
  Harness.Pool.run pool
    (List.map
       (fun j () ->
         incr hits;
         j)
       jobs)

let bad_table pool jobs =
  let seen = Hashtbl.create 16 in
  Harness.Pool.run pool (List.map (fun j () -> Hashtbl.replace seen j j) jobs)

let bad_buffer pool lines =
  let out = Buffer.create 64 in
  Harness.Pool.run pool (List.map (fun l () -> Buffer.add_string out l) lines)

let ok_atomic pool jobs =
  let hits = Atomic.make 0 in
  Harness.Pool.run pool
    (List.map
       (fun j () ->
         Atomic.incr hits;
         j)
       jobs)

let ok_presplit pool seeds =
  Harness.Pool.run pool (List.map (fun s () -> s * 2) seeds)

let ok_outside pool jobs =
  (* the ref is used before dispatch, never inside a shipped closure *)
  let n = ref 0 in
  n := List.length jobs;
  ignore !n;
  Harness.Pool.run pool (List.map (fun j () -> j) jobs)

(* the same hazard one layer up: a [~fanout] that runs its thunks on
   the pool *)
let bad_fanout_counter pool shards grid =
  let evals = ref 0 in
  Scg.solve_grid
    ~fanout:(fun fs ->
      Harness.Pool.run pool
        (List.map
           (fun f () ->
             incr evals;
             f ())
           fs))
    shards ~grid

let bad_bla_fanout pool p =
  let best = Hashtbl.create 4 in
  Bla.run
    ~fanout:(fun fs ->
      Harness.Pool.run pool
        (List.map (fun f () -> Hashtbl.replace best 0 (f ())) fs))
    p

let ok_fanout_pool pool shards grid =
  Scg.solve_grid ~fanout:(Harness.Pool.run pool) shards ~grid

let ok_fanout_presplit pool p =
  (* mutable state used before dispatch only, never inside the fanout *)
  let n = ref 0 in
  n := 12;
  Bla.run ~n_guesses:!n ~fanout:(Harness.Pool.run pool) p

let bad_shard_fanout pool p =
  let log = Buffer.create 16 in
  Shard.solve_bla
    ~fanout:(fun fs ->
      Harness.Pool.run pool
        (List.map
           (fun f () ->
             Buffer.add_char log '.';
             f ())
           fs))
    p

let ok_shard_fanout pool plan p =
  Shard.solve_bla ~plan ~fanout:(Harness.Pool.run pool) p
