(* R4 fixture: shared mutable state captured by closures shipped to the
   domain pool. Parse-only — Pool here stands in for Harness.Pool. *)

let bad_counter pool jobs =
  let hits = ref 0 in
  Pool.run pool
    (List.map
       (fun j () ->
         incr hits;
         j)
       jobs)

let bad_table pool jobs =
  let seen = Hashtbl.create 16 in
  Pool.run pool (List.map (fun j () -> Hashtbl.replace seen j j) jobs)

let bad_buffer pool lines =
  let out = Buffer.create 64 in
  Harness.Pool.map (fun l -> Buffer.add_string out l) lines

let ok_atomic pool jobs =
  let hits = Atomic.make 0 in
  Pool.run pool
    (List.map
       (fun j () ->
         Atomic.incr hits;
         j)
       jobs)

let ok_presplit pool seeds = Pool.run pool (List.map (fun s () -> s * 2) seeds)

let ok_outside pool jobs =
  (* the ref is used before dispatch, never inside a shipped closure *)
  let n = ref 0 in
  n := List.length jobs;
  ignore !n;
  Pool.run pool (List.map (fun j () -> j) jobs)

(* the same hazard one layer up: a [~fanout], whoever takes it,
   typically wraps Pool.run, so its closures ship their thunks to
   worker domains too *)
let bad_fanout_counter run_parallel shards grid =
  let evals = ref 0 in
  Scg.solve_grid
    ~fanout:(fun fs ->
      run_parallel
        (List.map
           (fun f () ->
             incr evals;
             f ())
           fs))
    shards ~grid

let bad_bla_fanout run_parallel p =
  let best = Hashtbl.create 4 in
  Bla.run
    ~fanout:(fun fs ->
      run_parallel (List.map (fun f () -> Hashtbl.replace best 0 (f ())) fs))
    p

let ok_fanout_pool pool shards grid =
  Scg.solve_grid ~fanout:(Pool.run pool) shards ~grid

let ok_fanout_presplit pool p =
  (* mutable state used before dispatch only, never inside the fanout *)
  let n = ref 0 in
  n := 12;
  Bla.run_exn ~n_guesses:!n ~fanout:(Pool.run pool) p

let bad_shard_fanout run_parallel p =
  let log = Buffer.create 16 in
  Shard.solve_bla
    ~fanout:(fun fs ->
      run_parallel
        (List.map
           (fun f () ->
             Buffer.add_char log '.';
             f ())
           fs))
    p

let ok_shard_fanout pool plan p =
  Shard.solve_bla ~plan ~fanout:(Pool.run pool) p
