(* Tests for Harness.Pool: results come back in submission order no matter
   which domain ran what, the earliest-submitted failure is re-raised in
   the caller, jobs=1 spawns no domain, and a pool survives many batches
   with far more jobs than domains. *)

open Harness

let apply_seq fs = List.map (fun f -> f ()) fs

(* uneven per-job work so completion order differs from submission order
   whenever more than one domain drains the batch *)
let busy_then i =
  let acc = ref 0 in
  for k = 1 to (100 - (i mod 100)) * 500 do
    acc := !acc + k
  done;
  ignore !acc;
  i

let test_order jobs () =
  Pool.with_pool ~jobs @@ fun pool ->
  let fs = List.init 100 (fun i () -> busy_then i) in
  Alcotest.(check (list int))
    "submission order" (List.init 100 Fun.id) (Pool.run pool fs)

exception Boom of int

let test_first_exception jobs () =
  Pool.with_pool ~jobs @@ fun pool ->
  let fs =
    List.init 20 (fun i () -> if i = 3 || i = 7 then raise (Boom i) else i)
  in
  Alcotest.check_raises "earliest submitted failure wins" (Boom 3) (fun () ->
      ignore (Pool.run pool fs));
  (* a failed batch must not poison the pool *)
  Alcotest.(check (list int))
    "usable after a failed batch" [ 10; 11 ]
    (Pool.run pool [ (fun () -> 10); (fun () -> 11) ])

let test_sequential_spawns_no_domain () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "no worker domains" 0 (Pool.domain_count pool);
  Alcotest.(check (list int))
    "still runs jobs" [ 1; 2; 3 ]
    (Pool.run pool [ (fun () -> 1); (fun () -> 2); (fun () -> 3) ])

let test_domain_count () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check int) "jobs - 1 workers (caller participates)" 3
    (Pool.domain_count pool)

let test_more_jobs_than_domains () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let fs = List.init 500 (fun i () -> (i * i) - i) in
  Alcotest.(check (list int)) "all 500 jobs" (apply_seq fs) (Pool.run pool fs)

let test_empty_and_reuse () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  Alcotest.(check (list int)) "empty batch" [] (Pool.run pool []);
  for i = 1 to 5 do
    let fs = List.init (i * 13) (fun k () -> k + i) in
    Alcotest.(check (list int))
      (Fmt.str "batch %d" i)
      (apply_seq fs) (Pool.run pool fs)
  done

let test_shutdown () =
  let pool = Pool.with_pool ~jobs:2 Fun.id in
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run pool [ (fun () -> ()) ]))

(* ---------------- failure paths ----------------
   A failing batch must not lose in-flight work, wedge the pool, or leak
   worker domains. The runtime caps live domains (~128), so the leak
   tests simply cycle enough 4-job pools that a single unjoined worker
   per cycle would exhaust the cap and make Domain.spawn raise. *)

let test_failed_batch_runs_every_task () =
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let ran = Atomic.make 0 in
  let fs =
    List.init 40 (fun i () ->
        Atomic.incr ran;
        if i mod 13 = 3 then raise (Boom i) else i)
  in
  (* parallel path: exceptions are captured per task, so the failures at
     3, 16, 29 don't abandon the cursor — every task still executes *)
  Alcotest.check_raises "earliest failure re-raised" (Boom 3) (fun () ->
      ignore (Pool.run pool fs));
  Alcotest.(check int) "no in-flight task lost" 40 (Atomic.get ran)

let test_sequential_stops_at_first_failure () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let ran = Atomic.make 0 in
  let fs =
    List.init 20 (fun i () ->
        Atomic.incr ran;
        if i = 5 then raise (Boom 5) else i)
  in
  (* jobs=1 is plain List.map: the exception propagates before job 6
     starts — the documented sequential contract *)
  Alcotest.check_raises "failure propagates" (Boom 5) (fun () ->
      ignore (Pool.run pool fs));
  Alcotest.(check int) "tasks after the failure never started" 6
    (Atomic.get ran)

let test_failed_batches_leak_no_domains () =
  (* 80 cycles x 3 workers = 240 spawns, far past the domain cap: this
     only passes if shutdown joins every worker even after the batch
     failed *)
  for i = 1 to 80 do
    try
      Pool.with_pool ~jobs:4 @@ fun pool ->
      ignore
        (Pool.run pool
           (List.init 8 (fun k () -> if k = 2 then raise (Boom i) else k)))
    with Boom _ -> ()
  done

let test_with_pool_reraises_and_joins () =
  Alcotest.check_raises "callback exception propagates" (Boom 99) (fun () ->
      Pool.with_pool ~jobs:4 (fun _ -> raise (Boom 99)));
  (* the finally-shutdown joined the workers: 60 more failing cycles
     (180 spawns) stay under the domain cap only if it did *)
  for _ = 1 to 60 do
    try Pool.with_pool ~jobs:4 (fun _ -> raise (Boom 0)) with Boom _ -> ()
  done

let test_invalid_jobs () =
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      Pool.with_pool ~jobs:0 ignore)

let test_default_jobs () =
  Alcotest.(check bool) "recommended >= 1" true (Pool.default_jobs () >= 1)

(* the pool is semantically List.map for pure jobs, at every pool size *)
let qcheck_pool_is_map =
  QCheck.Test.make ~name:"Pool.run = List.map" ~count:50
    QCheck.(pair (int_range 1 6) (small_list small_int))
    (fun (jobs, xs) ->
      Pool.with_pool ~jobs (fun pool ->
          Pool.run pool (List.map (fun x () -> (2 * x) + 1) xs)
          = List.map (fun x -> (2 * x) + 1) xs))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "pool"
    [
      ( "ordering",
        [
          tc "jobs=1" (test_order 1);
          tc "jobs=2" (test_order 2);
          tc "jobs=4" (test_order 4);
        ] );
      ( "exceptions",
        [
          tc "jobs=1" (test_first_exception 1);
          tc "jobs=4" (test_first_exception 4);
        ] );
      ( "failure paths",
        [
          tc "failed batch runs every task" test_failed_batch_runs_every_task;
          tc "jobs=1 stops at first failure"
            test_sequential_stops_at_first_failure;
          tc "failed batches leak no domains"
            test_failed_batches_leak_no_domains;
          tc "with_pool re-raises and joins" test_with_pool_reraises_and_joins;
        ] );
      ( "lifecycle",
        [
          tc "jobs=1 spawns no domain" test_sequential_spawns_no_domain;
          tc "domain count" test_domain_count;
          tc "more jobs than domains" test_more_jobs_than_domains;
          tc "empty batch and reuse" test_empty_and_reuse;
          tc "shutdown" test_shutdown;
          tc "invalid jobs" test_invalid_jobs;
          tc "default jobs" test_default_jobs;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest qcheck_pool_is_map ]);
    ]
