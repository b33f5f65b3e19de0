(* The observability layer's own contract tests (DESIGN.md §4.9).

   - Counter plane: the gate is off by default and gated operations are
     no-ops; [make] is idempotent; snapshots are name-sorted; and — the
     headline property — running the same workload at jobs 1 and jobs 4
     yields identical counter snapshots, because every instrumentation
     site records submission-determined event totals, never
     scheduling-dependent quantities.
   - Span plane: a no-op without a clock; with an injected deterministic
     clock it aggregates same-named siblings, nests children under the
     innermost open span, survives exceptions, and never leaks into the
     counter snapshot.
   - Report: the JSON rendering is a pure function of the deterministic
     fields, with the exact bytes pinned for a tiny report. *)

open Wlan_model
open Mcast_core

(* ------------------------------------------------------------------ *)
(* Counter plane                                                       *)
(* ------------------------------------------------------------------ *)

(* Each test zeroes the registry and leaves the gate off, so tests are
   order-independent even though the registry is process-global. *)
let scrub () =
  Wlan_obs.Counters.set_enabled false;
  Wlan_obs.Counters.reset ();
  Wlan_obs.Span.set_clock None;
  Wlan_obs.Span.reset ()

let test_gate () =
  scrub ();
  let c = Wlan_obs.Counters.make "test.gate" in
  Wlan_obs.Counters.incr c;
  Wlan_obs.Counters.add c 7;
  Wlan_obs.Counters.record_max c 9;
  Alcotest.(check int) "gated ops are no-ops" 0 (Wlan_obs.Counters.value c);
  Wlan_obs.Counters.set_enabled true;
  Wlan_obs.Counters.incr c;
  Wlan_obs.Counters.add c 7;
  Alcotest.(check int) "sum" 8 (Wlan_obs.Counters.value c);
  Wlan_obs.Counters.record_max c 3;
  Alcotest.(check int) "max below is a no-op" 8 (Wlan_obs.Counters.value c);
  Wlan_obs.Counters.record_max c 11;
  Alcotest.(check int) "max above raises" 11 (Wlan_obs.Counters.value c);
  scrub ()

let test_registry () =
  scrub ();
  let a = Wlan_obs.Counters.make "test.same" in
  let b = Wlan_obs.Counters.make "test.same" in
  Wlan_obs.Counters.set_enabled true;
  Wlan_obs.Counters.incr a;
  Alcotest.(check int) "make is idempotent: one cell" 1
    (Wlan_obs.Counters.value b);
  Alcotest.(check string) "name" "test.same" (Wlan_obs.Counters.name a);
  Wlan_obs.Counters.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Wlan_obs.Counters.value a);
  let snap = Wlan_obs.Counters.snapshot () in
  Alcotest.(check bool) "snapshot sorted by name" true
    (List.sort (fun (x, _) (y, _) -> String.compare x y) snap = snap);
  Alcotest.(check bool) "snapshot covers the registry" true
    (List.mem_assoc "test.same" snap);
  scrub ()

(* The j1-vs-j4 property on a real workload: churn replays of the three
   algorithm variants fanned out over a pool, exactly the profile
   subcommand's churn mode. *)
let snapshot_of_workload ~jobs =
  scrub ();
  Wlan_obs.Counters.set_enabled true;
  let cfg =
    {
      Scenario_gen.paper_default with
      n_aps = 6;
      n_users = 18;
      area_w = 500.;
      area_h = 500.;
    }
  in
  let problems =
    List.map (fun seed -> Scenario_gen.nth_problem ~seed ~index:0 cfg) [ 1; 2 ]
  in
  let tasks =
    List.concat_map
      (fun p ->
        let n_aps, n_users = Problem.dims p in
        let rng = Random.State.make [| 7; n_aps; n_users |] in
        let script =
          Churn_script.random ~rng ~n_aps ~n_users
            { Churn_script.default_gen with n_events = 12 }
        in
        List.map
          (fun objective () ->
            ignore
              (Wlan_sim.Churn.run ~baseline:false ~objective ~script p))
          [ Distributed.Min_total_load; Distributed.Min_load_vector ])
      problems
  in
  let () =
    Harness.Pool.with_pool ~jobs @@ fun pool ->
    ignore (Harness.Pool.run pool tasks)
  in
  Wlan_obs.Counters.set_enabled false;
  let snap = Wlan_obs.Counters.snapshot () in
  scrub ();
  snap

let test_jobs_invariance () =
  let s1 = snapshot_of_workload ~jobs:1 in
  let s4 = snapshot_of_workload ~jobs:4 in
  Alcotest.(check (list (pair string int))) "snapshot at j1 = snapshot at j4"
    s1 s4;
  (* and the workload actually moved the counters — the property is not
     vacuously about all-zero snapshots *)
  Alcotest.(check bool) "workload counted events" true
    (List.exists (fun (_, v) -> v > 0) s1)

(* ------------------------------------------------------------------ *)
(* Span plane                                                          *)
(* ------------------------------------------------------------------ *)

(* A deterministic fake clock: each reading advances by 1 ms, so span
   totals are exact multiples of 0.001 and assertions can be exact. *)
let fake_clock () =
  let t = ref 0. in
  fun () ->
    t := !t +. 0.001;
    !t

let find name nodes =
  match List.find_opt (fun n -> n.Wlan_obs.Span.name = name) nodes with
  | Some n -> n
  | None -> Alcotest.failf "span %S missing" name

let test_span_noop_without_clock () =
  scrub ();
  let r = Wlan_obs.Span.with_span "nope" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk still runs" 42 r;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Wlan_obs.Span.tree ()))

let test_span_tree () =
  scrub ();
  Wlan_obs.Span.set_clock (Some (fake_clock ()));
  Wlan_obs.Span.with_span "outer" (fun () ->
      Wlan_obs.Span.with_span "inner" (fun () -> ());
      Wlan_obs.Span.with_span "inner" (fun () -> ()));
  (try
     Wlan_obs.Span.with_span "outer" (fun () -> failwith "boom")
   with Failure _ -> ());
  let tree = Wlan_obs.Span.tree () in
  let outer = find "outer" tree in
  Alcotest.(check int) "siblings aggregate" 2 outer.Wlan_obs.Span.count;
  let inner = find "inner" outer.Wlan_obs.Span.children in
  Alcotest.(check int) "children nest" 2 inner.Wlan_obs.Span.count;
  (* each activation brackets its children, so outer wall time strictly
     contains inner wall time under the fake clock *)
  Alcotest.(check bool) "outer >= inner" true
    (outer.Wlan_obs.Span.total_s >= inner.Wlan_obs.Span.total_s);
  (* the exception-closed second activation was recorded *)
  Alcotest.(check bool) "span closes on exception" true
    (outer.Wlan_obs.Span.count = 2);
  (* spans never appear in the counter plane *)
  Alcotest.(check bool) "no leakage into counters" true
    (not
       (List.exists
          (fun (n, _) -> n = "outer" || n = "inner")
          (Wlan_obs.Counters.snapshot ())));
  let rendered = Fmt.str "%a" Wlan_obs.Span.pp_tree tree in
  Alcotest.(check bool) "pp_tree mentions both spans" true
    (Astring.String.is_infix ~affix:"outer" rendered
    && Astring.String.is_infix ~affix:"inner" rendered);
  scrub ()

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_json () =
  scrub ();
  let c = Wlan_obs.Counters.make "test.report" in
  Wlan_obs.Counters.set_enabled true;
  Wlan_obs.Counters.add c 5;
  Wlan_obs.Counters.set_enabled false;
  let r =
    Wlan_obs.Report.make ~label:{|demo "x"|} ~seed:7 ~scenarios:2
      ~targets:[ "a"; "b" ]
  in
  let json = Wlan_obs.Report.json r in
  Alcotest.(check bool) "schema present" true
    (Astring.String.is_infix
       ~affix:{|"schema": "wlan-mcast/profile/1"|}
       json);
  Alcotest.(check bool) "label escaped" true
    (Astring.String.is_infix ~affix:{|"demo \"x\""|} json);
  List.iter
    (fun (raw, escaped) ->
      Alcotest.(check string) "label escaped" escaped
        (Wlan_obs.Report.escape raw))
    [
      ("a\\b", {|a\\b|});
      ("l1\nl2\rl3\tend", {|l1\nl2\rl3\tend|});
      ("bell\007 nul\000 esc\027", {|bell\u0007 nul\u0000 esc\u001b|});
    ];
  Alcotest.(check bool) "counter present" true
    (Astring.String.is_infix ~affix:{|"test.report": 5|} json);
  Alcotest.(check bool) "trailing newline" true
    (String.length json > 0 && json.[String.length json - 1] = '\n');
  (* deterministic: rendering twice gives the same bytes *)
  Alcotest.(check string) "pure function" json (Wlan_obs.Report.json r);
  scrub ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "gate semantics" `Quick test_gate;
          Alcotest.test_case "registry and snapshot" `Quick test_registry;
          Alcotest.test_case "snapshot at j1 = snapshot at j4" `Quick
            test_jobs_invariance;
        ] );
      ( "spans",
        [
          Alcotest.test_case "no-op without a clock" `Quick
            test_span_noop_without_clock;
          Alcotest.test_case "tree aggregation and nesting" `Quick
            test_span_tree;
        ] );
      ( "report",
        [ Alcotest.test_case "json rendering" `Quick test_report_json ] );
    ]
