(* wlan_bench: the end-to-end benchmark (README.md in this directory).

     wlan_bench run   --workload W --seed S [--seconds N] [--out F.json]
     wlan_bench trace --workload W --seed S [--seconds N] [--out T.json]

   [run] measures the end-to-end metrics with tracing off; [trace]
   runs the workload's traced pipeline twice, untraced then traced, and
   reports per-layer numbers. Both print every metric as
   [name value unit], a verdict, and — as the last line — one JSON
   object with the verdict and the gated metrics of that mode. [mem] is
   the single-domain memory pass [run] spawns for paper-figs and city. *)

open Common

let workloads = [ "paper-figs"; "city"; "serve-churn"; "serve-storm" ]

(* Load comes from one process using at most [min 2 nproc] domains. *)
let jobs () = Int.min 2 (Domain.recommended_domain_count ())

let scenarios ~seconds ~smoke = if smoke then 2 else 2 * seconds

let cities ~seconds ~smoke = if smoke then 1 else Int.max 1 (seconds / 4)

let run_workload ~workload ~seed ~seconds ~smoke ~server ~work_dir =
  let reps = if smoke then 2 else 15 in
  let peak_mem_mb () =
    single_domain_peak_mb
      (Array.append
         [|
           "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
           string_of_int seconds;
         |]
         (if smoke then [| "--smoke" |] else [||]))
  in
  match workload with
  | "paper-figs" ->
      Figs.run ~jobs:(jobs ()) ~seed
        ~scenarios:(scenarios ~seconds ~smoke)
        ~panels:(if smoke then [ "fig9a" ] else Figs.panels)
        ~setup_reps:reps ~peak_mem_mb ~smoke
  | "city" ->
      City.run ~jobs:(jobs ()) ~seed
        ~cities:(cities ~seconds ~smoke)
        ~smoke
        ~compile_reps:(if smoke then 1 else 2)
        ~peak_mem_mb
  | _ ->
      Serve_load.run ~server ~work_dir ~seed ~setup_reps:reps
        ~parts:(if smoke then 2 else 4)
        ~smoke
        (Serve_load.spec ~workload ~seconds ~smoke)

let memory_pass ~workload ~seed ~seconds ~smoke =
  (match workload with
  | "paper-figs" -> Figs.memory_pass ~seed ~scenarios:(scenarios ~seconds ~smoke)
  | "city" -> City.memory_pass ~seed ~smoke
  | other -> invalid_arg ("no memory pass for " ^ other ^ ": its daemon is measured"));
  Printf.printf "%.17g\n" (vm_hwm_mb "self")

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-call times: the summed wall time of the spans of one library
   call (or a few of one kind); 0 where the workload never makes it. *)
let span_times =
  List.map
    (fun id -> ("figs." ^ id ^ "_s", [ "harness.Experiments." ^ id ]))
    Figs.panels
  @ [
      ("model.compile_dense_s", [ "wlan_model.Scenario.to_problem" ]);
      ("model.compile_sparse_s", [ "wlan_model.Scenario.to_problem_sparse" ]);
      ("core.reduction_s", [ "mcast_core.Reduction.cover_instance" ]);
      ("core.ssa_s", [ "mcast_core.Ssa.run" ]);
      ("core.mla_central_s", [ "mcast_core.Mla.run" ]);
      ("core.bla_central_s", [ "mcast_core.Bla.run_exn"; "mcast_core.Shard.solve_bla" ]);
      ("core.mnu_central_s", [ "mcast_core.Mnu.run"; "mcast_core.Shard.solve_mnu" ]);
      ("core.dist_mla_s", [ "mcast_core.Distributed.mla" ]);
      ("core.dist_bla_s", [ "mcast_core.Distributed.bla" ]);
      ("core.dist_mnu_s", [ "mcast_core.Distributed.mnu" ]);
      ("core.shard_plan_s", [ "mcast_core.Shard.plan_geometric" ]);
      ("core.shard_solve_s", [ "mcast_core.Shard.solve" ]);
    ]

(* Per-layer metrics a workload's own pipeline measures; the others
   report 0 — the layer is not on their path. *)
let pipeline_metrics =
  [
    ("harness.cpu_wall_ratio", "ratio");
    ("shard.slowest_share", "ratio");
    ("online.settle_us", "us");
    ("proto.decode_us_per_frame", "us");
    ("proto.encode_us_per_frame", "us");
    ("server.event_us", "us");
    ("server.snapshot_ms", "ms");
    ("serve.log_bytes_per_event", "B");
  ]

let counter_metrics () =
  let v name = float_of_int (Tracer.counter_total name) in
  let count name = m Layer name "count" (v name) in
  let per name num den = m Layer name "ratio" (ratio (v num) (v den)) in
  [
    count "mcg.candidate_evals";
    count "mcg.heap_pops";
    per "mcg.bound_skip_ratio" "mcg.bound_skips" "mcg.heap_pops";
    count "scg.grid_probes";
    count "scg.rounds";
    per "arena.hit_ratio" "arena.hits" "arena.acquires";
    count "distributed.rounds";
    count "distributed.decisions";
    per "distributed.stay_memo_hit_ratio" "distributed.stay_memo_hits"
      "distributed.decisions";
    count "tracker.hypotheticals";
    count "tracker.min_recomputes";
    count "sparse.grid_cells_probed";
    count "sparse.candidate_list_len";
    count "shard.components";
    count "online.settles";
    count "online.settle_rounds";
    m Layer "online.dirty_scanned_per_settle" "count"
      (ratio (v "online.dirty_scanned") (v "online.settles"));
    count "online.dirty_peak";
    m Layer "serve.deltas_per_batch" "count"
      (ratio (v "serve.deltas") (v "serve.batches"));
  ]

(* Run [pipeline] untraced, then traced under one root span; the
   difference of the two walls is the tracing overhead. The root's self
   time is the benchmark's own work (input generation, validation). *)
let trace_workload ~workload ~seed pipeline =
  let ops = new_ops () in
  let _, untraced = time (pipeline ops) in
  let root = "bench." ^ workload in
  Tracer.start ();
  let produced, traced = time (fun () -> Tracer.call root (pipeline ops)) in
  Tracer.stop ();
  let root_node =
    List.find (fun n -> String.equal n.Tracer.span.name root) (Tracer.forest ())
  in
  let defaults =
    List.filter_map
      (fun (name, unit) ->
        if List.exists (fun mt -> String.equal mt.name name) produced then None
        else Some (m Layer name unit 0.))
      pipeline_metrics
  in
  let metrics =
    [
      m Layer "trace.wall_s" "s" root_node.span.total_s;
      m Layer "trace.overhead_pct" "%" (100. *. ratio (traced -. untraced) untraced);
      m Layer "gc.minor_mwords" "Mword" (root_node.span.minor_words /. 1e6);
    ]
    @ List.map
        (fun (metric, spans) ->
          m Layer metric "s"
            (List.fold_left (fun acc s -> acc +. fst (Tracer.total s)) 0. spans))
        span_times
    @ counter_metrics () @ produced @ defaults
    @ [
        m Diag "trace.untraced_s" "s" untraced;
        m Diag "trace.bench_self_s" "s" root_node.self_s;
      ]
  in
  { workload; seed; ops; metrics; extra = [ ("spans", Tracer.tree_json ()) ] }

let trace ~workload ~seed ~seconds ~smoke =
  match workload with
  | "paper-figs" ->
      trace_workload ~workload ~seed
        (Figs.pipeline ~seed
           ~sample:(if smoke then 2 else 10)
           ~jobs:(jobs ()) ~scenarios:(if smoke then 1 else 2))
  | "city" -> trace_workload ~workload ~seed (City.pipeline ~seed ~smoke)
  | _ ->
      let inputs =
        Serve_load.generate (Serve_load.spec ~workload ~seconds ~smoke) ~seed
      in
      trace_workload ~workload ~seed (Serve_load.pipeline inputs)

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let workload =
  Arg.(
    required
    & opt (some (enum (List.map (fun w -> (w, w)) workloads))) None
    & info [ "workload" ] ~docv:"W" ~doc:"paper-figs, city, serve-churn or serve-storm.")

let seed =
  Arg.(
    required
    & opt (some int) None
    & info [ "seed" ] ~docv:"S" ~doc:"Seed every input is generated from.")

let seconds =
  Arg.(
    value & opt int 12
    & info [ "seconds" ] ~docv:"N"
        ~doc:
          "Scale of the measured work: sized so a run measures about N \
           seconds on a 2-core machine (BENCHMARK.json's run_seconds).")

let smoke =
  Arg.(
    value & flag
    & info [ "smoke" ]
        ~doc:"Toy sizes for the test suite: correctness and names only.")

let server =
  Arg.(
    value
    & opt string "_build/default/bin/wlan_mcast.exe"
    & info [ "server" ] ~docv:"PATH" ~doc:"The built wlan-mcast binary (serve-*).")

let out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Also write the full record as JSON.")

let work_dir =
  Arg.(
    value
    & opt string "_build/wlan_bench"
    & info [ "work-dir" ] ~docv:"DIR"
        ~doc:"Where the serve workloads put the scenario file, socket and log.")

let finish kind out outcome =
  exit (if report ~kind ~out outcome then 0 else 1)

let run_cmd =
  let go workload seed seconds smoke server out work_dir =
    finish E2e out
      (run_workload ~workload ~seed ~seconds ~smoke ~server ~work_dir)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure one workload's end-to-end metrics.")
    Term.(const go $ workload $ seed $ seconds $ smoke $ server $ out $ work_dir)

let trace_cmd =
  let go workload seed seconds smoke out =
    finish Layer out (trace ~workload ~seed ~seconds ~smoke)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Per-layer spans and counter deltas of one workload.")
    Term.(const go $ workload $ seed $ seconds $ smoke $ out)

let mem_cmd =
  Cmd.v
    (Cmd.info "mem"
       ~doc:
         "Rerun part of paper-figs or city on one domain and print the \
          process's peak resident set in MB.")
    Term.(const (fun workload seed seconds smoke -> memory_pass ~workload ~seed ~seconds ~smoke)
          $ workload $ seed $ seconds $ smoke)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "wlan_bench" ~doc:"End-to-end benchmark of wlan-mcast.")
          [ run_cmd; trace_cmd; mem_cmd ]))
