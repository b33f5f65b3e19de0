(* Benchmark and figure-reproduction harness.

   `dune exec bench/main.exe` regenerates every table and figure of the
   paper's evaluation (ICDCS'07 §7) as text tables: Table 1, Figures 9-12,
   the abstract's headline numbers, and the design-choice ablations listed
   in DESIGN.md. `--bechamel` additionally runs micro-benchmarks of the
   algorithms (one Bechamel test per algorithm) and of the Harness.Pool
   scenario fan-out.

   Selecting experiments: `dune exec bench/main.exe -- fig9 fig11`
   Quick mode (fewer scenarios): `dune exec bench/main.exe -- --quick`
   Parallel scenarios: `dune exec bench/main.exe -- fig9 -j 4`
   (any -j value produces bit-identical figures; see EXPERIMENTS.md) *)

let known =
  [
    "table1"; "fig9"; "fig10"; "fig11"; "fig12"; "headline"; "ablate-rate";
    "ablate-bstar"; "ablate-sched"; "ablate-bla-mode"; "ablate-mla-alg";
    "ext-popularity";
    "ext-interference"; "ext-dual"; "ext-loss"; "ext-mobility"; "ext-power";
    "ext-standards"; "ext-churn"; "ablate-phy";
  ]

(* Wall-clock source: CLOCK_MONOTONIC (via bechamel's stub), immune to
   NTP steps and wall-clock jumps that would skew or negate the speedup
   footers gettimeofday used to produce. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* When --bench-json is active every timing we print is also recorded
   here, to be written out as a Bench_json snapshot at exit. *)
let bench_entries : Harness.Bench_json.entry list ref = ref []

(* [cpu] is omitted (not zero-filled) for rows with no CPU sample. *)
let record_entry ?cpu name ~wall =
  bench_entries :=
    { Harness.Bench_json.name; wall_s = wall; cpu_s = cpu } :: !bench_entries

(* Per-figure report footer: wall clock, process CPU time (all domains),
   and their ratio — the observable parallel speedup. Sys.time sums the
   CPU time of every domain, so cpu/wall ~ 1 when sequential and ~ jobs
   when the fan-out scales. *)
let timed ~jobs name f =
  let t0 = now_s () in
  let c0 = Sys.time () in
  let r = f () in
  let wall = now_s () -. t0 in
  let cpu = Sys.time () -. c0 in
  Fmt.pr "[%s: %.1fs wall, %.1fs cpu, %.2fx parallel speedup, jobs=%d]@." name
    wall cpu
    (if wall > 0. then cpu /. wall else 1.)
    jobs;
  record_entry ("exp:" ^ name) ~wall ~cpu;
  r

(* Figures are cached so `headline` can reuse fig9a/fig10a/fig11 when both
   are requested in the same invocation. The cache is keyed by (id, cfg) —
   not id alone — so the same figure under two configs in one run is
   recomputed, never served stale. *)
let cache = Harness.Fig_cache.create ()

let figure (cfg : Harness.Experiments.config) id =
  match List.assoc_opt id Harness.Experiments.drivers with
  | None -> Fmt.invalid_arg "unknown figure id %S" id
  | Some compute ->
      Harness.Fig_cache.get cache ~cfg ~id (fun () ->
          timed ~jobs:cfg.Harness.Experiments.jobs id (fun () ->
              compute ?cfg:(Some cfg) ()))

(* set by the CLI: directory to also write each figure as CSV *)
let csv_dir : string option ref = ref None

let print_fig f =
  Fmt.pr "%a@." Harness.Report.pp_figure f;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (f.Harness.Series.id ^ ".csv") in
      let oc = open_out path in
      output_string oc (Harness.Report.to_csv f);
      close_out oc;
      Fmt.pr "[csv: %s]@." path

(* experiment name -> figure ids (most experiments are a single figure;
   fig9/fig10/fig12 are triptychs) *)
let figures_of = function
  | "fig9" -> [ "fig9a"; "fig9b"; "fig9c" ]
  | "fig10" -> [ "fig10a"; "fig10b"; "fig10c" ]
  | "fig12" -> [ "fig12a"; "fig12b"; "fig12c" ]
  | "fig11" -> [ "fig11" ]
  | id -> [ id ]

let run_experiment cfg name =
  match name with
  | "table1" ->
      Fmt.pr "%a@." Harness.Report.pp_table1 (Harness.Experiments.table1 ())
  | "headline" ->
      let f9 = figure cfg "fig9a" in
      let f10 = figure cfg "fig10a" in
      let f11 = figure cfg "fig11" in
      let at fig n x = Option.get (Harness.Series.mean_at fig n x) in
      let h =
        {
          Harness.Experiments.mla_total_load_reduction_pct =
            Harness.Stats.pct_reduction
              ~baseline:(at f9 "SSA" 400.)
              ~improved:(at f9 "MLA-centralized" 400.);
          bla_max_load_reduction_pct =
            Harness.Stats.pct_reduction
              ~baseline:(at f10 "SSA" 400.)
              ~improved:(at f10 "BLA-centralized" 400.);
          mnu_user_gain_pct =
            Harness.Stats.pct_gain
              ~baseline:(at f11 "SSA" 0.04)
              ~improved:(at f11 "MNU-centralized" 0.04);
        }
      in
      Fmt.pr "%a@." Harness.Report.pp_headline h
  | name when List.mem name known ->
      List.iter (fun id -> print_fig (figure cfg id)) (figures_of name)
  | other ->
      Fmt.epr "unknown experiment %S (known: %a)@." other
        Fmt.(list ~sep:sp string)
        known

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_run ~header tests =
  let open Bechamel in
  let open Toolkit in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Fmt.pr "@.== bechamel: %s@." header;
  let rows =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) ->
            (* an OLS per-run estimate has no CPU-time counterpart *)
            record_entry ("bechamel:" ^ name) ~wall:(t /. 1e9);
            Fmt.str "%12.0f ns/run" t
        | _ -> "          (n/a)"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Fmt.str "r2=%.3f" r
        | None -> ""
      in
      Fmt.pr "%-40s %s  %s@." name est r2)
    rows

let bechamel_algorithms () =
  let open Bechamel in
  let p =
    List.hd
      (Wlan_model.Scenario_gen.problems ~seed:99 ~n:1
         {
           Wlan_model.Scenario_gen.paper_default with
           n_aps = 100;
           n_users = 200;
         })
  in
  let module C = Mcast_core in
  let stagef f = Staged.stage (fun () -> ignore (f ())) in
  bechamel_run ~header:"per-call execution time (100 APs, 200 users)"
    (Test.make_grouped ~name:"algorithms"
       [
         Test.make ~name:"ssa" (stagef (fun () -> C.Ssa.run p));
         Test.make ~name:"mla-centralized" (stagef (fun () -> C.Mla.run p));
         Test.make ~name:"mla-distributed"
           (stagef (fun () -> C.Distributed.mla p));
         Test.make ~name:"bla-centralized-soft"
           (stagef (fun () -> C.Bla.run_exn ~mode:`Soft p));
         Test.make ~name:"bla-centralized-hard"
           (stagef (fun () -> C.Bla.run_exn ~mode:`Hard p));
         Test.make ~name:"bla-distributed"
           (stagef (fun () -> C.Distributed.bla p));
         Test.make ~name:"mnu-centralized"
           (stagef (fun () -> C.Mnu.run (Wlan_model.Problem.with_budget p 0.05)));
         Test.make ~name:"mnu-distributed"
           (stagef (fun () ->
                C.Distributed.mnu (Wlan_model.Problem.with_budget p 0.05)));
         Test.make ~name:"reduction"
           (stagef (fun () -> C.Reduction.cover_instance p));
       ])

(* Sequential vs pooled evaluation of one batch of scenarios — the shape
   every figure driver now has. Tracks the fan-out win across BENCH
   snapshots. *)
let bechamel_pool ~jobs () =
  let open Bechamel in
  let problems =
    Wlan_model.Scenario_gen.problems ~seed:99 ~n:8
      {
        Wlan_model.Scenario_gen.paper_default with
        n_aps = 100;
        n_users = 200;
      }
  in
  let eval p = ignore (Mcast_core.Mla.run p) in
  let pool = Harness.Pool.create ~jobs in
  let tests =
    Test.make_grouped ~name:"pool"
      [
        Test.make ~name:"scenarios-sequential"
          (Staged.stage (fun () -> List.iter eval problems));
        Test.make
          ~name:(Fmt.str "scenarios-pooled-j%d" jobs)
          (Staged.stage (fun () ->
               ignore
                 (Harness.Pool.run pool
                    (List.map (fun p () -> eval p) problems))));
      ]
  in
  bechamel_run
    ~header:
      (Fmt.str "8-scenario MLA batch, sequential vs pooled (jobs=%d)" jobs)
    tests;
  Harness.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Per-algorithm wall times for the bench-json snapshot                 *)
(* ------------------------------------------------------------------ *)

(* One entry per (algorithm, scale): median of [reps] single solves on a
   fixed seed-99 topology, recorded as "alg:<name>@<aps>x<users>". The
   scales bracket the paper's evaluation: the ablation scale (100 APs,
   200 users) and the fig9 scale (200 APs, 400 users). *)
let algorithm_timings ~quick () =
  let module C = Mcast_core in
  let algorithms =
    [
      ("ssa", fun p -> ignore (C.Ssa.run p));
      ("mla-centralized", fun p -> ignore (C.Mla.run p));
      ("mla-distributed", fun p -> ignore (C.Distributed.mla p));
      ("bla-centralized-soft", fun p -> ignore (C.Bla.run_exn ~mode:`Soft p));
      ("bla-centralized-hard", fun p -> ignore (C.Bla.run_exn ~mode:`Hard p));
      ("bla-distributed", fun p -> ignore (C.Distributed.bla p));
      ( "mnu-centralized",
        fun p -> ignore (C.Mnu.run (Wlan_model.Problem.with_budget p 0.05)) );
      ( "mnu-distributed",
        fun p ->
          ignore (C.Distributed.mnu (Wlan_model.Problem.with_budget p 0.05)) );
      (* opt-in fast path; no counterpart in older baselines, so it
         shows up without a speedup ratio *)
      ( "bla-centralized-soft-bisect",
        fun p -> ignore (C.Bla.run_exn ~mode:`Soft ~strategy:`Bisect p) );
    ]
  in
  let pool_algorithms pool =
    [
      ( "bla-centralized-soft-pool",
        fun p ->
          ignore (C.Bla.run_exn ~mode:`Soft ~fanout:(Harness.Pool.run pool) p)
      );
    ]
  in
  let scales = if quick then [ (100, 200) ] else [ (100, 200); (200, 400) ] in
  let reps = if quick then 1 else 3 in
  Harness.Pool.with_pool ~jobs:(Harness.Pool.default_jobs ()) @@ fun pool ->
  let algorithms = algorithms @ pool_algorithms pool in
  List.iter
    (fun (n_aps, n_users) ->
      let p =
        List.hd
          (Wlan_model.Scenario_gen.problems ~seed:99 ~n:1
             { Wlan_model.Scenario_gen.paper_default with n_aps; n_users })
      in
      List.iter
        (fun (name, solve) ->
          solve p (* warm *);
          let samples =
            List.init reps (fun _ ->
                let t0 = now_s () and c0 = Sys.time () in
                solve p;
                (now_s () -. t0, Sys.time () -. c0))
          in
          let sorted = List.sort compare samples in
          let wall, cpu = List.nth sorted (reps / 2) in
          let id = Fmt.str "alg:%s@%dx%d" name n_aps n_users in
          Fmt.pr "%-44s %8.1f ms@." id (wall *. 1e3);
          record_entry id ~wall ~cpu)
        algorithms)
    scales

(* City-scale rows (PR 6): 2000 APs × 40000 users across 20 districts,
   compiled sparse through the bucket grid — the dense rate matrix
   (2000 × 40000 floats, ~640 MB) is never allocated. Distributed rounds
   are capped so the snapshot tracks per-round cost at this scale; the
   sharded rows solve the geometric plan's districts on pool domains and
   are bit-identical to each other at any job count. *)
let city_timings ~quick () =
  let module C = Mcast_core in
  let rounds = if quick then 1 else 4 in
  let sc =
    Wlan_model.Scenario_gen.city ~seed:99 Wlan_model.Scenario_gen.city_default
  in
  let time id f =
    let t0 = now_s () and c0 = Sys.time () in
    f ();
    let wall = now_s () -. t0 and cpu = Sys.time () -. c0 in
    Fmt.pr "%-44s %8.1f ms@." id (wall *. 1e3);
    record_entry id ~wall ~cpu
  in
  let problem = ref None in
  time "city:compile-sparse@2000x40000" (fun () ->
      problem := Some (Wlan_model.Scenario.to_problem sc));
  let p = Option.get !problem in
  let n_aps, n_users = Wlan_model.Problem.dims p in
  time (Fmt.str "alg:mnu-distributed@%dx%d" n_aps n_users) (fun () ->
      ignore
        (C.Distributed.mnu ~max_rounds:rounds
           (Wlan_model.Problem.with_budget p 0.05)));
  time (Fmt.str "alg:bla-distributed@%dx%d" n_aps n_users) (fun () ->
      ignore (C.Distributed.bla ~max_rounds:rounds p));
  let plan =
    C.Shard.plan_geometric ~ap_pos:sc.Wlan_model.Scenario.ap_pos
      ~interaction_radius:
        (2. *. Wlan_model.Rate_table.range sc.Wlan_model.Scenario.rate_table)
      p
  in
  List.iter
    (fun jobs ->
      time
        (Fmt.str "alg:bla-distributed-sharded-j%d@%dx%d" jobs n_aps n_users)
        (fun () ->
          ignore
            (Harness.Pool.with_pool ~jobs (fun pool ->
                 C.Shard.solve ~plan ~fanout:(Harness.Pool.run pool)
                   ~max_rounds:rounds ~objective:C.Distributed.Min_load_vector
                   p))))
    (List.sort_uniq compare [ 1; Harness.Pool.default_jobs () ])

(* Serving-layer rows (PR 9): a generated churn script is expanded
   through the event adapter and streamed frame-by-frame through an
   in-memory serve Server (codec + batcher + Online settles, replay log
   accumulating as it would live). "serve:sustained-<n>ev@<scale>" is
   the wall time to ingest the whole stream (throughput printed as
   events/sec); "serve:p99-decision@<scale>" the 99th-percentile
   latency of the inputs that closed a batch — parse, settle, delta
   emission and logging included. The event count is fixed per scale so
   a --quick CI run stays comparable with the committed full snapshot. *)
let serve_timings ~quick () =
  let module S = Mcast_serve in
  let scales = if quick then [ (100, 200) ] else [ (100, 200); (200, 400) ] in
  let n_events = 5000 in
  List.iter
    (fun (n_aps, n_users) ->
      let p =
        List.hd
          (Wlan_model.Scenario_gen.problems ~seed:99 ~n:1
             { Wlan_model.Scenario_gen.paper_default with n_aps; n_users })
      in
      let rng = Random.State.make [| 99; 0x5e17e |] in
      let script =
        Wlan_model.Churn_script.random ~rng ~n_aps ~n_users
          {
            Wlan_model.Churn_script.default_gen with
            n_events;
            duration = 1000.;
          }
      in
      let inputs =
        match S.Adapter.inputs_of_script script with
        | Ok is -> is
        | Error e -> failwith (S.Adapter.error_message e)
      in
      let payloads =
        Array.of_list
          (S.Protocol.render_input
             (S.Protocol.Hello { version = S.Protocol.version })
          :: List.map S.Protocol.render_input inputs
          @ [ S.Protocol.render_input S.Protocol.Flush ])
      in
      let config =
        {
          S.Replay_log.objective = Mcast_core.Distributed.Min_total_load;
          obj_label = "mnu";
          mode = `Sequential;
          max_rounds = 200;
          queue_limit = 256;
          tiers = Wlan_model.Rate_table.rates Wlan_model.Rate_table.default;
          scenario_digest = None;
        }
      in
      let server = S.Server.create ~config p in
      let n = Array.length payloads in
      let lat = Array.make n 0. in
      let settled = Array.make n false in
      let t0 = now_s () and c0 = Sys.time () in
      for i = 0 to n - 1 do
        let s = now_s () in
        let outs = S.Server.handle_frame server payloads.(i) in
        lat.(i) <- now_s () -. s;
        settled.(i) <-
          List.exists
            (function S.Protocol.Settled _ -> true | _ -> false)
            outs
      done;
      let wall = now_s () -. t0 and cpu = Sys.time () -. c0 in
      let st = S.Server.stats server in
      let decisions = ref [] in
      Array.iteri
        (fun i s -> if s then decisions := lat.(i) :: !decisions)
        settled;
      let decisions = Array.of_list !decisions in
      Array.sort compare decisions;
      let p99 =
        if Array.length decisions = 0 then 0.
        else
          decisions.(min
                       (Array.length decisions - 1)
                       (int_of_float
                          (0.99 *. float_of_int (Array.length decisions))))
      in
      let sustained = Fmt.str "serve:sustained-%dev@%dx%d" n_events n_aps n_users in
      Fmt.pr "%-44s %8.1f ms (%.0f events/s, %d batches, %d deltas)@."
        sustained (wall *. 1e3)
        (float_of_int st.S.Server.events /. wall)
        st.S.Server.batches st.S.Server.emitted_deltas;
      record_entry sustained ~wall ~cpu;
      let p99_id = Fmt.str "serve:p99-decision@%dx%d" n_aps n_users in
      Fmt.pr "%-44s %8.3f ms@." p99_id (p99 *. 1e3);
      record_entry p99_id ~wall:p99)
    scales

(* PHY-model rows (PR 10): the same paper-scale deployment compiled
   under each pluggable link-rate model — "phy:compile-*" is the
   bucket-grid compile (for a path-loss model that is per-link received
   power, SNR and ladder walk on every AP-user pair the grid probes;
   shadowed models also pay the per-link split-RNG draw), and
   "phy:mla-*" one centralized MLA solve on the result. *)
let phy_timings ~quick () =
  let module W = Wlan_model in
  let reps = if quick then 1 else 3 in
  let models =
    [
      ("table1", None);
      ("friis", Some (W.Rate_model.friis ()));
      ("two-ray", Some (W.Rate_model.two_ray ()));
      ( "log-distance",
        Some
          (W.Rate_model.log_distance
             ~shadowing:{ W.Rate_model.sigma_db = 4.; seed = 7 }
             ()) );
    ]
  in
  let n_aps = 100 and n_users = 200 in
  List.iter
    (fun (name, rate_model) ->
      let sc =
        W.Scenario_gen.generate
          ~rng:(W.Scenario_gen.scenario_rng ~seed:99 0)
          { W.Scenario_gen.paper_default with n_aps; n_users; rate_model }
      in
      let time id f =
        f () (* warm *);
        let samples =
          List.init reps (fun _ ->
              let t0 = now_s () and c0 = Sys.time () in
              f ();
              (now_s () -. t0, Sys.time () -. c0))
        in
        let sorted = List.sort compare samples in
        let wall, cpu = List.nth sorted (reps / 2) in
        Fmt.pr "%-44s %8.1f ms@." id (wall *. 1e3);
        record_entry id ~wall ~cpu
      in
      time (Fmt.str "phy:compile-%s@%dx%d" name n_aps n_users) (fun () ->
          ignore (W.Scenario.to_problem sc));
      let p = W.Scenario.to_problem sc in
      time (Fmt.str "phy:mla-%s@%dx%d" name n_aps n_users) (fun () ->
          ignore (Mcast_core.Mla.run p)))
    models

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let experiments_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "Experiments to run (default: all). Known: table1 fig9 fig10 fig11 \
           fig12 headline ablate-rate ablate-bstar ablate-sched \
           ablate-bla-mode.")

let scenarios_arg =
  Arg.(
    value & opt int 40
    & info [ "scenarios" ] ~doc:"Random scenarios per point.")

let small_arg =
  Arg.(
    value & opt int 8
    & info [ "small-scenarios" ]
        ~doc:"Scenarios per point for fig12 (ILP-bound).")

let seed_arg = Arg.(value & opt int 2007 & info [ "seed" ] ~doc:"Master seed.")

let node_limit_arg =
  Arg.(
    value & opt int 4000
    & info [ "node-limit" ]
        ~doc:"Branch-and-bound node budget per exact solve.")

let jobs_arg =
  Arg.(
    value
    & opt int (Harness.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains evaluating scenarios in parallel (default: the \
           recommended domain count). Figures are bit-identical for every \
           value of $(docv).")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Fast pass: 5 scenarios, 2 small.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each figure as DIR/<id>.csv.")

let bechamel_arg =
  Arg.(
    value & flag
    & info [ "bechamel" ] ~doc:"Also run Bechamel micro-benchmarks.")

let bench_json_arg =
  Arg.(
    value
    & opt ~vopt:(Some "BENCH_PR9.json") (some string) None
    & info [ "bench-json" ] ~docv:"FILE"
        ~doc:
          "Write a performance snapshot (experiment wall times, \
           per-algorithm solve times, serve sustained/latency rows, \
           bechamel estimates when --bechamel is also given) as JSON to \
           $(docv) (default: BENCH_PR9.json).")

let bench_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench-baseline" ] ~docv:"FILE"
        ~doc:
          "A previous --bench-json snapshot to embed as the baseline; \
           speedup ratios are derived for entries present in both.")

let bench_label_arg =
  Arg.(
    value & opt string "PR9"
    & info [ "bench-label" ] ~docv:"LABEL"
        ~doc:"Label stored in the --bench-json snapshot.")

let bench_compare_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench-compare" ] ~docv:"FILE"
        ~doc:
          "Compare this run's timings against the committed snapshot \
           $(docv) (a previous --bench-json file) and exit non-zero if \
           any entry present in both regressed past --bench-threshold. \
           Implies timing the per-algorithm and city rows even without \
           --bench-json.")

let bench_threshold_arg =
  Arg.(
    value & opt float 0.5
    & info [ "bench-threshold" ] ~docv:"FRAC"
        ~doc:
          "Allowed wall-time regression for --bench-compare, as a \
           fraction of the baseline (default 0.5: fail past 1.5x). \
           Generous by default so single-rep --quick runs on loaded CI \
           machines do not flap.")

let bench_min_wall_arg =
  Arg.(
    value & opt float 0.05
    & info [ "bench-min-wall" ] ~docv:"SECONDS"
        ~doc:
          "Ignore --bench-compare rows whose baseline wall time is \
           below $(docv) (default 0.05). Micro rows (a few hundred µs) \
           regress by whole multiples from a single cache miss; only \
           rows above the noise floor can fail the run.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable the deterministic event-counter plane (DESIGN.md §4.9) \
           around the run and print the counter table at exit. Counters \
           never feed the --bench-json snapshot; wall times never feed \
           the counters.")

let write_bench_json ~path ~label ~baseline_path ~jobs ~quick ~seed =
  let baseline =
    match baseline_path with
    | None -> None
    | Some f ->
        let ic = open_in f in
        let len = in_channel_length ic in
        let s = really_input_string ic len in
        close_in ic;
        let parsed = Harness.Bench_json.parse s in
        if parsed = None then
          Fmt.epr "warning: %s is not a bench-json snapshot, ignoring@." f;
        parsed
  in
  let snapshot =
    {
      Harness.Bench_json.label;
      jobs;
      quick;
      seed;
      entries = List.rev !bench_entries;
    }
  in
  let oc = open_out path in
  output_string oc (Harness.Bench_json.render ?baseline snapshot);
  close_out oc;
  Fmt.pr "[bench-json: %s]@." path;
  match baseline with
  | None -> ()
  | Some b ->
      List.iter
        (fun (name, ratio) -> Fmt.pr "%-44s %6.2fx vs %s@." name ratio b.label)
        (Harness.Bench_json.speedups ~baseline:b.entries ~current:snapshot)

let main names scenarios small seed node_limit jobs quick csv bech bench_json
    bench_baseline bench_label bench_compare bench_threshold bench_min_wall
    profile =
  csv_dir := csv;
  let jobs = Int.max 1 jobs in
  if profile then begin
    Wlan_obs.Counters.reset ();
    Wlan_obs.Counters.set_enabled true
  end;
  let cfg =
    {
      Harness.Experiments.scenarios = (if quick then 5 else scenarios);
      small_scenarios = (if quick then 2 else small);
      seed;
      ilp_node_limit = node_limit;
      jobs;
    }
  in
  let names =
    match names with
    | [] ->
        [
          "table1"; "fig9"; "fig10"; "fig11"; "fig12"; "headline";
          "ablate-rate"; "ablate-bstar"; "ablate-sched"; "ablate-bla-mode";
          "ablate-mla-alg"; "ablate-phy"; "ext-popularity"; "ext-interference";
          "ext-dual"; "ext-loss"; "ext-mobility"; "ext-power"; "ext-standards";
        ]
    | ns -> ns
  in
  Fmt.pr "wlan-mcast benchmark harness: %d scenarios/point, seed %d, %d jobs@."
    cfg.Harness.Experiments.scenarios cfg.Harness.Experiments.seed jobs;
  let t0 = now_s () in
  let c0 = Sys.time () in
  List.iter (run_experiment cfg) names;
  if bech then begin
    bechamel_algorithms ();
    bechamel_pool ~jobs ()
  end;
  if bench_json <> None || bench_compare <> None then begin
    algorithm_timings ~quick ();
    city_timings ~quick ();
    serve_timings ~quick ();
    phy_timings ~quick ()
  end;
  (* read the comparison snapshot before --bench-json possibly
     overwrites the same path *)
  let compare_base =
    match bench_compare with
    | None -> None
    | Some f ->
        let ic = open_in f in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        (match Harness.Bench_json.parse s with
        | Some b -> Some b
        | None ->
            Fmt.epr "bench-compare: %s is not a bench-json snapshot@." f;
            exit 2)
  in
  (match bench_json with
  | None -> ()
  | Some path ->
      write_bench_json ~path ~label:bench_label ~baseline_path:bench_baseline
        ~jobs ~quick ~seed);
  let regressed =
    match compare_base with
    | None -> false
    | Some base -> (
        if base.Harness.Bench_json.quick <> quick then
          Fmt.epr
            "bench-compare note: baseline %s was %s run, this is %s — \
             experiment rows are not comparable; only same-scale alg: rows \
             can regress@."
            base.Harness.Bench_json.label
            (if base.Harness.Bench_json.quick then "a --quick" else "a full")
            (if quick then "--quick" else "full");
        match
          Harness.Bench_json.regressions ~min_wall:bench_min_wall
            ~threshold:bench_threshold
            ~baseline:base.Harness.Bench_json.entries
            ~current:(List.rev !bench_entries) ()
        with
        | [] ->
            Fmt.pr
              "[bench-compare: ok, no entry over %.3fs slower than %.2fx \
               %s]@."
              bench_min_wall (1. +. bench_threshold)
              base.Harness.Bench_json.label;
            false
        | regs ->
            List.iter
              (fun (name, ratio) ->
                Fmt.epr "bench-compare REGRESSION %-44s %6.2fx vs %s@." name
                  ratio base.Harness.Bench_json.label)
              regs;
            true)
  in
  if profile then begin
    Wlan_obs.Counters.set_enabled false;
    let report =
      Wlan_obs.Report.make ~label:"bench" ~seed
        ~scenarios:cfg.Harness.Experiments.scenarios ~targets:names
    in
    Fmt.pr "@.%a@." Wlan_obs.Report.pp_text report
  end;
  let wall = now_s () -. t0 in
  Fmt.pr "@.total wall time: %.1fs (cpu %.1fs, %.2fx, jobs=%d)@." wall
    (Sys.time () -. c0)
    (if wall > 0. then (Sys.time () -. c0) /. wall else 1.)
    jobs;
  if regressed then exit 1

let cmd =
  Cmd.v
    (Cmd.info "wlan-mcast-bench"
       ~doc:
         "Reproduce the tables and figures of the ICDCS'07 multicast \
          association-control paper")
    Term.(
      const main $ experiments_arg $ scenarios_arg $ small_arg $ seed_arg
      $ node_limit_arg $ jobs_arg $ quick_arg $ csv_arg $ bechamel_arg
      $ bench_json_arg $ bench_baseline_arg $ bench_label_arg
      $ bench_compare_arg $ bench_threshold_arg $ bench_min_wall_arg
      $ profile_arg)

let () = exit (Cmd.eval cmd)
