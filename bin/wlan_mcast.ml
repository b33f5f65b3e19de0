(* wlan-mcast: command-line front end for the multicast association-control
   library.

   Subcommands:
     solve     generate a random WLAN and run one or all algorithms
     simulate  full discrete-event run: scan, associate over the air, stream
     figures   reproduce Table 1, the paper's figures and headline numbers
     churn     replay a churn & fault-injection script online
     profile   run a workload with deterministic counters + wall-clock spans
     example   replay the paper's Figure 1 walk-throughs

   Try:
     dune exec bin/wlan_mcast.exe -- solve --aps 100 --users 200
     dune exec bin/wlan_mcast.exe -- solve --algorithm mnu --budget 0.05
     dune exec bin/wlan_mcast.exe -- simulate --policy distributed-bla
     dune exec bin/wlan_mcast.exe -- figures fig9a headline -j 4
     dune exec bin/wlan_mcast.exe -- churn --script scenarios/churn_demo.churn
     dune exec bin/wlan_mcast.exe -- churn --fig4
     dune exec bin/wlan_mcast.exe -- example *)

open Cmdliner
open Wlan_model
open Mcast_core

(* ---------------- logging ---------------- *)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_term =
  let doc = "Enable debug logging of algorithm internals." in
  Term.(
    const setup_logs $ Arg.(value & flag & info [ "verbose"; "v" ] ~doc))

(* ---------------- shared scenario options ---------------- *)

type net_opts = {
  aps : int;
  users : int;
  sessions : int;
  rate : float;
  budget : float;
  area : float;
  seed : int;
}

let net_term =
  let aps = Arg.(value & opt int 50 & info [ "aps" ] ~doc:"Number of APs.") in
  let users =
    Arg.(value & opt int 100 & info [ "users" ] ~doc:"Number of users.")
  in
  let sessions =
    Arg.(value & opt int 5 & info [ "sessions" ] ~doc:"Number of multicast sessions.")
  in
  let rate =
    Arg.(value & opt float 1.0 & info [ "stream-rate" ] ~doc:"Session stream rate (Mbps).")
  in
  let budget =
    Arg.(value & opt float 0.9 & info [ "budget" ] ~doc:"Per-AP multicast load limit.")
  in
  let area =
    Arg.(value & opt float 1095.4 & info [ "area" ] ~doc:"Deployment area side (m).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let mk aps users sessions rate budget area seed =
    { aps; users; sessions; rate; budget; area; seed }
  in
  Term.(const mk $ aps $ users $ sessions $ rate $ budget $ area $ seed)

(* A scenario or churn file that does not parse, or describes an
   invalid scenario (a non-finite coordinate, an unknown session), is a
   user error: say so and exit 1 rather than surface an internal error. *)
let load what of_file path =
  try of_file path
  with Scenario_io.Parse_error msg ->
    Fmt.epr "wlan-mcast: %s %s: %s@." what path msg;
    exit 1

let load_scenario = load "scenario" Scenario_io.of_file
let load_churn = load "churn script" Scenario_io.churn_of_file

let scenario_io_terms =
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE"
          ~doc:"Load the WLAN from a saved scenario file instead of                 generating one (see --save-scenario).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-scenario" ] ~docv:"FILE"
          ~doc:"Write the scenario to FILE for exact replay later.")
  in
  (load, save)

let scenario_of (o : net_opts) =
  let cfg =
    {
      Scenario_gen.paper_default with
      n_aps = o.aps;
      n_users = o.users;
      n_sessions = o.sessions;
      session_rate_mbps = o.rate;
      budget = o.budget;
      area_w = o.area;
      area_h = o.area;
    }
  in
  let rng = Random.State.make [| o.seed |] in
  Scenario_gen.generate ~rng cfg

(* ---------------- solve ---------------- *)

(* The distributed algorithms also return their outcome, so a run that
   hit max_rounds or oscillated says so. *)
let algorithms =
  let central f p = (f p, None) in
  let distributed f p =
    let sol, o = f p in
    (sol, Some o)
  in
  [
    ("ssa", central Ssa.run);
    ("mla", central Mla.run);
    ("mla-distributed", distributed Distributed.mla);
    ("bla", central (Bla.run_exn ~mode:`Hard));
    ("bla-soft", central (Bla.run_exn ~mode:`Soft));
    ("bla-distributed", distributed Distributed.bla);
    ("mnu", central Mnu.run);
    ("mnu-distributed", distributed Distributed.mnu);
  ]

let solve_cmd =
  let algorithm =
    Arg.(
      value & opt string "all"
      & info [ "algorithm"; "a" ]
          ~doc:"Algorithm: all, ssa, mla, mla-distributed, bla, bla-soft, \
                bla-distributed, mnu, mnu-distributed.")
  in
  let show_assoc =
    Arg.(value & flag & info [ "show-association" ] ~doc:"Print the user->AP map.")
  in
  let load, save = scenario_io_terms in
  let run () net load save algorithm show_assoc =
    let sc =
      match load with
      | Some path -> load_scenario path
      | None -> scenario_of net
    in
    Option.iter (fun path -> Scenario_io.to_file path sc) save;
    let p = Scenario.to_problem sc in
    Fmt.pr "%a@.%a@.@." Scenario.pp sc Problem.pp p;
    let selected =
      if algorithm = "all" then algorithms
      else
        match List.assoc_opt algorithm algorithms with
        | Some f -> [ (algorithm, f) ]
        | None ->
            Fmt.epr "unknown algorithm %S@." algorithm;
            exit 1
    in
    List.iter
      (fun (_, f) ->
        let sol, outcome = f p in
        Fmt.pr "%a@." Solution.pp sol;
        Option.iter
          (fun (o : Distributed.outcome) ->
            Fmt.pr "  rounds %d, converged %b, oscillated %b@."
              o.Distributed.rounds o.Distributed.converged
              o.Distributed.oscillated)
          outcome;
        if show_assoc then Fmt.pr "  %a@." Association.pp sol.Solution.assoc)
      selected
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run association-control algorithms on a random WLAN")
    Term.(
      const run $ verbose_term $ net_term $ load $ save $ algorithm
      $ show_assoc)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let policy =
    Arg.(
      value & opt string "distributed-mla"
      & info [ "policy" ]
          ~doc:"Association policy: ssa, distributed-mla, distributed-bla, \
                simultaneous-mla, static-mla (centralized, pushed).")
  in
  let window =
    Arg.(value & opt float 1.0 & info [ "window" ] ~doc:"Streaming window (s).")
  in
  let load, save = scenario_io_terms in
  let run () net load save policy window =
    let sc =
      match load with
      | Some path -> load_scenario path
      | None -> scenario_of net
    in
    Option.iter (fun path -> Scenario_io.to_file path sc) save;
    let p = Scenario.to_problem sc in
    let pol =
      match policy with
      | "ssa" -> Wlan_sim.Runner.Ssa_policy
      | "distributed-mla" ->
          Wlan_sim.Runner.Distributed_policy
            {
              objective = Distributed.Min_total_load;
              mode = `Sequential;
              max_passes = 40;
            }
      | "distributed-bla" ->
          Wlan_sim.Runner.Distributed_policy
            {
              objective = Distributed.Min_load_vector;
              mode = `Sequential;
              max_passes = 40;
            }
      | "simultaneous-mla" ->
          Wlan_sim.Runner.Distributed_policy
            {
              objective = Distributed.Min_total_load;
              mode = `Simultaneous;
              max_passes = 40;
            }
      | "static-mla" ->
          Wlan_sim.Runner.Static_policy (Mla.run p).Solution.assoc
      | other ->
          Fmt.epr "unknown policy %S@." other;
          exit 1
    in
    let r = Wlan_sim.Runner.run ~streaming_window:window ~policy:pol sc in
    Fmt.pr "%a@.@." Scenario.pp sc;
    Fmt.pr
      "policy %s: %d/%d users served@.\
       passes %d, converged %b, oscillated %b@.\
       %d events over %.3f s of virtual time@.\
       analytic: total %.4f, max %.4f@.\
       measured: total %.4f, max %.4f@."
      policy r.Wlan_sim.Runner.solution.Solution.satisfied (Scenario.n_users sc)
      r.Wlan_sim.Runner.passes r.Wlan_sim.Runner.converged
      r.Wlan_sim.Runner.oscillated r.Wlan_sim.Runner.events
      r.Wlan_sim.Runner.sim_time
      r.Wlan_sim.Runner.solution.Solution.total_load
      r.Wlan_sim.Runner.solution.Solution.max_load
      (Loads.network_total r.Wlan_sim.Runner.measured_loads)
      (Array.fold_left Float.max 0. r.Wlan_sim.Runner.measured_loads)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Full discrete-event simulation: scan, associate, stream, measure")
    Term.(const run $ verbose_term $ net_term $ load $ save $ policy $ window)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let load, save = scenario_io_terms in
  let run () net load save =
    let sc =
      match load with
      | Some path -> load_scenario path
      | None -> scenario_of net
    in
    Option.iter (fun path -> Scenario_io.to_file path sc) save;
    let p = Scenario.to_problem sc in
    Fmt.pr "%a@.@.%a@.@." Scenario.pp sc Topology_stats.pp
      (Topology_stats.of_problem p);
    (* channel plan feasibility under 12 and 3 channels; interaction
       reach is twice the model's radio range *)
    let cs = 2. *. Scenario.range sc in
    let edges = Channels.conflict_edges ~range:cs sc.Scenario.ap_pos in
    List.iter
      (fun n_channels ->
        let a = Channels.color ~n_channels ~n_aps:(Scenario.n_aps sc) edges in
        Fmt.pr "%d channels: %a@." n_channels Channels.pp a)
      [ 12; 3 ];
    (* algorithm comparison summary *)
    Fmt.pr "@.%a@.%a@.%a@." Solution.pp (Ssa.run p) Solution.pp (Mla.run p)
      Solution.pp
      (Bla.run_exn ~mode:`Hard p)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Deployment statistics: coverage, overlap, rates, channel plan,              and a quick algorithm comparison")
    Term.(const run $ verbose_term $ net_term $ load $ save)

(* ---------------- figures ---------------- *)

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Shared by figures and profile. A count below 1 would leave every figure
   point with an empty sample, so it is a usage error. *)
let scenarios_arg ~default =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Error
          (`Msg (Fmt.str "invalid value '%s', expected a positive integer" s))
  in
  Arg.(
    value
    & opt (conv (parse, Fmt.int)) default
    & info [ "scenarios" ] ~docv:"N"
        ~doc:"Random scenarios per point (at least 1). Fig. 12 always \
              runs 8; $(b,ext-loss), $(b,ext-power) and $(b,ablate-phy) \
              run at most 10, $(b,ext-mobility) and $(b,ext-churn) at \
              most 8.")

(* Checked before any work starts, so a typo costs nothing. *)
let check_ids ~what ~known names =
  match List.find_opt (fun id -> not (List.mem id known)) names with
  | None -> ()
  | Some id ->
      Fmt.epr "unknown %s %S (known: %a)@." what id
        Fmt.(list ~sep:sp string)
        known;
      exit 1

let figures_cmd =
  let drivers = Harness.Experiments.drivers in
  let ids = ("table1" :: List.map fst drivers) @ [ "headline" ] in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FIGURE"
          ~doc:"Figures to reproduce, in order (default: table1, every \
                figure, then headline). Known: table1, fig9a..fig12c, the \
                ablate-*/ext-* studies (ablate-phy is the PHY-model \
                ablation) and headline, the abstract's three claims \
                recomputed from fig9a, fig10a and fig11.")
  in
  let seed =
    Arg.(value & opt int 2007 & info [ "seed" ] ~doc:"Master seed.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Harness.Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains evaluating scenarios in parallel (default: the \
             recommended domain count). Per-scenario seeds are split from \
             --seed before dispatch, so output is bit-identical for every \
             value of $(docv).")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:"Also write each figure as $(docv)/<id>.csv, creating \
                $(docv) if needed.")
  in
  let run () names scenarios seed jobs csv =
    let names = if names = [] then ids else names in
    check_ids ~what:"figure" ~known:ids names;
    let cfg =
      {
        Harness.Experiments.default_config with
        scenarios;
        seed;
        jobs = Int.max 1 jobs;
      }
    in
    (* one config per invocation, so the id alone keys the figures that
       headline shares with the figure ids *)
    let computed = Hashtbl.create 8 in
    let figure id =
      match Hashtbl.find_opt computed id with
      | Some f -> f
      | None ->
          let f = (List.assoc id drivers) ?cfg:(Some cfg) () in
          Hashtbl.add computed id f;
          f
    in
    let write_csv (f : Harness.Series.figure) =
      Option.iter
        (fun dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          write_file
            (Filename.concat dir (f.Harness.Series.id ^ ".csv"))
            (Harness.Report.to_csv f))
        csv
    in
    List.iter
      (function
        | "table1" ->
            Fmt.pr "%a@." Harness.Report.pp_table1
              (Harness.Experiments.table1 ())
        | "headline" ->
            let fig9a = figure "fig9a" in
            let fig10a = figure "fig10a" in
            let fig11 = figure "fig11" in
            Fmt.pr "%a@." Harness.Report.pp_headline
              (Harness.Experiments.headline ~fig9a ~fig10a ~fig11)
        | id ->
            let f = figure id in
            Fmt.pr "%a@." Harness.Report.pp_figure f;
            write_csv f)
      names
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Reproduce the paper's Table 1, figures and headline numbers, \
          fanning scenarios out over --jobs domains with deterministic \
          output")
    Term.(
      const run $ verbose_term $ names $ scenarios_arg ~default:40 $ seed
      $ jobs $ csv)

(* The settle discipline of `churn` and `serve`. *)
let settle_mode = function
  | "sequential" -> `Sequential
  | "simultaneous" -> `Simultaneous
  | other ->
      Fmt.epr "unknown mode %S (sequential, simultaneous)@." other;
      exit 1

(* ---------------- churn ---------------- *)

(* Seed-split tag for the generated-script RNG (PR-1 discipline: every
   derived stream gets its own constant tag). *)
let churn_split_tag = 0x0c817a4

(* The churn script replayed on [p]: the file given, else one drawn by
   [gen] on the seed's [churn_split_tag] stream. *)
let churn_script ~seed p gen = function
  | Some f -> load_churn f
  | None ->
      let n_aps, n_users = Problem.dims p in
      let rng = Random.State.make [| seed; churn_split_tag |] in
      Churn_script.random ~rng ~n_aps ~n_users gen

(* The "(mnu, bla, mla…)" list of an unknown-objective error. *)
let known_objectives extra =
  String.concat ", " (List.map fst Distributed.objective_labels @ extra)

let churn_cmd =
  let load, save = scenario_io_terms in
  let script_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Replay the churn script from FILE instead of generating one \
                (see --save-script).")
  in
  let save_script =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-script" ] ~docv:"FILE"
          ~doc:"Write the churn script to FILE for exact replay later.")
  in
  let gen_events =
    Arg.(
      value & opt int 20
      & info [ "gen-events" ]
          ~doc:"Generated script length when --script is not given.")
  in
  let duration =
    Arg.(
      value & opt float 60.
      & info [ "duration" ] ~doc:"Generated script duration (s).")
  in
  let objective =
    Arg.(
      value & opt string "all"
      & info [ "objective"; "o" ]
          ~doc:"Algorithm variant: mnu, bla, mla or all.")
  in
  let mode =
    Arg.(
      value & opt string "sequential"
      & info [ "mode" ]
          ~doc:"Settle discipline: sequential or simultaneous (the latter \
                can oscillate, Fig. 4).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains running the algorithm variants in parallel. A churn \
             replay is a pure function of (scenario, script, variant), and \
             results re-assemble in variant order, so traces and metrics \
             are byte-identical for every value of $(docv).")
  in
  let max_rounds =
    Arg.(
      value & opt int 200
      & info [ "max-rounds" ] ~doc:"Decision-round cap per settle.")
  in
  let no_baseline =
    Arg.(
      value & flag
      & info [ "no-baseline" ]
          ~doc:"Skip the fresh static solve after each step (drops the \
                overshoot metrics, makes long replays cheap).")
  in
  let trace_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the event traces of all variants to FILE.")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write the disruption metrics as JSON to FILE.")
  in
  let metrics_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-csv" ] ~docv:"FILE"
          ~doc:"Write the disruption metrics as CSV to FILE.")
  in
  let fig4 =
    Arg.(
      value & flag
      & info [ "fig4" ]
          ~doc:"Replay the paper's Fig. 4 oscillation instead: two APs, \
                four users, simultaneous decisions from the crossed start \
                (ignores the scenario and script options).")
  in
  let run () net load save script_file save_script gen_events duration
      objective mode jobs max_rounds no_baseline trace_file metrics_json
      metrics_csv fig4 =
    let render_trace runs =
      String.concat ""
        (List.map
           (fun (r : Harness.Metrics.run) ->
             Printf.sprintf "== %s ==\n%s" r.Harness.Metrics.label
               (Wlan_sim.Trace.to_string
                  r.Harness.Metrics.outcome.Wlan_sim.Churn.trace))
           runs)
    in
    let report runs seed =
      List.iter
        (fun (r : Harness.Metrics.run) ->
          let o = r.Harness.Metrics.outcome in
          Fmt.pr
            "%-4s %d steps: rounds %d, moves %d, reassociated %d, \
             interrupted %d%s@."
            r.Harness.Metrics.label
            (List.length o.Wlan_sim.Churn.steps)
            o.Wlan_sim.Churn.total_rounds o.Wlan_sim.Churn.total_moves
            o.Wlan_sim.Churn.total_reassociated
            o.Wlan_sim.Churn.total_interrupted
            (if o.Wlan_sim.Churn.oscillated then ", OSCILLATED" else ""))
        runs;
      Option.iter (fun f -> write_file f (render_trace runs)) trace_file;
      Option.iter
        (fun f -> write_file f (Harness.Metrics.json ~seed runs))
        metrics_json;
      Option.iter
        (fun f -> write_file f (Harness.Metrics.csv runs))
        metrics_csv
    in
    if fig4 then begin
      let p = Examples.fig4 in
      let script = Churn_script.make [] in
      let o =
        Wlan_sim.Churn.run ~init:Examples.fig4_initial ~mode:`Simultaneous
          ~max_rounds
          ~tiers:(Problem.distinct_rates p)
          ~baseline:(not no_baseline) ~objective:Distributed.Min_total_load
          ~script p
      in
      Fmt.pr "Fig. 4 replay (simultaneous decisions, crossed start):@.";
      report
        [
          {
            Harness.Metrics.label = "fig4";
            objective = Distributed.objective_name Min_total_load;
            mode = "simultaneous";
            outcome = o;
          };
        ]
        net.seed
    end
    else begin
      let sc =
        match load with
        | Some path -> load_scenario path
        | None -> scenario_of net
      in
      Option.iter (fun path -> Scenario_io.to_file path sc) save;
      let p = Scenario.to_problem sc in
      let script =
        churn_script ~seed:net.seed p
          { Churn_script.default_gen with n_events = gen_events; duration }
          script_file
      in
      Option.iter (fun f -> Scenario_io.churn_to_file f script) save_script;
      let variants =
        match objective with
        | "all" -> Distributed.objective_labels
        | l -> (
            match List.assoc_opt l Distributed.objective_labels with
            | Some obj -> [ (l, obj) ]
            | None ->
                Fmt.epr "unknown objective %S (%s)@." l
                  (known_objectives [ "all" ]);
                exit 1)
      in
      let mode_v = settle_mode mode in
      let runs =
        Harness.Pool.with_pool ~jobs:(Int.max 1 jobs) @@ fun pool ->
        Harness.Pool.run pool
          (List.map
             (fun (label, obj) () ->
               let o =
                 (* the scenario's full model ladder, not the library's
                    distinct-rates default: the CLI knows the deployment,
                    so drift can reach rungs the random placement left
                    unused — and it matches the serve daemon's config
                    tiers exactly *)
                 Wlan_sim.Churn.run ~mode:mode_v ~max_rounds
                   ~tiers:(Rate_model.tier_rates sc.Scenario.model)
                   ~baseline:(not no_baseline) ~objective:obj ~script p
               in
               {
                 Harness.Metrics.label;
                 objective = Distributed.objective_name obj;
                 mode;
                 outcome = o;
               })
             variants)
      in
      Fmt.pr "%a@.script: %d events over %.1f s@." Scenario.pp sc
        (Churn_script.length script)
        (Churn_script.duration script);
      report runs net.seed
    end
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Replay a churn & fault-injection script against the online \
          re-association layer, with per-step disruption metrics")
    Term.(
      const run $ verbose_term $ net_term $ load $ save $ script_file
      $ save_script $ gen_events $ duration $ objective $ mode $ jobs
      $ max_rounds $ no_baseline $ trace_file $ metrics_json $ metrics_csv
      $ fig4)

(* ---------------- profile ---------------- *)

(* The profile subcommand is the only place that touches both
   observability planes: it turns the counter gate on around the
   workload and installs the wall-clock sink (DESIGN.md §4.9). The
   counter report is deterministic — byte-identical at any --jobs — and
   is what --out writes; the span tree carries wall times and is
   printed to stdout only, never into the JSON. *)

let profile_cmd =
  let ids = List.map fst Harness.Experiments.drivers in
  let names =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:"Experiment drivers to profile (default: fig9a). Known: \
                fig9a..fig12c and the ablate-*/ext-* studies.")
  in
  let seed =
    Arg.(value & opt int 2007 & info [ "seed" ] ~doc:"Master seed.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains. Counter totals are a function of the \
             submitted work only, so the report is byte-identical for \
             every value of $(docv); only the span wall times change.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the deterministic counter report as JSON to FILE.")
  in
  let scenario_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE"
          ~doc:"Profile a churn replay of this saved scenario (with \
                --script) instead of experiment drivers.")
  in
  let script_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Churn script to replay against --scenario (default: a \
                script generated from --seed).")
  in
  let no_spans =
    Arg.(
      value & flag
      & info [ "no-spans" ]
          ~doc:"Skip the wall-clock span tree (counters only).")
  in
  let run () names scenarios seed jobs out scenario_file script_file no_spans
      =
    let jobs = Int.max 1 jobs in
    if not no_spans then
      Wlan_obs.Span.set_clock
        (Some (fun () -> Int64.to_float (Monotonic_clock.now ()) /. 1e9));
    Wlan_obs.Counters.reset ();
    Wlan_obs.Span.reset ();
    Wlan_obs.Counters.set_enabled true;
    let label, targets =
      match scenario_file with
      | Some path ->
          let sc = load_scenario path in
          let p = Scenario.to_problem sc in
          let script =
            churn_script ~seed p Churn_script.default_gen script_file
          in
          let variants =
            List.map
              (fun (l, obj) -> ("churn:" ^ l, obj))
              Distributed.objective_labels
          in
          let () =
            Harness.Pool.with_pool ~jobs @@ fun pool ->
            ignore
              (Harness.Pool.run pool
                 (List.map
                    (fun (label, obj) () ->
                      Wlan_obs.Span.with_span label (fun () ->
                          ignore
                            (Wlan_sim.Churn.run ~mode:`Sequential
                               ~baseline:false ~objective:obj ~script p)))
                    variants))
          in
          (Filename.basename path, List.map fst variants)
      | None ->
          let cfg =
            { Harness.Experiments.default_config with scenarios; seed; jobs }
          in
          let names = match names with [] -> [ "fig9a" ] | ns -> ns in
          check_ids ~what:"target" ~known:ids names;
          List.iter
            (fun id ->
              let f = List.assoc id Harness.Experiments.drivers in
              Wlan_obs.Span.with_span id (fun () ->
                  ignore (f ?cfg:(Some cfg) ())))
            names;
          ("experiments", names)
    in
    Wlan_obs.Counters.set_enabled false;
    let report = Wlan_obs.Report.make ~label ~seed ~scenarios ~targets in
    Fmt.pr "%a@." Wlan_obs.Report.pp_text report;
    if not no_spans then begin
      Fmt.pr "@.wall-clock spans (nondeterministic, not in the report):@.";
      Fmt.pr "%a@." Wlan_obs.Span.pp_tree (Wlan_obs.Span.tree ())
    end;
    Option.iter (fun f -> write_file f (Wlan_obs.Report.json report)) out
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a workload with the observability planes on: deterministic \
          event counters (reported as versioned JSON, byte-identical at \
          any --jobs) plus a wall-clock span tree on stdout")
    Term.(
      const run $ verbose_term $ names $ scenarios_arg ~default:10 $ seed
      $ jobs $ out
      $ scenario_file $ script_file $ no_spans)

(* ---------------- serve / replay ---------------- *)

(* The resident association-control daemon (DESIGN.md §4.13): framed
   wlan-mcast-ev events in over stdin or a Unix socket, association
   deltas and quiescence summaries out, every accepted event and
   emitted decision appended to a deterministic replay log. The replay
   subcommand re-ingests such a log and regenerates it byte-for-byte. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

let scenario_digest_of sc =
  Digest.to_hex (Digest.string (Scenario_io.to_string sc))

let serve_config sc ~obj_label ~mode ~max_rounds ~queue_limit =
  let objective =
    try Mcast_serve.Replay_log.objective_of_label obj_label
    with Invalid_argument _ ->
      Fmt.epr "unknown objective %S (%s)@." obj_label (known_objectives []);
      exit 1
  in
  let mode = settle_mode mode in
  {
    Mcast_serve.Replay_log.objective;
    obj_label;
    mode;
    max_rounds;
    queue_limit;
    (* the scenario's model ladder, highest first — the same tiers the
       churn CLI passes to [Churn.run], so a Drift event means the same
       thing in the daemon and the simulator (for a Table model these
       are [Rate_table.rates], byte-identical to the historical
       sorted-rates derivation) *)
    tiers = Rate_model.tier_rates sc.Scenario.model;
    scenario_digest = Some (scenario_digest_of sc);
  }

(* Drain the decoder through the server, framing replies via [emit]. *)
let serve_drain server dec emit =
  let module P = Mcast_serve.Protocol in
  let rec go () =
    if not (Mcast_serve.Server.closed server) then
      match P.Decoder.next dec with
      | None -> ()
      | Some (P.Decoder.Frame payload) ->
          emit (Mcast_serve.Server.handle_frame server payload);
          go ()
      | Some (P.Decoder.Corrupt (code, detail)) ->
          emit [ P.Error { code; detail } ];
          go ()
  in
  go ()

let serve_over_channels server ic oc =
  let module P = Mcast_serve.Protocol in
  let dec = P.Decoder.create () in
  let emit outs =
    List.iter
      (fun o -> output_string oc (P.frame (P.render_output o)))
      outs;
    flush oc
  in
  let buf = Bytes.create 4096 in
  let rec loop () =
    if not (Mcast_serve.Server.closed server) then begin
      let n = input ic buf 0 (Bytes.length buf) in
      if n = 0 then begin
        (* end of stream: report a torn final frame, then quiesce *)
        if not (P.Decoder.at_boundary dec) then
          emit
            [
              P.Error
                {
                  code = P.Truncated;
                  detail = "stream ended inside a frame";
                };
            ];
        emit (Mcast_serve.Server.finish server)
      end
      else begin
        P.Decoder.feed dec (Bytes.sub_string buf 0 n);
        serve_drain server dec emit;
        loop ()
      end
    end
  in
  loop ()

let serve_cmd =
  let load, save = scenario_io_terms in
  let script_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Serve a canned workload: expand this churn script through \
                the event adapter and feed it to the daemon instead of \
                reading stdin.")
  in
  let save_events =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-events" ] ~docv:"FILE"
          ~doc:"With --script: write the framed event stream the daemon \
                consumed to FILE (a client could replay it verbatim).")
  in
  let log_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:"Write the deterministic replay log to FILE (see the \
                replay subcommand).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at PATH, serve exactly one \
                connection, then exit (default: stdin/stdout).")
  in
  let objective =
    Arg.(
      value & opt string "mnu"
      & info [ "objective"; "o" ] ~doc:"Algorithm variant: mnu, bla or mla.")
  in
  let mode =
    Arg.(
      value & opt string "sequential"
      & info [ "mode" ] ~doc:"Settle discipline: sequential or simultaneous.")
  in
  let max_rounds =
    Arg.(
      value & opt int 200
      & info [ "max-rounds" ] ~doc:"Decision-round cap per settle.")
  in
  let queue_limit =
    Arg.(
      value & opt int 256
      & info [ "queue-limit" ]
          ~doc:"Backpressure bound: a batch holding this many unsettled \
                events is settled immediately (flagged forced).")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Domains computing the snapshot baselines in parallel. The \
             serving loop is sequential and baseline results merge in \
             submission order, so replies and the replay log are \
             byte-identical for every value of $(docv).")
  in
  let run () net load save script_file save_events log_file socket objective
      mode max_rounds queue_limit jobs =
    let sc =
      match load with
      | Some path -> load_scenario path
      | None -> scenario_of net
    in
    Option.iter (fun path -> Scenario_io.to_file path sc) save;
    let p = Scenario.to_problem sc in
    let config =
      serve_config sc ~obj_label:objective ~mode ~max_rounds ~queue_limit
    in
    Harness.Pool.with_pool ~jobs:(Int.max 1 jobs) @@ fun pool ->
    let server =
      Mcast_serve.Server.create ~fanout:(Harness.Pool.run pool) ~config p
    in
    (match script_file with
    | Some f ->
        let script = load_churn f in
        let frames =
          match Mcast_serve.Adapter.frames_of_script script with
          | Ok s -> s
          | Error e ->
              Fmt.epr "%s@." (Mcast_serve.Adapter.error_message e);
              exit 1
        in
        Option.iter (fun path -> write_file path frames) save_events;
        let module P = Mcast_serve.Protocol in
        let dec = P.Decoder.create () in
        let emit outs =
          List.iter
            (fun o -> output_string stdout (P.frame (P.render_output o)))
            outs
        in
        P.Decoder.feed dec frames;
        serve_drain server dec emit;
        emit (Mcast_serve.Server.finish server);
        flush stdout
    | None -> (
        match socket with
        | None -> serve_over_channels server stdin stdout
        | Some path ->
            (try Unix.unlink path with Unix.Unix_error _ -> ());
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () ->
                Unix.close fd;
                try Unix.unlink path with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.bind fd (Unix.ADDR_UNIX path);
                Unix.listen fd 1;
                let cfd, _ = Unix.accept fd in
                let ic = Unix.in_channel_of_descr cfd in
                let oc = Unix.out_channel_of_descr cfd in
                Fun.protect
                  ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
                  (fun () -> serve_over_channels server ic oc))));
    Option.iter
      (fun path -> write_file path (Mcast_serve.Server.log_contents server))
      log_file;
    let st = Mcast_serve.Server.stats server in
    Fmt.epr
      "serve: %d events in %d batches (%d forced), %d deltas out, queue \
       peak %d, %d refused; final state %s@."
      st.Mcast_serve.Server.events st.batches st.forced_settles
      st.emitted_deltas st.queue_peak st.errors
      (Mcast_serve.Server.state_digest server)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident association-control daemon: framed \
          wlan-mcast-ev events in, association deltas out, with atomic \
          same-timestamp batching, bounded-queue backpressure and a \
          deterministic replay log")
    Term.(
      const run $ verbose_term $ net_term $ load $ save $ script_file
      $ save_events $ log_file $ socket $ objective $ mode $ max_rounds
      $ queue_limit $ jobs)

let replay_cmd =
  let scenario =
    Arg.(
      required
      & opt (some string) None
      & info [ "scenario" ] ~docv:"FILE"
          ~doc:"The scenario the logged session served (digest-checked \
                against the log header).")
  in
  let log_file =
    Arg.(
      required
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE" ~doc:"The replay log to re-ingest.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the regenerated log to FILE.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Verify bit-identity: the input log must be a prefix of \
                the regenerated one (byte-equal when it is complete); \
                exit 1 on divergence.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Domains for the snapshot baselines, as in serve — the \
                regenerated log is byte-identical for every value.")
  in
  let run () scenario log_file out check jobs =
    let text = read_file log_file in
    let header, entries =
      try Mcast_serve.Replay_log.parse text
      with Mcast_serve.Replay_log.Parse_error msg ->
        Fmt.epr "corrupt replay log: %s@." msg;
        exit 2
    in
    let sc = load_scenario scenario in
    (match header.Mcast_serve.Replay_log.scenario_digest with
    | Some d when d <> scenario_digest_of sc ->
        Fmt.epr
          "scenario digest mismatch: the log was recorded against a \
           different scenario@.";
        exit 2
    | _ -> ());
    let p = Scenario.to_problem sc in
    let events = Mcast_serve.Replay_log.events entries in
    Harness.Pool.with_pool ~jobs:(Int.max 1 jobs) @@ fun pool ->
    let server =
      Mcast_serve.Server.replay
        ~fanout:(Harness.Pool.run pool)
        ~config:header ~events p
    in
    let regen = Mcast_serve.Server.log_contents server in
    Option.iter (fun path -> write_file path regen) out;
    let digest = Mcast_serve.Server.state_digest server in
    if check then begin
      (* a crash can tear the final line: prefix identity is judged on
         the complete-line portion, exactly what parse replayed *)
      let complete =
        match String.rindex_opt text '\n' with
        | Some i -> String.sub text 0 (i + 1)
        | None -> ""
      in
      (* [complete] and [regen] are both prefixes of the uninterrupted
         log: [regen] falls short when the crash tore the log inside a
         settle's out-block whose triggering event was never written
         (the pending batch re-derives those lines once the trigger
         arrives). Divergence means the shorter is not a prefix of the
         longer. *)
      let n = min (String.length complete) (String.length regen) in
      if String.sub regen 0 n = String.sub complete 0 n then
        if
          String.length regen = String.length text
          && String.length complete = String.length text
        then
          Fmt.pr "replay OK: exact (%d bytes), %d events, state %s@."
            n (List.length events) digest
        else
          Fmt.pr
            "replay OK: recovered truncated log (%d bytes in, %d \
             regenerated), %d events, state %s@."
            (String.length text) (String.length regen) (List.length events)
            digest
      else begin
        Fmt.epr "replay MISMATCH: regenerated log diverges from the input@.";
        exit 1
      end
    end
    else Fmt.pr "replayed %d events, state %s@." (List.length events) digest
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-ingest a serve replay log against its scenario, regenerating \
          the decision log and final state bit-for-bit (--check verifies)")
    Term.(const run $ verbose_term $ scenario $ log_file $ out $ check $ jobs)

(* ---------------- example ---------------- *)

let example_cmd =
  let run () =
    let heavy = Examples.fig1 ~session_rate_mbps:3. in
    let light = Examples.fig1 ~session_rate_mbps:1. in
    Fmt.pr "Figure 1 at 3 Mbps (MNU regime):@.";
    List.iter
      (fun (n, f) -> Fmt.pr "  %-18s %a@." n Solution.pp (f heavy))
      [ ("ssa", Ssa.run); ("mnu", fun p -> Mnu.run p);
        ("mnu-distributed", fun p -> fst (Distributed.mnu p)) ];
    Fmt.pr "Figure 1 at 1 Mbps (BLA/MLA regime):@.";
    List.iter
      (fun (n, f) -> Fmt.pr "  %-18s %a@." n Solution.pp (f light))
      [
        ("mla", Mla.run);
        ("bla", fun p -> Bla.run_exn p);
        ("bla-distributed", fun p -> fst (Distributed.bla p));
      ]
  in
  Cmd.v
    (Cmd.info "example" ~doc:"Replay the paper's Figure 1 walk-throughs")
    Term.(const run $ const ())

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "wlan-mcast"
             ~doc:"Multicast association control for large-scale WLANs \
                   (ICDCS'07 reproduction)")
          [
            solve_cmd;
            simulate_cmd;
            analyze_cmd;
            figures_cmd;
            churn_cmd;
            serve_cmd;
            replay_cmd;
            profile_cmd;
            example_cmd;
          ]))
