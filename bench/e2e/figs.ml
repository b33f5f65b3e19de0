(* paper-figs: the §7 evaluation as a researcher reruns it — the
   Harness.Experiments drivers of Figs. 9-11 at 2 × --seconds scenarios
   per point (the paper's 40 at --seconds 20) on a [min 2 nproc] pool.
   Dense problems only; it never reaches Online, Shard, Sparse.Grid or
   mcast_serve. *)

open Wlan_model
open Mcast_core
open Common

let panels = [ "fig9a"; "fig9b"; "fig9c"; "fig10a"; "fig10b"; "fig10c"; "fig11" ]

(* The abstract's headline directions: (panel, series, relation to SSA,
   x). *)
let headlines =
  [
    ("fig9a", "MLA-centralized", `Below, 400.);
    ("fig10a", "BLA-centralized", `Below, 400.);
    ("fig11", "MNU-centralized", `Above, 0.04);
  ]

let finite_figure (f : Harness.Series.figure) =
  List.for_all
    (fun (pt : Harness.Series.point) ->
      Float.is_finite pt.x
      && List.for_all
           (fun (_, (s : Harness.Stats.summary)) ->
             Float.is_finite s.mean && Float.is_finite s.min
             && Float.is_finite s.max)
           pt.values)
    f.points

let headline_holds (f : Harness.Series.figure) =
  List.for_all
    (fun (id, series, rel, x) ->
      (not (String.equal id f.id))
      ||
      match
        (Harness.Series.mean_at f series x, Harness.Series.mean_at f "SSA" x)
      with
      | Some a, Some ssa -> ( match rel with `Below -> a < ssa | `Above -> a > ssa)
      | _ -> false)
    headlines

(* The problems of fig9a's largest point, generated and compiled
   through a fresh pool: the input preparation each panel repeats per
   point, and the pool spawn every driver pays. *)
let setup_once ~jobs ~seed ~scenarios =
  let gen = { Scenario_gen.paper_default with n_aps = 200; n_users = 400 } in
  snd
    (time (fun () ->
         Harness.Pool.with_pool ~jobs (fun pool ->
             Harness.Pool.run pool
               (List.init scenarios (fun index () ->
                    ignore (Scenario_gen.nth_problem ~seed ~index gen))))))

let config ~jobs ~seed ~scenarios =
  { Harness.Experiments.default_config with scenarios; seed; jobs }

let run ~jobs ~seed ~scenarios ~panels ~setup_reps ~peak_mem_mb ~smoke =
  let ops = new_ops () and host = start_host ~smoke in
  let reps, setup =
    segment host (fun () ->
        Array.init setup_reps (fun _ -> setup_once ~jobs ~seed ~scenarios))
  in
  let cfg = config ~jobs ~seed ~scenarios in
  let c0 = Sys.time () in
  let timed =
    List.map
      (fun id ->
        let driver = List.assoc id Harness.Experiments.drivers in
        let fig, wall = segment host (fun () -> driver ~cfg ()) in
        check ops
          (finite_figure fig && headline_holds fig)
          (id ^ ": non-finite point or headline direction lost");
        (id, wall))
      panels
  in
  let cpu = Sys.time () -. c0 in
  let work = List.map snd timed in
  let metrics, detail =
    e2e_metrics host
      ~setup:{ setup with wall = median reps }
      ~work
      ~latencies_ms:(List.map (fun t -> { t with wall = 1e3 *. t.wall }) work)
      ~peak_mem_mb:(peak_mem_mb ())
  in
  {
    workload = "paper-figs";
    seed;
    ops;
    metrics =
      metrics
      @ List.map (fun (id, t) -> m Diag ("figs." ^ id ^ "_s") "s" t.wall) timed
      @ [
          m Diag "harness.cpu_wall_ratio" "ratio"
            (ratio cpu (List.fold_left (fun a t -> a +. t.wall) 0. work));
          m Diag "process.peak_mem_mb" "MB" (vm_hwm_mb "self");
        ];
    extra = [ ("scenarios", Int scenarios); ("jobs", Int jobs) ] @ detail;
  }

(* The single-domain memory pass behind [peak_mem_mb]: fig9a, which
   holds a point's problems at once, at the run's scenario count. *)
let memory_pass ~seed ~scenarios =
  ignore (Harness.Experiments.fig9a ~cfg:(config ~jobs:1 ~seed ~scenarios) ())

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed sample of paper_default scenarios through every algorithm
   the panels run, each solution validated: SSA, MLA-c/d, BLA-c (Hard,
   as the figures use) /d and MNU-c/d at fig11's 0.05 budget point.
   Then every panel's driver once at [scenarios] per point on the
   [jobs] pool: one span per driver on the main domain, and the pool's
   CPU over wall time. *)
let pipeline ~seed ~sample ~jobs ~scenarios ops () =
  let gen = Scenario_gen.paper_default in
  for i = 0 to sample - 1 do
    let sc = Scenario_gen.generate ~rng:(Scenario_gen.scenario_rng ~seed i) gen in
    let p =
      Tracer.call "wlan_model.Scenario.to_problem" (fun () ->
          Scenario.to_problem sc)
    in
    let coverable = List.length (Problem.coverable_users p) in
    let tag what = Printf.sprintf "scenario %d: %s" i what in
    let covers what (s : Solution.t) =
      check ops
        (Solution.in_range_ok p s && s.satisfied = coverable)
        (tag (what ^ " left a coverable user unserved"))
    in
    let within what q (s : Solution.t) =
      check ops
        (Solution.in_range_ok q s && Solution.respects_budget q s)
        (tag (what ^ " broke the budget"))
    in
    let converged what q (s, (o : Distributed.outcome)) =
      check ops o.converged (tag (what ^ " did not converge"));
      within what q s
    in
    ignore
      (Tracer.call "mcast_core.Reduction.cover_instance" (fun () ->
           Reduction.cover_instance p));
    within "SSA" p (Tracer.call "mcast_core.Ssa.run" (fun () -> Ssa.run p));
    covers "MLA-centralized"
      (Tracer.call "mcast_core.Mla.run" (fun () -> Mla.run p));
    converged "MLA-distributed" p
      (Tracer.call "mcast_core.Distributed.mla" (fun () -> Distributed.mla p));
    covers "BLA-centralized"
      (Tracer.call "mcast_core.Bla.run_exn" (fun () -> Bla.run_exn ~mode:`Hard p));
    converged "BLA-distributed" p
      (Tracer.call "mcast_core.Distributed.bla" (fun () -> Distributed.bla p));
    let q = Problem.with_budget p 0.05 in
    within "MNU-centralized" q
      (Tracer.call "mcast_core.Mnu.run" (fun () -> Mnu.run q));
    converged "MNU-distributed" q
      (Tracer.call "mcast_core.Distributed.mnu" (fun () -> Distributed.mnu q))
  done;
  let cfg = config ~jobs ~seed ~scenarios in
  let c0 = Sys.time () in
  let (), wall =
    time (fun () ->
        List.iter
          (fun id ->
            let driver = List.assoc id Harness.Experiments.drivers in
            let fig =
              Tracer.call ("harness.Experiments." ^ id) (fun () -> driver ~cfg ())
            in
            check ops (finite_figure fig) (id ^ ": non-finite point"))
          panels)
  in
  [ m Layer "harness.cpu_wall_ratio" "ratio" (ratio (Sys.time () -. c0) wall) ]
