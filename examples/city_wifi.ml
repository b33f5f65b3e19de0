(* City-scale WiFi: the paper's motivating deployments (Chaska, MN and
   Taipei — §1) in one end-to-end scenario that exercises every extension
   together:

   - a large municipal network (300 APs over 2 km x 2 km),
   - users clustered around downtown hotspots,
   - Zipf-skewed TV-channel popularity (everyone watches the news),
   - channel planning on 12 non-overlapping 802.11a channels plus
     residual co-channel interference accounting,
   - dual association (SSA unicast + MLA multicast),
   - and a day-in-the-life mobility run: bursts of users relocating
     between association epochs, with warm-started re-convergence.

   Run with: dune exec examples/city_wifi.exe *)

open Wlan_model
open Mcast_core

let () =
  (* ---- the city ---- *)
  let cfg =
    {
      Scenario_gen.paper_default with
      area_w = 2000.;
      area_h = 2000.;
      n_aps = 300;
      n_users = 600;
      n_sessions = 8;
      placement = Scenario_gen.Clustered { hotspots = 6; sigma_m = 120. };
      popularity = Scenario_gen.Zipf 1.2;
    }
  in
  let rng = Random.State.make [| 1789 |] in
  let scenario = Scenario_gen.generate ~rng cfg in
  let p = Scenario.to_problem scenario in
  Fmt.pr "=== City WiFi: %a ===@." Scenario.pp scenario;

  (* session popularity snapshot *)
  let counts = Array.make cfg.Scenario_gen.n_sessions 0 in
  Array.iter
    (fun s -> counts.(s) <- counts.(s) + 1)
    scenario.Scenario.user_session;
  Fmt.pr "channel audiences (Zipf 1.2): %a@.@."
    Fmt.(array ~sep:sp int)
    counts;

  (* ---- channel plan ---- *)
  let cs_range = 2. *. Rate_table.range Rate_table.default in
  let edges = Channels.conflict_edges ~range:cs_range scenario.Scenario.ap_pos in
  let plan = Channels.color ~n_channels:12 ~n_aps:cfg.Scenario_gen.n_aps edges in
  Fmt.pr "channel plan: %a@." Channels.pp plan;

  (* ---- association policies ---- *)
  let ssa = Ssa.run p in
  let mla = Mla.run p in
  let dmla, _ = Distributed.mla p in
  List.iter (fun (s : Solution.t) -> Fmt.pr "%a@." Solution.pp s)
    [ ssa; mla; dmla ];
  let interference assoc =
    Channels.total_interference plan ~loads:(Loads.ap_loads p assoc)
  in
  Fmt.pr
    "residual co-channel interference: SSA %.3f -> MLA %.3f (%.1f%% less)@.@."
    (interference ssa.Solution.assoc)
    (interference mla.Solution.assoc)
    ((interference ssa.Solution.assoc -. interference mla.Solution.assoc)
    /. Float.max 1e-9 (interference ssa.Solution.assoc)
    *. 100.);

  (* ---- dual association economics ---- *)
  let demands = Dual.uniform_demands p ~mbps:0.5 in
  let cmp = Dual.compare_single_vs_dual ~objective:`Mla p ~demands in
  Fmt.pr
    "combined airtime at 0.5 Mbps unicast/user: single-assoc %.2f, dual \
     %.2f (-%.1f%%), worst AP %.3f -> %.3f@.@."
    cmp.Dual.single.Dual.total cmp.Dual.dual.Dual.total
    cmp.Dual.total_saving_pct cmp.Dual.single.Dual.max cmp.Dual.dual.Dual.max;

  (* ---- a day in the life: mobility bursts over the air ---- *)
  Fmt.pr
    "--- mobility: 6 epochs, 15%% of users relocate, 5%% of APs down per \
     epoch ---@.";
  let reports =
    Wlan_sim.Mobility.run ~seed:11 ~move_fraction:0.15
      ~ap_failure_fraction:0.05 ~epochs:6 ~loss_rate:0.1
      ~policy:
        (Wlan_sim.Runner.Distributed_policy
           {
             objective = Distributed.Min_total_load;
             mode = `Sequential;
             max_passes = 30;
           })
      scenario
  in
  Fmt.pr "%-7s %-10s %-8s %-8s %-10s %-12s@." "epoch" "relocated" "rejoin"
    "passes" "served" "total load";
  List.iter
    (fun (e : Wlan_sim.Mobility.epoch_report) ->
      Fmt.pr "%-7d %-10d %-8d %-8d %-10d %-12.3f@." e.Wlan_sim.Mobility.epoch
        e.Wlan_sim.Mobility.relocated e.Wlan_sim.Mobility.rejoin_moves
        e.Wlan_sim.Mobility.report.Wlan_sim.Runner.passes
        e.Wlan_sim.Mobility.report.Wlan_sim.Runner.solution.Solution.satisfied
        e.Wlan_sim.Mobility.report.Wlan_sim.Runner.solution.Solution.total_load)
    reports;
  (* note: relocated users land uniformly, so the population gradually
     disperses from the hotspots and the absolute load drifts up; judge the
     protocol against the centralized algorithm on the *same* final
     topology *)
  let last = List.nth reports (List.length reports - 1) in
  let final_p = last.Wlan_sim.Mobility.report.Wlan_sim.Runner.problem in
  let final_mla = Mla.run final_p in
  Fmt.pr
    "@.steady state: %d/%d users streaming at %.1f%% of the airtime the \
     centralized algorithm needs on the same (dispersed) topology, with \
     10%% management-frame loss throughout.@."
    last.Wlan_sim.Mobility.report.Wlan_sim.Runner.solution.Solution.satisfied
    cfg.Scenario_gen.n_users
    (100.
    *. last.Wlan_sim.Mobility.report.Wlan_sim.Runner.solution.Solution
         .total_load
    /. final_mla.Solution.total_load)
