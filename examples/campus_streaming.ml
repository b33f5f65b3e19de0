(* Campus streaming: the paper's motivating scenario at full scale.

   A 1.2 km² campus WLAN with 200 APs serves 400 users who each watch one
   of 5 live streams (local news, TV channels, visitor information). We
   compare the 802.11 default (strongest-signal association) against the
   paper's MLA and BLA association control, then validate the winner
   end-to-end in the discrete-event simulator: actual scanning, the
   query/response protocol, and measured airtime.

   Run with: dune exec examples/campus_streaming.exe *)

open Wlan_model
open Mcast_core

let () =
  let cfg = { Scenario_gen.paper_default with n_aps = 200; n_users = 400 } in
  let rng = Random.State.make [| 42 |] in
  let scenario = Scenario_gen.generate ~rng cfg in
  let p = Scenario.to_problem scenario in
  Fmt.pr "=== Campus: %a ===@.@." Scenario.pp scenario;

  (* ---- planning: compare association policies analytically ---- *)
  let ssa = Ssa.run p in
  let mla = Mla.run p in
  let bla = Bla.run_exn ~mode:`Hard p in
  let dmla, _ = Distributed.mla p in
  let dbla, _ = Distributed.bla p in
  List.iter
    (fun (s : Solution.t) -> Fmt.pr "%a@." Solution.pp s)
    [ ssa; mla; dmla; bla; dbla ];
  Fmt.pr "@.total-load reduction vs SSA: centralized %.1f%%, distributed %.1f%%@."
    ((ssa.Solution.total_load -. mla.Solution.total_load)
    /. ssa.Solution.total_load *. 100.)
    ((ssa.Solution.total_load -. dmla.Solution.total_load)
    /. ssa.Solution.total_load *. 100.);
  Fmt.pr "max-load reduction vs SSA:   centralized %.1f%%, distributed %.1f%%@.@."
    ((ssa.Solution.max_load -. bla.Solution.max_load)
    /. ssa.Solution.max_load *. 100.)
    ((ssa.Solution.max_load -. dbla.Solution.max_load)
    /. ssa.Solution.max_load *. 100.);

  (* ---- deployment: push the centralized MLA association into the
          simulator and measure real airtime ---- *)
  Fmt.pr "--- deploying centralized MLA in the simulator ---@.";
  let report =
    Wlan_sim.Runner.run ~streaming_window:1.0
      ~policy:(Wlan_sim.Runner.Static_policy mla.Solution.assoc)
      scenario
  in
  let worst_gap =
    Array.map2
      (fun m a -> Float.abs (m -. a))
      report.Wlan_sim.Runner.measured_loads report.Wlan_sim.Runner.analytic_loads
    |> Array.fold_left Float.max 0.
  in
  Fmt.pr
    "simulated %d events over %.2fs of virtual time@.\
     measured total load %.3f (analytic %.3f), worst per-AP gap %.4f@.@."
    report.Wlan_sim.Runner.events report.Wlan_sim.Runner.sim_time
    (Array.fold_left ( +. ) 0. report.Wlan_sim.Runner.measured_loads)
    mla.Solution.total_load worst_gap;

  (* ---- and let the distributed protocol find its own association ---- *)
  Fmt.pr "--- running the distributed MLA protocol over the air ---@.";
  let report =
    Wlan_sim.Runner.run
      ~policy:
        (Wlan_sim.Runner.Distributed_policy
           {
             objective = Distributed.Min_total_load;
             mode = `Sequential;
             max_passes = 30;
           })
      scenario
  in
  Fmt.pr
    "protocol converged: %b after %d passes, %d simulation events@.\
     satisfied %d/400 users, total load %.3f (centralized got %.3f)@."
    report.Wlan_sim.Runner.converged report.Wlan_sim.Runner.passes
    report.Wlan_sim.Runner.events
    report.Wlan_sim.Runner.solution.Solution.satisfied
    report.Wlan_sim.Runner.solution.Solution.total_load
    mla.Solution.total_load
