(* Tests for the extension features around the paper's core: channel
   planning + co-channel interference (§8), dual association (§3.1 /
   WiMesh'05), workload generalizations (Zipf popularity, clustered
   placement), protocol robustness to message loss, and quasi-static
   mobility across epochs. *)

open Wlan_model
open Mcast_core

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Channels                                                           *)
(* ------------------------------------------------------------------ *)

let line_aps = [| Point.v 0. 0.; Point.v 100. 0.; Point.v 200. 0.; Point.v 300. 0. |]

let test_conflict_edges_line () =
  (* 150 m conflict range on a 100 m-spaced line: only adjacent APs *)
  let edges = Channels.conflict_edges ~range:150. line_aps in
  Alcotest.(check (list (pair int int))) "adjacent pairs"
    [ (0, 1); (1, 2); (2, 3) ]
    (List.sort compare edges)

let test_coloring_path_two_channels () =
  let edges = Channels.conflict_edges ~range:150. line_aps in
  let a = Channels.color ~n_channels:2 ~n_aps:4 edges in
  Alcotest.(check int) "proper coloring" 0 a.Channels.residual_conflicts;
  List.iter
    (fun (i, j) ->
      if a.Channels.channels.(i) = a.Channels.channels.(j) then
        Alcotest.fail "adjacent APs share a channel")
    edges

let test_coloring_triangle_short () =
  (* a triangle needs 3 colors; with 2 channels one edge must clash *)
  let aps = [| Point.v 0. 0.; Point.v 10. 0.; Point.v 5. 8. |] in
  let edges = Channels.conflict_edges ~range:50. aps in
  Alcotest.(check int) "3 edges" 3 (List.length edges);
  let a2 = Channels.color ~n_channels:2 ~n_aps:3 edges in
  Alcotest.(check int) "one residual" 1 a2.Channels.residual_conflicts;
  let a3 = Channels.color ~n_channels:3 ~n_aps:3 edges in
  Alcotest.(check int) "clean with 3" 0 a3.Channels.residual_conflicts

let test_co_channel_interference_accounting () =
  let aps = [| Point.v 0. 0.; Point.v 10. 0.; Point.v 500. 0. |] in
  let edges = Channels.conflict_edges ~range:50. aps in
  (* force both close APs onto channel 0 *)
  let a =
    {
      Channels.channels = [| 0; 0; 0 |];
      n_channels = 1;
      conflict_edges = edges;
      residual_conflicts = List.length edges;
    }
  in
  let loads = [| 0.2; 0.3; 0.4 |] in
  (* ap0 hears ap1's 0.3, ap1 hears ap0's 0.2, ap2 is isolated *)
  check_float "total" 0.5 (Channels.total_interference a ~loads)

let prop_coloring_proper_with_enough_channels =
  QCheck.Test.make ~name:"coloring is proper given >= n_aps channels"
    ~count:100
    QCheck.(pair (int_range 1 20) (int_range 0 1_000_000))
    (fun (n_aps, seed) ->
      let rng = Random.State.make [| seed |] in
      let aps =
        Array.init n_aps (fun _ -> Point.random ~rng ~w:500. ~h:500.)
      in
      let edges = Channels.conflict_edges ~range:200. aps in
      let a = Channels.color ~n_channels:n_aps ~n_aps edges in
      a.Channels.residual_conflicts = 0)

let prop_residual_count_consistent =
  QCheck.Test.make ~name:"residual conflict count matches the assignment"
    ~count:100
    QCheck.(pair (int_range 2 15) (int_range 0 1_000_000))
    (fun (n_aps, seed) ->
      let rng = Random.State.make [| seed |] in
      let aps =
        Array.init n_aps (fun _ -> Point.random ~rng ~w:300. ~h:300.)
      in
      let edges = Channels.conflict_edges ~range:250. aps in
      let a = Channels.color ~n_channels:3 ~n_aps edges in
      let recount =
        List.length
          (List.filter
             (fun (i, j) -> a.Channels.channels.(i) = a.Channels.channels.(j))
             edges)
      in
      recount = a.Channels.residual_conflicts)

(* the paper's implicit claim: MLA reduces residual interference vs SSA *)
let test_mla_reduces_interference () =
  let p, sc =
    let rng = Random.State.make [| 12 |] in
    let sc =
      Scenario_gen.generate ~rng
        {
          Scenario_gen.paper_default with
          n_aps = 60;
          n_users = 150;
          area_w = 600.;
          area_h = 600.;
        }
    in
    (Scenario.to_problem sc, sc)
  in
  let edges = Channels.conflict_edges ~range:400. sc.Scenario.ap_pos in
  let a = Channels.color ~n_channels:3 ~n_aps:60 edges in
  QCheck.assume (a.Channels.residual_conflicts > 0);
  let interference assoc =
    Channels.total_interference a ~loads:(Loads.ap_loads p assoc)
  in
  let ssa = interference (Ssa.run p).Solution.assoc in
  let mla = interference (Mla.run p).Solution.assoc in
  Alcotest.(check bool) "MLA interferes less" true (mla <= ssa +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Dual association                                                   *)
(* ------------------------------------------------------------------ *)

let fig1_1m = Examples.fig1 ~session_rate_mbps:1.

let test_unicast_loads () =
  (* u1 (rate 3) and u2 (rate 6) on a1 with 1 Mbps demand each:
     1/3 + 1/6 = 1/2 airtime *)
  let assoc : Association.t = [| 0; 0; -1; -1; -1 |] in
  let demands = Dual.uniform_demands fig1_1m ~mbps:1. in
  let loads = Dual.unicast_loads fig1_1m ~demands assoc in
  check_float "a1 unicast airtime" 0.5 loads.(0);
  check_float "a2 idle" 0. loads.(1)

let test_combined_adds_both () =
  let t =
    {
      Dual.unicast = [| 0; 0; -1; -1; -1 |];
      multicast = [| -1; -1; 1; 1; 1 |];
    }
  in
  let demands = Dual.uniform_demands fig1_1m ~mbps:1. in
  let c = Dual.combined fig1_1m ~demands t in
  (* a1: unicast 1/2; a2: multicast s1@5 + s2@3 = 1/5 + 1/3 *)
  check_float "a1" 0.5 c.Dual.per_ap.(0);
  check_float "a2" ((1. /. 5.) +. (1. /. 3.)) c.Dual.per_ap.(1);
  check_float "total" (0.5 +. (1. /. 5.) +. (1. /. 3.)) c.Dual.total;
  Alcotest.(check int) "none overloaded" 0 c.Dual.overloaded

let test_single_association_shares_ap () =
  let t = Dual.single_association fig1_1m in
  Alcotest.(check bool) "same AP for both roles" true
    (t.Dual.unicast = t.Dual.multicast)

let test_dual_saves_airtime_on_campus () =
  let p =
    List.hd
      (Scenario_gen.problems ~seed:9 ~n:1
         { Scenario_gen.paper_default with n_aps = 100; n_users = 200 })
  in
  let demands = Dual.uniform_demands p ~mbps:0.5 in
  let c = Dual.compare_single_vs_dual ~objective:`Mla p ~demands in
  Alcotest.(check bool) "dual total <= single total" true
    (c.Dual.dual.Dual.total <= c.Dual.single.Dual.total +. 1e-9);
  Alcotest.(check bool) "saving percentage consistent" true
    (feq ~eps:1e-6
       (c.Dual.single.Dual.total *. (1. -. (c.Dual.total_saving_pct /. 100.)))
       c.Dual.dual.Dual.total)

let test_dual_max_saving_consistent () =
  let p =
    List.hd
      (Scenario_gen.problems ~seed:19 ~n:1
         { Scenario_gen.paper_default with n_aps = 40; n_users = 80 })
  in
  let demands = Dual.uniform_demands p ~mbps:1. in
  let c = Dual.compare_single_vs_dual p ~demands in
  check_float ~eps:1e-6 "max saving percentage consistent"
    (c.Dual.single.Dual.max *. (1. -. (c.Dual.max_saving_pct /. 100.)))
    c.Dual.dual.Dual.max

let test_dual_measured_in_simulator () =
  (* push a dual plan into the DES with unicast background traffic and
     check the measured combined airtime against the analytic model *)
  let rng = Random.State.make [| 14 |] in
  let sc =
    Scenario_gen.generate ~rng
      {
        Scenario_gen.paper_default with
        n_aps = 15;
        n_users = 30;
        area_w = 500.;
        area_h = 500.;
      }
  in
  let p = Scenario.to_problem sc in
  let demands = Dual.uniform_demands p ~mbps:0.5 in
  let plan = Dual.plan ~objective:`Mla p in
  let r =
    Wlan_sim.Runner.run ~streaming_window:2.0 ~unicast_demands:demands
      ~policy:(Wlan_sim.Runner.Static_policy plan.Dual.multicast)
      sc
  in
  let analytic = Dual.combined p ~demands plan in
  Array.iteri
    (fun a m ->
      let expect = analytic.Dual.per_ap.(a) in
      if Float.abs (m -. expect) > (0.05 *. Float.max expect 0.02) +. 1e-6 then
        Alcotest.failf "ap %d: measured %.4f vs analytic %.4f" a m expect)
    r.Wlan_sim.Runner.measured_loads

let prop_dual_unicast_side_is_ssa =
  QCheck.Test.make ~name:"dual unicast side = strongest signal for everyone"
    ~count:50
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 0 100_000 in
         return
           (List.hd
              (Scenario_gen.problems ~seed ~n:1
                 {
                   Scenario_gen.paper_default with
                   n_aps = 10;
                   n_users = 20;
                   area_w = 500.;
                   area_h = 500.;
                 }))))
    (fun p ->
      let t = Dual.plan ~objective:`Mla p in
      let _, n_users = Problem.dims p in
      let ok = ref true in
      for u = 0 to n_users - 1 do
        if Association.ap_of t.Dual.unicast u <> Problem.strongest_ap p u then
          ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Workload generalizations                                           *)
(* ------------------------------------------------------------------ *)

let test_zipf_skews_sessions () =
  let cfg =
    {
      Scenario_gen.paper_default with
      n_aps = 10;
      n_users = 2000;
      n_sessions = 10;
      popularity = Scenario_gen.Zipf 1.5;
      ensure_coverage = false;
    }
  in
  let rng = Random.State.make [| 8 |] in
  let sc = Scenario_gen.generate ~rng cfg in
  let counts = Array.make 10 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) sc.Scenario.user_session;
  Alcotest.(check bool) "session 0 dominates" true
    (counts.(0) > 3 * counts.(9));
  Alcotest.(check bool) "monotone-ish head" true (counts.(0) > counts.(4))

let test_clustered_placement_concentrates () =
  let base =
    {
      Scenario_gen.paper_default with
      n_aps = 5;
      n_users = 300;
      ensure_coverage = false;
    }
  in
  let spread cfg seed =
    let rng = Random.State.make [| seed |] in
    let sc = Scenario_gen.generate ~rng cfg in
    (* mean distance to the users' centroid *)
    let n = float_of_int (Array.length sc.Scenario.user_pos) in
    let cx =
      Array.fold_left (fun a p -> a +. p.Point.x) 0. sc.Scenario.user_pos /. n
    in
    let cy =
      Array.fold_left (fun a p -> a +. p.Point.y) 0. sc.Scenario.user_pos /. n
    in
    Array.fold_left
      (fun a p -> a +. Point.dist p (Point.v cx cy))
      0. sc.Scenario.user_pos
    /. n
  in
  let uniform = spread base 3 in
  let clustered =
    spread
      {
        base with
        placement = Scenario_gen.Clustered { hotspots = 2; sigma_m = 40. };
      }
      3
  in
  Alcotest.(check bool) "clustered users concentrate" true
    (clustered < uniform)

let test_clustered_stays_in_area () =
  let cfg =
    {
      Scenario_gen.paper_default with
      n_users = 500;
      area_w = 300.;
      area_h = 300.;
      placement = Scenario_gen.Clustered { hotspots = 3; sigma_m = 200. };
      ensure_coverage = false;
    }
  in
  let rng = Random.State.make [| 4 |] in
  let sc = Scenario_gen.generate ~rng cfg in
  Array.iter
    (fun p ->
      if p.Point.x < 0. || p.Point.x > 300. || p.Point.y < 0. || p.Point.y > 300.
      then Alcotest.fail "user escaped the deployment area")
    sc.Scenario.user_pos

let prop_generator_deterministic_with_extensions =
  QCheck.Test.make ~name:"extended generator is seed-deterministic" ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let cfg =
        {
          Scenario_gen.paper_default with
          n_aps = 10;
          n_users = 30;
          placement = Scenario_gen.Clustered { hotspots = 2; sigma_m = 50. };
          popularity = Scenario_gen.Zipf 1.2;
        }
      in
      let a = Scenario_gen.problems ~seed ~n:1 cfg in
      let b = Scenario_gen.problems ~seed ~n:1 cfg in
      Problem.rates_matrix (List.hd a) = Problem.rates_matrix (List.hd b)
      && Problem.((List.hd a).user_session = (List.hd b).user_session))

(* ------------------------------------------------------------------ *)
(* Message loss robustness                                            *)
(* ------------------------------------------------------------------ *)

let small_scenario seed =
  let rng = Random.State.make [| seed |] in
  Scenario_gen.generate ~rng
    {
      Scenario_gen.paper_default with
      n_aps = 20;
      n_users = 40;
      area_w = 600.;
      area_h = 600.;
    }

let dist_policy =
  Wlan_sim.Runner.Distributed_policy
    {
      objective = Distributed.Min_total_load;
      mode = Wlan_sim.Runner.Sequential;
      max_passes = 40;
    }

let test_loss_free_equals_lossy_zero () =
  let sc = small_scenario 5 in
  let a = Wlan_sim.Runner.run ~policy:dist_policy sc in
  let b = Wlan_sim.Runner.run ~loss_rate:0. ~policy:dist_policy sc in
  Alcotest.(check bool) "identical" true
    (a.Wlan_sim.Runner.assoc = b.Wlan_sim.Runner.assoc)

let test_moderate_loss_still_serves_everyone () =
  let sc = small_scenario 6 in
  let r = Wlan_sim.Runner.run ~loss_rate:0.4 ~policy:dist_policy sc in
  let coverable =
    List.length (Problem.coverable_users (Scenario.to_problem sc))
  in
  Alcotest.(check bool) "converged" true r.Wlan_sim.Runner.converged;
  Alcotest.(check int) "everyone served despite 40% loss" coverable
    r.Wlan_sim.Runner.solution.Solution.satisfied

let test_total_loss_serves_nobody () =
  let sc = small_scenario 7 in
  let r = Wlan_sim.Runner.run ~loss_rate:1.0 ~policy:dist_policy sc in
  Alcotest.(check int) "nobody served" 0
    r.Wlan_sim.Runner.solution.Solution.satisfied;
  Alcotest.(check bool) "still terminates" true r.Wlan_sim.Runner.converged

let test_loss_costs_extra_passes () =
  let sc = small_scenario 8 in
  let clean = Wlan_sim.Runner.run ~policy:dist_policy sc in
  let lossy = Wlan_sim.Runner.run ~loss_rate:0.6 ~policy:dist_policy sc in
  Alcotest.(check bool) "lossy needs at least as many passes" true
    (lossy.Wlan_sim.Runner.passes >= clean.Wlan_sim.Runner.passes)

(* ------------------------------------------------------------------ *)
(* Mobility                                                           *)
(* ------------------------------------------------------------------ *)

let test_mobility_epochs () =
  let sc = small_scenario 9 in
  let reports =
    Wlan_sim.Mobility.run ~seed:1 ~move_fraction:0.25 ~epochs:4
      ~policy:dist_policy sc
  in
  Alcotest.(check int) "4 epochs" 4 (List.length reports);
  let first = List.hd reports in
  Alcotest.(check int) "no relocation in epoch 1" 0
    first.Wlan_sim.Mobility.relocated;
  List.iteri
    (fun i (e : Wlan_sim.Mobility.epoch_report) ->
      if i > 0 then
        Alcotest.(check int)
          (Fmt.str "epoch %d relocations" e.Wlan_sim.Mobility.epoch)
          10 e.Wlan_sim.Mobility.relocated;
      Alcotest.(check bool) "converged" true
        e.Wlan_sim.Mobility.report.Wlan_sim.Runner.converged;
      Alcotest.(check bool) "in range" true
        (Mcast_core.Solution.in_range_ok
           e.Wlan_sim.Mobility.report.Wlan_sim.Runner.problem
           e.Wlan_sim.Mobility.report.Wlan_sim.Runner.solution))
    reports

let test_mobility_warm_start_cheaper_than_cold () =
  (* rejoin churn after a 10% move burst should stay well below n_users *)
  let sc = small_scenario 10 in
  let reports =
    Wlan_sim.Mobility.run ~seed:2 ~move_fraction:0.1 ~epochs:3
      ~policy:dist_policy sc
  in
  List.iteri
    (fun i (e : Wlan_sim.Mobility.epoch_report) ->
      if i > 0 then
        Alcotest.(check bool)
          (Fmt.str "epoch %d churn bounded" e.Wlan_sim.Mobility.epoch)
          true
          (e.Wlan_sim.Mobility.rejoin_moves <= 20))
    reports

let test_mobility_with_zapping () =
  (* channel changes alone (no movement) also force re-association work *)
  let sc = small_scenario 12 in
  let reports =
    Wlan_sim.Mobility.run ~seed:5 ~move_fraction:0. ~session_churn:0.3
      ~epochs:3 ~policy:dist_policy sc
  in
  let coverable =
    List.length (Problem.coverable_users (Scenario.to_problem sc))
  in
  List.iter
    (fun (e : Wlan_sim.Mobility.epoch_report) ->
      Alcotest.(check bool) "converged" true
        e.Wlan_sim.Mobility.report.Wlan_sim.Runner.converged;
      Alcotest.(check int) "everyone still served" coverable
        e.Wlan_sim.Mobility.report.Wlan_sim.Runner.solution.Solution.satisfied)
    reports;
  (* sessions actually changed between epochs *)
  let sessions_of (e : Wlan_sim.Mobility.epoch_report) =
    Array.copy
      Problem.(e.Wlan_sim.Mobility.report.Wlan_sim.Runner.problem.user_session)
  in
  let first = sessions_of (List.hd reports) in
  let last = sessions_of (List.nth reports 2) in
  Alcotest.(check bool) "some user zapped" true (first <> last)

let test_zap_function () =
  let sc = small_scenario 13 in
  let rng = Random.State.make [| 6 |] in
  let sc', k = Wlan_sim.Mobility.zap ~rng ~fraction:0.5 sc in
  Alcotest.(check int) "half the users" 20 k;
  Alcotest.(check bool) "positions untouched" true
    (sc'.Scenario.user_pos == sc.Scenario.user_pos
    || sc'.Scenario.user_pos = sc.Scenario.user_pos)

let test_disabled_aps_never_serve () =
  let sc = small_scenario 14 in
  let disabled = [ 0; 3; 7 ] in
  let r = Wlan_sim.Runner.run ~disabled_aps:disabled ~policy:dist_policy sc in
  Array.iteri
    (fun u a ->
      if List.mem a disabled then
        Alcotest.failf "user %d associated with dead AP %d" u a)
    r.Wlan_sim.Runner.assoc;
  Alcotest.(check bool) "converged" true r.Wlan_sim.Runner.converged

let test_ap_failures_across_epochs () =
  (* users ride out transient AP outages: every epoch converges and the
     survivors' budgets still hold *)
  let sc = small_scenario 15 in
  let reports =
    Wlan_sim.Mobility.run ~seed:7 ~move_fraction:0. ~ap_failure_fraction:0.2
      ~epochs:4 ~policy:dist_policy sc
  in
  List.iter
    (fun (e : Wlan_sim.Mobility.epoch_report) ->
      Alcotest.(check bool) "converged" true
        e.Wlan_sim.Mobility.report.Wlan_sim.Runner.converged;
      Alcotest.(check bool) "in range" true
        (Mcast_core.Solution.in_range_ok
           e.Wlan_sim.Mobility.report.Wlan_sim.Runner.problem
           e.Wlan_sim.Mobility.report.Wlan_sim.Runner.solution))
    reports

let test_interference_aware_mla () =
  (* with a 3-channel plan, lambda > 0 must not increase interference and
     lambda = 0 must match plain MLA *)
  let rng = Random.State.make [| 16 |] in
  let sc =
    Scenario_gen.generate ~rng
      {
        Scenario_gen.paper_default with
        n_aps = 50;
        n_users = 120;
        area_w = 600.;
        area_h = 600.;
      }
  in
  let p = Scenario.to_problem sc in
  let edges =
    Channels.conflict_edges
      ~range:(2. *. Rate_table.range Rate_table.default)
      sc.Scenario.ap_pos
  in
  let plan = Channels.color ~n_channels:3 ~n_aps:50 edges in
  let interference (sol : Solution.t) =
    Channels.total_interference plan ~loads:sol.Solution.ap_loads
  in
  let plain = Mla.run p in
  let zero = Mla.run_interference_aware ~channels:plan ~lambda:0. p in
  let aware = Mla.run_interference_aware ~channels:plan ~lambda:2. p in
  check_float "lambda=0 equals plain MLA" plain.Solution.total_load
    zero.Solution.total_load;
  Alcotest.(check int) "still serves everyone"
    plain.Solution.satisfied aware.Solution.satisfied;
  Alcotest.(check bool) "less interference-weighted airtime" true
    (interference aware <= interference plain +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Per-AP power control (§8)                                          *)
(* ------------------------------------------------------------------ *)

let power_scenario () =
  let rng = Random.State.make [| 23 |] in
  Scenario_gen.generate ~rng
    {
      Scenario_gen.paper_default with
      n_aps = 40;
      n_users = 80;
      area_w = 500.;
      area_h = 500.;
    }

let test_power_problem_with_powers () =
  let sc = power_scenario () in
  let n = Scenario.n_aps sc in
  let factors = [| 1.0; 0.8; 0.6; 0.4 |] in
  (* full power reproduces the plain compilation *)
  let full = Power.problem_with_powers sc ~factors ~levels:(Array.make n 0) in
  let plain = Scenario.to_problem sc in
  Alcotest.(check bool) "full power = plain" true
    (Problem.rates_matrix full = Problem.rates_matrix plain);
  (* dropping one AP to the lowest level only shrinks that AP's links *)
  let levels = Array.make n 0 in
  levels.(0) <- Array.length factors - 1;
  let mixed = Power.problem_with_powers sc ~factors ~levels in
  for u = 0 to Scenario.n_users sc - 1 do
    if Problem.link_rate mixed ~ap:0 ~user:u
       > Problem.link_rate plain ~ap:0 ~user:u +. 1e-9
    then Alcotest.fail "lower power raised a rate";
    for a = 1 to n - 1 do
      if
        Problem.link_rate mixed ~ap:a ~user:u
        <> Problem.link_rate plain ~ap:a ~user:u
      then Alcotest.fail "other APs must be untouched"
    done
  done

let test_power_optimize () =
  let sc = power_scenario () in
  let edges =
    Channels.conflict_edges
      ~range:(2. *. Rate_table.range Rate_table.default)
      sc.Scenario.ap_pos
  in
  let channels = Channels.color ~n_channels:3 ~n_aps:(Scenario.n_aps sc) edges in
  let plan = Power.optimize ~channels ~mu:0.3 sc in
  Alcotest.(check bool) "objective never worse than full power" true
    (plan.Power.objective <= plan.Power.full_power_objective +. 1e-9);
  Alcotest.(check bool) "levels in range" true
    (Array.for_all
       (fun l -> l >= 0 && l < Array.length plan.Power.factors)
       plan.Power.levels);
  (* coverage is preserved *)
  let plain = Scenario.to_problem sc in
  Alcotest.(check int) "no user lost"
    (List.length (Problem.coverable_users plain))
    (List.length (Problem.coverable_users plan.Power.problem));
  Alcotest.(check int) "still serves everyone"
    (List.length (Problem.coverable_users plain))
    plan.Power.solution.Solution.satisfied;
  (* with a strong interference weight on a dense network, someone
     actually sheds power *)
  Alcotest.(check bool) "some AP reduced power" true
    (Power.reduced_count plan > 0)

let test_power_mu_zero_objective_is_pure_load () =
  (* with mu = 0 the objective is exactly the MLA total load. Note that
     power reductions can still happen: pruning an AP's rate options can
     steer the *greedy* cover out of a trap (only optimal MLA is monotone
     in power), and coordinate descent is free to exploit that. *)
  let sc = power_scenario () in
  let edges = Channels.conflict_edges ~range:400. sc.Scenario.ap_pos in
  let channels = Channels.color ~n_channels:3 ~n_aps:(Scenario.n_aps sc) edges in
  let plan = Power.optimize ~channels ~mu:0. sc in
  check_float ~eps:1e-9 "objective = total load"
    plan.Power.solution.Solution.total_load plan.Power.objective;
  let full_power_total = (Mla.run (Scenario.to_problem sc)).Solution.total_load in
  Alcotest.(check bool) "never worse than full-power MLA" true
    (plan.Power.solution.Solution.total_load <= full_power_total +. 1e-9)

(* The ext-power figure driver as [wlan-mcast figures ext-power
   --scenarios 2 --seed 7] runs it: one of its instances has a power
   level that strands a user, which the optimizer must reject rather
   than crash on while compiling it. *)
let test_power_figure_stranding_level () =
  let fig =
    (List.assoc "ext-power" Harness.Experiments.drivers)
      ~cfg:{ Harness.Experiments.default_config with scenarios = 2; seed = 7 }
      ()
  in
  Alcotest.(check int) "four mu points" 4
    (List.length fig.Harness.Series.points)

let test_power_stranded_user_is_uncovered () =
  let sc = power_scenario () in
  let n = Scenario.n_aps sc in
  (* every AP at the lowest level strands some user of this instance *)
  let p =
    Power.problem_with_powers sc ~factors:[| 1.0; 0.05 |]
      ~levels:(Array.make n 1)
  in
  Alcotest.(check bool) "some user uncovered" true
    (List.length (Problem.coverable_users p) < Scenario.n_users sc)

let test_mobility_deterministic () =
  let sc = small_scenario 11 in
  let run () =
    List.map
      (fun (e : Wlan_sim.Mobility.epoch_report) ->
        (e.Wlan_sim.Mobility.rejoin_moves, Array.copy e.report.Wlan_sim.Runner.assoc))
      (Wlan_sim.Mobility.run ~seed:3 ~move_fraction:0.2 ~epochs:3
         ~policy:dist_policy sc)
  in
  Alcotest.(check bool) "same seed, same epochs" true (run () = run ())

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_coloring_proper_with_enough_channels;
      prop_residual_count_consistent;
      prop_dual_unicast_side_is_ssa;
      prop_generator_deterministic_with_extensions;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "channels",
        [
          tc "conflict edges" test_conflict_edges_line;
          tc "path 2-coloring" test_coloring_path_two_channels;
          tc "triangle needs 3" test_coloring_triangle_short;
          tc "interference accounting" test_co_channel_interference_accounting;
          tc "MLA reduces interference" test_mla_reduces_interference;
        ] );
      ( "dual association",
        [
          tc "unicast loads" test_unicast_loads;
          tc "combined adds both" test_combined_adds_both;
          tc "single shares AP" test_single_association_shares_ap;
          tc "dual saves airtime" test_dual_saves_airtime_on_campus;
          tc "max saving consistent" test_dual_max_saving_consistent;
          tc "dual measured in DES" test_dual_measured_in_simulator;
        ] );
      ( "workloads",
        [
          tc "zipf skew" test_zipf_skews_sessions;
          tc "clustered concentrates" test_clustered_placement_concentrates;
          tc "clustered clamped" test_clustered_stays_in_area;
        ] );
      ( "message loss",
        [
          tc "zero loss is identical" test_loss_free_equals_lossy_zero;
          tc "moderate loss tolerated" test_moderate_loss_still_serves_everyone;
          tc "total loss" test_total_loss_serves_nobody;
          tc "loss costs passes" test_loss_costs_extra_passes;
        ] );
      ( "power control",
        [
          tc "per-AP compilation" test_power_problem_with_powers;
          tc "optimize trades interference" test_power_optimize;
          tc "mu=0 is pure load descent" test_power_mu_zero_objective_is_pure_load;
          tc "stranding level is built, not raised"
            test_power_stranded_user_is_uncovered;
          tc "ext-power driver, seed 7" test_power_figure_stranding_level;
        ] );
      ( "mobility",
        [
          tc "epoch structure" test_mobility_epochs;
          tc "warm start churn" test_mobility_warm_start_cheaper_than_cold;
          tc "session zapping" test_mobility_with_zapping;
          tc "zap function" test_zap_function;
          tc "disabled APs never serve" test_disabled_aps_never_serve;
          tc "AP failures across epochs" test_ap_failures_across_epochs;
          tc "interference-aware MLA" test_interference_aware_mla;
          tc "deterministic" test_mobility_deterministic;
        ] );
      ("properties", qcheck_cases);
    ]
