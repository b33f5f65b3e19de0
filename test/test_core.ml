(* Tests for the core association-control algorithms: the reductions of
   Theorems 1/3/5 (checked against the paper's Figure 2/5/7 instances) and
   the centralized MNU / BLA / MLA walk-throughs of §4.1, §5.1 and §6.1,
   plus SSA and invariants on random instances. *)

open Wlan_model
open Mcast_core

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let fig1_mnu = Examples.fig1 ~session_rate_mbps:3.
let fig1_1m = Examples.fig1 ~session_rate_mbps:1.

(* ------------------------------------------------------------------ *)
(* Reduction (Figures 2, 5, 7)                                        *)
(* ------------------------------------------------------------------ *)

(* The Figure 2/5 reduction of the Figure 1 WLAN has 7 subsets:
   a1: (s1@3)={u1,u3}, (s1@4)={u3}, (s2@6)={u2}, (s2@4)={u2,u4,u5};
   a2: (s1@5)={u3}, (s2@5)={u4}, (s2@3)={u4,u5}. *)
let expected_subsets =
  [
    (0, 0, 3., [ 0; 2 ]);
    (0, 0, 4., [ 2 ]);
    (0, 1, 4., [ 1; 3; 4 ]);
    (0, 1, 6., [ 1 ]);
    (1, 0, 5., [ 2 ]);
    (1, 1, 3., [ 3; 4 ]);
    (1, 1, 5., [ 3 ]);
  ]

let find_subset inst (ap, session, rate) =
  let found = ref None in
  for j = 0 to Optkit.Cover_instance.n_sets inst - 1 do
    let tx = Optkit.Cover_instance.payload inst j in
    if
      tx.Reduction.ap = ap
      && tx.Reduction.session = session
      && feq tx.Reduction.tx_rate rate
    then found := Some j
  done;
  !found

let test_reduction_fig2_subsets () =
  let inst = Reduction.cover_instance fig1_mnu in
  Alcotest.(check int) "7 subsets" 7 (Optkit.Cover_instance.n_sets inst);
  Alcotest.(check int) "2 groups" 2 (Optkit.Cover_instance.n_groups inst);
  List.iter
    (fun (ap, s, rate, members) ->
      match find_subset inst (ap, s, rate) with
      | None -> Alcotest.failf "missing subset a%d s%d @%g" ap s rate
      | Some j ->
          Alcotest.(check (list int))
            (Fmt.str "members of a%d s%d @%g" ap s rate)
            members
            (Optkit.Bitset.to_list (Optkit.Cover_instance.set inst j));
          check_float "cost = session rate / tx rate" (3. /. rate)
            (Optkit.Cover_instance.cost inst j);
          Alcotest.(check int) "group is the AP" ap
            (Optkit.Cover_instance.group inst j))
    expected_subsets

let test_reduction_fig5_costs () =
  (* same subsets at 1 Mbps: costs scale to 1/rate *)
  let inst = Reduction.cover_instance fig1_1m in
  Alcotest.(check int) "7 subsets" 7 (Optkit.Cover_instance.n_sets inst);
  List.iter
    (fun (ap, s, rate, _) ->
      let j = Option.get (find_subset inst (ap, s, rate)) in
      check_float "1 Mbps cost" (1. /. rate) (Optkit.Cover_instance.cost inst j))
    expected_subsets

let test_reduction_budget_filter () =
  (* with budget 0.2 and 3 Mbps sessions, every subset costs >= 3/6 = 0.5
     and is filtered out *)
  let p = Problem.with_budget fig1_mnu 0.2 in
  let inst = Reduction.cover_instance ~filter_over_budget:true p in
  Alcotest.(check int) "all filtered" 0 (Optkit.Cover_instance.n_sets inst);
  (* without the filter everything stays *)
  let inst = Reduction.cover_instance p in
  Alcotest.(check int) "kept without filter" 7
    (Optkit.Cover_instance.n_sets inst)

let test_reduction_association_mapping () =
  let inst = Reduction.cover_instance fig1_mnu in
  let j = Option.get (find_subset inst (0, 1, 4.)) in
  let universe = Bitset_ref.of_list 5 [ 1; 3 ] in
  let assoc = Reduction.association_of_sets inst ~universe [ j ] in
  Alcotest.(check (option int)) "u2 -> a1" (Some 0) (Association.ap_of assoc 1);
  Alcotest.(check (option int)) "u4 -> a1" (Some 0) (Association.ap_of assoc 3);
  Alcotest.(check (option int)) "u5 unassigned" None (Association.ap_of assoc 4)

(* ------------------------------------------------------------------ *)
(* SSA baseline                                                       *)
(* ------------------------------------------------------------------ *)

let test_ssa_fig1_mnu () =
  (* §4.1: strongest-signal association serves only 2 users at 3 Mbps *)
  let sol = Ssa.run fig1_mnu in
  Alcotest.(check int) "2 users" 2 sol.Solution.satisfied;
  Alcotest.(check (option int)) "u1 -> a1" (Some 0)
    (Association.ap_of sol.assoc 0);
  Alcotest.(check (option int)) "u3 -> a2" (Some 1)
    (Association.ap_of sol.assoc 2);
  Alcotest.(check bool) "budget ok" true (Solution.respects_budget fig1_mnu sol)

let test_ssa_serves_all_when_feasible () =
  (* at 1 Mbps everyone fits their strongest AP *)
  let sol = Ssa.run fig1_1m in
  Alcotest.(check int) "5 users" 5 sol.Solution.satisfied;
  (* strongest by rate: u3 -> a2 (5>4), u4 -> a2 (5>4), u5 -> a1 (4>3) *)
  Alcotest.(check (option int)) "u4 -> a2" (Some 1)
    (Association.ap_of sol.assoc 3);
  Alcotest.(check (option int)) "u5 -> a1" (Some 0)
    (Association.ap_of sol.assoc 4)

(* ------------------------------------------------------------------ *)
(* Centralized MNU (§4.1 walk-through)                                *)
(* ------------------------------------------------------------------ *)

let test_mnu_fig1_walkthrough () =
  (* greedy picks S4 (u2,u4,u5 at a1), then S2 violates a1's budget; the
     split keeps H1 = {S4}: 3 users served *)
  let sol = Mnu.run fig1_mnu in
  Alcotest.(check int) "3 users" 3 sol.Solution.satisfied;
  Alcotest.(check (option int)) "u2 -> a1" (Some 0)
    (Association.ap_of sol.assoc 1);
  Alcotest.(check (option int)) "u4 -> a1" (Some 0)
    (Association.ap_of sol.assoc 3);
  Alcotest.(check (option int)) "u5 -> a1" (Some 0)
    (Association.ap_of sol.assoc 4);
  Alcotest.(check (option int)) "u1 unserved" None
    (Association.ap_of sol.assoc 0);
  check_float "a1 load 3/4" 0.75 sol.ap_loads.(0);
  Alcotest.(check bool) "budget ok" true
    (Solution.respects_budget fig1_mnu sol)

let test_mnu_beats_ssa_on_fig1 () =
  let mnu = Mnu.run fig1_mnu and ssa = Ssa.run fig1_mnu in
  Alcotest.(check bool) "MNU >= SSA" true
    (mnu.Solution.satisfied >= ssa.Solution.satisfied);
  Alcotest.(check int) "exactly 3 vs 2" 1
    (mnu.Solution.satisfied - ssa.Solution.satisfied)

let test_mnu_serves_everyone_when_easy () =
  let sol = Mnu.run fig1_1m in
  Alcotest.(check int) "all 5" 5 sol.Solution.satisfied;
  Alcotest.(check bool) "budget ok" true (Solution.respects_budget fig1_1m sol)

let test_mnu_single_session_all_served () =
  (* one session: every AP can simply transmit at the basic rate (the paper
     notes MNU is trivially in P then); greedy must also serve everyone *)
  let p =
    Problem.make ~session_rates:[| 1. |] ~user_session:[| 0; 0; 0 |]
      ~rates:[| [| 6.; 6.; 0. |]; [| 0.; 6.; 6. |] |]
      ~budget:0.9 ()
  in
  let sol = Mnu.run p in
  Alcotest.(check int) "all served" 3 sol.Solution.satisfied

let test_mnu_free_riders () =
  let sol = Mnu.run_with_free_riders fig1_mnu in
  (* the extension may only add users, never break the budget *)
  Alcotest.(check bool) "at least as many" true (sol.Solution.satisfied >= 3);
  Alcotest.(check bool) "budget ok" true
    (Solution.respects_budget fig1_mnu sol)

(* ------------------------------------------------------------------ *)
(* Centralized BLA (§5.1 walk-through)                                *)
(* ------------------------------------------------------------------ *)

let test_bla_fig1_walkthrough () =
  (* the paper's Centralized BLA example sends every user to a1
     (max load 7/12); the optimum is 1/2, within the approximation bound *)
  let sol = Bla.run_exn fig1_1m in
  Alcotest.(check int) "serves all" 5 sol.Solution.satisfied;
  check_float "max load 7/12" (7. /. 12.) sol.max_load;
  Array.iteri
    (fun u a -> if a <> 0 then Alcotest.failf "user %d not on a1" u)
    sol.assoc

let test_bla_covers_all_coverable () =
  let sol = Bla.run_exn fig1_mnu in
  Alcotest.(check int) "all covered (3 Mbps)" 5 sol.Solution.satisfied

let test_bla_improves_on_ssa_shape () =
  (* on a crowded hotspot instance BLA must spread sessions across APs *)
  let p =
    Problem.make ~session_rates:[| 1.; 1. |]
      ~user_session:[| 0; 0; 1; 1 |]
      ~rates:[| [| 6.; 6.; 6.; 6. |]; [| 6.; 6.; 6.; 6. |] |]
      ~budget:0.9 ()
  in
  let bla = Bla.run_exn p and ssa = Ssa.run p in
  Alcotest.(check bool) "BLA max <= SSA max" true
    (bla.Solution.max_load <= ssa.Solution.max_load +. 1e-9);
  (* SSA piles both sessions on a1 (signal ties break to lower index) *)
  check_float "ssa max" (2. /. 6.) ssa.Solution.max_load;
  check_float "bla max" (1. /. 6.) bla.Solution.max_load

(* ------------------------------------------------------------------ *)
(* Centralized MLA (§6.1 walk-through)                                *)
(* ------------------------------------------------------------------ *)

let test_mla_fig1_walkthrough () =
  (* CostSC picks S4 then S2: all users on a1, total load 7/12 = optimal *)
  let sol = Mla.run fig1_1m in
  Alcotest.(check int) "serves all" 5 sol.Solution.satisfied;
  check_float "total 7/12" (7. /. 12.) sol.total_load;
  Array.iteri
    (fun u a -> if a <> 0 then Alcotest.failf "user %d not on a1" u)
    sol.assoc

let test_mla_layered_fig1 () =
  (* the layering alternative (§6.1) also serves everyone on Figure 1 *)
  let sol = Mla.run_layered fig1_1m in
  Alcotest.(check int) "serves all" 5 sol.Solution.satisfied;
  Alcotest.(check bool) "budgetless objective sane" true
    (sol.Solution.total_load >= 7. /. 12. -. 1e-9)

let test_mla_lp_rounding_fig1 () =
  match Mla.run_lp_rounding fig1_1m with
  | None -> Alcotest.fail "LP failed"
  | Some sol ->
      Alcotest.(check int) "serves all" 5 sol.Solution.satisfied;
      Alcotest.(check bool) "within f of optimum" true
        (sol.Solution.total_load <= 7. (* trivially loose; tight below *))

let prop_mla_variants_cover_everyone =
  QCheck.Test.make
    ~name:"layered and LP-rounding MLA serve every coverable user" ~count:40
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 0 1_000_000 in
         return
           (List.hd
              (Scenario_gen.problems ~seed ~n:1
                 {
                   Scenario_gen.paper_default with
                   n_aps = 8;
                   n_users = 15;
                   area_w = 500.;
                   area_h = 500.;
                 }))))
    (fun p ->
      let coverable = List.length (Problem.coverable_users p) in
      let layered = Mla.run_layered p in
      let lp = Option.get (Mla.run_lp_rounding p) in
      layered.Solution.satisfied = coverable
      && lp.Solution.satisfied = coverable
      && Solution.in_range_ok p layered
      && Solution.in_range_ok p lp)

let test_mla_uncoverable_users_stay_unserved () =
  let p =
    Problem.make ~allow_uncovered:true ~session_rates:[| 1. |]
      ~user_session:[| 0; 0 |] ~rates:[| [| 6.; 0. |] |] ~budget:0.9 ()
  in
  let sol = Mla.run p in
  Alcotest.(check int) "one served" 1 sol.Solution.satisfied;
  Alcotest.(check (option int)) "isolated unserved" None
    (Association.ap_of sol.assoc 1)

(* ------------------------------------------------------------------ *)
(* Weighted MNU (revenue maximization)                                *)
(* ------------------------------------------------------------------ *)

let test_weighted_mnu_prefers_valuable_user () =
  (* Figure 1 at 3 Mbps: unweighted greedy serves {u2,u4,u5}. Make u1 and
     u3 premium subscribers (weight 10 each vs 1): the greedy must now
     prefer the s1 side. *)
  let p = fig1_mnu in
  let weights = [| 10.; 1.; 10.; 1.; 1. |] in
  let sol, revenue = Mnu.run_weighted ~weights p in
  Alcotest.(check bool) "budget ok" true (Solution.respects_budget p sol);
  Alcotest.(check bool) "premium users served" true
    (Association.is_served sol.Solution.assoc 0
    || Association.is_served sol.Solution.assoc 2);
  Alcotest.(check bool) "revenue beats the unweighted pick" true
    (revenue >= 10.);
  (* unweighted solution {u2,u4,u5} would only be worth 3 *)
  Alcotest.(check bool) "beats count-greedy revenue" true (revenue > 3.)

let test_weighted_mnu_all_ones_matches_unweighted () =
  let p = fig1_mnu in
  let sol, revenue =
    Mnu.run_weighted ~weights:(Array.make 5 1.) p
  in
  let plain = Mnu.run p in
  Alcotest.(check int) "same satisfied count" plain.Solution.satisfied
    sol.Solution.satisfied;
  check_float "revenue = count" (float_of_int sol.Solution.satisfied) revenue

let prop_weighted_mnu_budget =
  QCheck.Test.make ~name:"weighted MNU respects budgets" ~count:40
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 0 1_000_000 in
         let* budget = float_range 0.05 0.5 in
         let p =
           List.hd
             (Scenario_gen.problems ~seed ~n:1
                {
                  Scenario_gen.paper_default with
                  n_aps = 8;
                  n_users = 16;
                  area_w = 500.;
                  area_h = 500.;
                })
         in
         return (Problem.with_budget p budget, seed)))
    (fun (p, seed) ->
      let rng = Random.State.make [| seed; 77 |] in
      let weights =
        Array.init (snd (Problem.dims p)) (fun _ ->
            Random.State.float rng 5.)
      in
      let sol, revenue = Mnu.run_weighted ~weights p in
      Solution.respects_budget p sol && revenue >= 0.)

(* ------------------------------------------------------------------ *)
(* Heterogeneous per-AP budgets                                        *)
(* ------------------------------------------------------------------ *)

let test_heterogeneous_budgets_mnu () =
  (* Figure 1 at 3 Mbps, but a1 is a constrained AP (budget 0.6) while a2
     is generous (1.0): a1 can no longer carry S4 (s2@4 costs 0.75), so
     the greedy must route through a2 *)
  let p = Examples.fig1 ~session_rate_mbps:3. in
  let p = Problem.with_ap_budgets p [| 0.6; 1.0 |] in
  Alcotest.(check (float 1e-12)) "a1 budget" 0.6 (Problem.ap_budget p 0);
  Alcotest.(check (float 1e-12)) "a2 budget" 1.0 (Problem.ap_budget p 1);
  let sol = Mnu.run p in
  Alcotest.(check bool) "per-AP budgets respected" true
    (Solution.respects_budget p sol);
  (* a1's load must respect its own, tighter cap *)
  Alcotest.(check bool) "a1 within 0.6" true (sol.Solution.ap_loads.(0) <= 0.6 +. 1e-9);
  (* serving u4+u5 via a2 at rate 3 costs exactly 1.0 <= a2's budget *)
  Alcotest.(check bool) "still serves at least 2" true
    (sol.Solution.satisfied >= 2)

let test_heterogeneous_budgets_ssa_and_distributed () =
  let p = Examples.fig1 ~session_rate_mbps:3. in
  let p = Problem.with_ap_budgets p [| 0.6; 1.0 |] in
  let ssa = Ssa.run p in
  Alcotest.(check bool) "ssa respects per-AP budgets" true
    (Solution.respects_budget p ssa);
  let dist, o = Distributed.mnu p in
  Alcotest.(check bool) "distributed respects per-AP budgets" true
    (Solution.respects_budget p dist);
  Alcotest.(check bool) "distributed converges" true o.Distributed.converged

let test_heterogeneous_budgets_optimal () =
  let p = Examples.fig1 ~session_rate_mbps:3. in
  let p = Problem.with_ap_budgets p [| 0.6; 1.0 |] in
  match Optimal.mnu p with
  | None -> Alcotest.fail "expected a solution"
  | Some v ->
      Alcotest.(check bool) "ILP respects per-AP budgets" true
        (Solution.respects_budget p v.Optimal.solution);
      (* brute force agrees *)
      let b = Option.get (Optimal.brute_force ~objective:Max_served p) in
      Alcotest.(check int) "matches brute force" b.Solution.satisfied
        v.Optimal.value

let test_with_budget_clears_heterogeneous () =
  let p = Examples.fig1 ~session_rate_mbps:3. in
  let p = Problem.with_ap_budgets p [| 0.6; 1.0 |] in
  let p = Problem.with_budget p 0.8 in
  Alcotest.(check (float 1e-12)) "uniform again (a1)" 0.8 (Problem.ap_budget p 0);
  Alcotest.(check (float 1e-12)) "uniform again (a2)" 0.8 (Problem.ap_budget p 1)

let test_ap_budgets_validation () =
  let p = Examples.fig1 ~session_rate_mbps:3. in
  (try
     ignore (Problem.with_ap_budgets p [| 0.5 |]);
     Alcotest.fail "expected arity failure"
   with Invalid_argument _ -> ());
  try
    ignore (Problem.with_ap_budgets p [| 0.5; -0.1 |]);
    Alcotest.fail "expected negativity failure"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Degenerate networks: no users, no APs, nothing at all              *)
(* ------------------------------------------------------------------ *)

let degenerate_problems =
  [
    ( "empty",
      Problem.make ~session_rates:[| 1. |] ~user_session:[||] ~rates:[||]
        ~budget:0.9 () );
    ( "no users",
      Problem.make ~session_rates:[| 1. |] ~user_session:[||]
        ~rates:[| [||] |] ~budget:0.9 () );
    ( "no APs",
      Problem.make ~allow_uncovered:true ~session_rates:[| 1. |]
        ~user_session:[| 0; 0 |] ~rates:[||] ~budget:0.9 () );
  ]

let test_degenerate_networks () =
  List.iter
    (fun (name, p) ->
      let check_sol algo (sol : Solution.t) =
        Alcotest.(check int) (name ^ "/" ^ algo ^ " none served") 0
          sol.Solution.satisfied;
        Alcotest.(check (float 1e-12)) (name ^ "/" ^ algo ^ " zero load") 0.
          sol.Solution.total_load
      in
      check_sol "ssa" (Ssa.run p);
      check_sol "mla" (Mla.run p);
      check_sol "mla-layered" (Mla.run_layered p);
      check_sol "mnu" (Mnu.run p);
      (match Bla.run p with
      | Some sol -> check_sol "bla" sol
      | None -> Alcotest.failf "%s: BLA found no feasible B*" name);
      check_sol "distributed" (fst (Distributed.mla p));
      (* exact solvers terminate and agree *)
      (match Optimal.mla p with
      | Some v ->
          Alcotest.(check (float 1e-12)) (name ^ " optimal MLA") 0.
            v.Optimal.value
      | None -> Alcotest.failf "%s: exact MLA failed" name);
      match Optimal.mnu p with
      | Some v -> Alcotest.(check int) (name ^ " optimal MNU") 0 v.Optimal.value
      | None -> () (* nothing servable is a legal answer *))
    degenerate_problems

let test_single_user_single_ap () =
  let p =
    Problem.make ~session_rates:[| 2. |] ~user_session:[| 0 |]
      ~rates:[| [| 12. |] |] ~budget:0.9 ()
  in
  List.iter
    (fun (algo, sol) ->
      Alcotest.(check int) (algo ^ " serves the user") 1
        sol.Solution.satisfied;
      check_float (algo ^ " load 2/12") (2. /. 12.) sol.Solution.total_load)
    [
      ("ssa", Ssa.run p);
      ("mla", Mla.run p);
      ("mnu", Mnu.run p);
      ("bla", Bla.run_exn p);
      ("dist", fst (Distributed.mla p));
    ]

(* ------------------------------------------------------------------ *)
(* Cross-algorithm invariants on random instances                     *)
(* ------------------------------------------------------------------ *)

let gen_problem =
  QCheck.Gen.(
    let* n_aps = int_range 2 10 in
    let* n_users = int_range 2 16 in
    let* n_sessions = int_range 1 4 in
    let* seed = int_range 0 1_000_000 in
    return
      (List.hd
         (Scenario_gen.problems ~seed ~n:1
            {
              Scenario_gen.paper_default with
              area_w = 500.;
              area_h = 500.;
              n_aps;
              n_users;
              n_sessions;
              ensure_coverage = true;
            })))

let arb_problem = QCheck.make gen_problem

let prop_mnu_budget =
  QCheck.Test.make ~name:"MNU respects every AP budget" ~count:80 arb_problem
    (fun p ->
      let sol = Mnu.run p in
      Solution.respects_budget p sol && Solution.in_range_ok p sol)

let prop_mla_covers_all =
  QCheck.Test.make ~name:"MLA serves every coverable user" ~count:80
    arb_problem (fun p ->
      let sol = Mla.run p in
      sol.Solution.satisfied = List.length (Problem.coverable_users p)
      && Solution.in_range_ok p sol)

let prop_bla_covers_all =
  QCheck.Test.make ~name:"BLA serves every coverable user" ~count:60
    arb_problem (fun p ->
      match Bla.run p with
      | None -> false
      | Some sol ->
          sol.Solution.satisfied = List.length (Problem.coverable_users p)
          && Solution.in_range_ok p sol)

let prop_mla_within_ln_bound_of_ssa =
  QCheck.Test.make
    ~name:"MLA total within (ln n + 1) of SSA total when both serve all"
    ~count:80 arb_problem (fun p ->
      let ssa = Ssa.run p and mla = Mla.run p in
      QCheck.assume
        (ssa.Solution.satisfied = List.length (Problem.coverable_users p));
      mla.Solution.total_load
      <= (ssa.Solution.total_load *. (log (float_of_int 16) +. 1.)) +. 1e-9)

let prop_ssa_in_range =
  QCheck.Test.make ~name:"SSA users always served in range" ~count:80
    arb_problem (fun p ->
      let sol = Ssa.run p in
      Solution.in_range_ok p sol && Solution.respects_budget p sol)

let prop_solution_metrics_consistent =
  QCheck.Test.make ~name:"solution metrics agree with Loads" ~count:80
    arb_problem (fun p ->
      let sol = Mla.run p in
      feq sol.Solution.total_load (Loads.total_load p sol.assoc)
      && feq sol.Solution.max_load (Loads.max_load p sol.assoc)
      && sol.Solution.satisfied = Association.served_count sol.assoc)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mnu_budget;
      prop_weighted_mnu_budget;
      prop_mla_covers_all;
      prop_mla_variants_cover_everyone;
      prop_bla_covers_all;
      prop_mla_within_ln_bound_of_ssa;
      prop_ssa_in_range;
      prop_solution_metrics_consistent;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mcast_core"
    [
      ( "reduction",
        [
          tc "fig2 subsets" test_reduction_fig2_subsets;
          tc "fig5 costs" test_reduction_fig5_costs;
          tc "budget filter" test_reduction_budget_filter;
          tc "association mapping" test_reduction_association_mapping;
        ] );
      ( "ssa",
        [
          tc "fig1 walk-through (2 users)" test_ssa_fig1_mnu;
          tc "serves all when feasible" test_ssa_serves_all_when_feasible;
        ] );
      ( "mnu",
        [
          tc "fig1 walk-through (3 users)" test_mnu_fig1_walkthrough;
          tc "beats SSA on fig1" test_mnu_beats_ssa_on_fig1;
          tc "easy instance serves all" test_mnu_serves_everyone_when_easy;
          tc "single session all served" test_mnu_single_session_all_served;
          tc "free-rider extension" test_mnu_free_riders;
        ] );
      ( "bla",
        [
          tc "fig1 walk-through (7/12)" test_bla_fig1_walkthrough;
          tc "covers all coverable" test_bla_covers_all_coverable;
          tc "balances a hotspot" test_bla_improves_on_ssa_shape;
        ] );
      ( "mla",
        [
          tc "fig1 walk-through (7/12)" test_mla_fig1_walkthrough;
          tc "layered variant" test_mla_layered_fig1;
          tc "lp-rounding variant" test_mla_lp_rounding_fig1;
          tc "uncoverable stay unserved" test_mla_uncoverable_users_stay_unserved;
        ] );
      ( "weighted mnu",
        [
          tc "prefers valuable users" test_weighted_mnu_prefers_valuable_user;
          tc "all-ones = unweighted" test_weighted_mnu_all_ones_matches_unweighted;
        ] );
      ( "per-AP budgets",
        [
          tc "MNU with tight a1" test_heterogeneous_budgets_mnu;
          tc "SSA & distributed" test_heterogeneous_budgets_ssa_and_distributed;
          tc "optimal & brute force" test_heterogeneous_budgets_optimal;
          tc "with_budget clears" test_with_budget_clears_heterogeneous;
          tc "validation" test_ap_budgets_validation;
        ] );
      ( "degenerate",
        [
          tc "empty networks" test_degenerate_networks;
          tc "single user, single AP" test_single_user_single_ap;
        ] );
      ("properties", qcheck_cases);
    ]
