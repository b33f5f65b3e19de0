(* Tests for the exact solvers (Optimal.mla/bla/mnu) against brute-force
   enumeration on tiny instances, plus the Appendix A/B/C NP-hardness
   constructions cross-checked against the dedicated combinatorial solvers
   (subset-sum DP, exact makespan, exact set cover). *)

open Wlan_model
open Mcast_core

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let fig1_mnu = Examples.fig1 ~session_rate_mbps:3.
let fig1_1m = Examples.fig1 ~session_rate_mbps:1.

(* ------------------------------------------------------------------ *)
(* Figure 1 optima (stated in §3.2 of the paper)                      *)
(* ------------------------------------------------------------------ *)

let test_optimal_mnu_fig1 () =
  (* at 3 Mbps the optimum serves 4 users (u2,u4,u5 on a1, u3 on a2) *)
  let v = Option.get (Optimal.mnu fig1_mnu) in
  Alcotest.(check int) "4 users" 4 v.Optimal.value;
  Alcotest.(check bool) "proved" true v.Optimal.proved_optimal;
  Alcotest.(check bool) "budget ok" true
    (Solution.respects_budget fig1_mnu v.Optimal.solution)

let test_optimal_bla_fig1 () =
  (* at 1 Mbps the optimal maximum load is 1/2 *)
  let v = Option.get (Optimal.bla fig1_1m) in
  check_float "max load 1/2" 0.5 v.Optimal.value;
  Alcotest.(check int) "serves all" 5 v.Optimal.solution.Solution.satisfied

let test_optimal_mla_fig1 () =
  (* at 1 Mbps the optimal total load is 7/12 *)
  let v = Option.get (Optimal.mla fig1_1m) in
  check_float "total 7/12" (7. /. 12.) v.Optimal.value;
  Alcotest.(check int) "serves all" 5 v.Optimal.solution.Solution.satisfied

(* ------------------------------------------------------------------ *)
(* Brute force on fig1 agrees                                         *)
(* ------------------------------------------------------------------ *)

let test_brute_force_fig1 () =
  let b = Option.get (Optimal.brute_force ~objective:Max_served fig1_mnu) in
  Alcotest.(check int) "max served 4" 4 b.Solution.satisfied;
  let b = Option.get (Optimal.brute_force ~objective:Min_max_load fig1_1m) in
  check_float "min max 1/2" 0.5 b.Solution.max_load;
  let b = Option.get (Optimal.brute_force ~objective:Min_total_load fig1_1m) in
  check_float "min total 7/12" (7. /. 12.) b.Solution.total_load

(* ------------------------------------------------------------------ *)
(* Exact = brute force on random tiny instances                       *)
(* ------------------------------------------------------------------ *)

let gen_tiny =
  QCheck.Gen.(
    let* n_aps = int_range 1 3 in
    let* n_users = int_range 1 6 in
    let* n_sessions = int_range 1 3 in
    let* seed = int_range 0 1_000_000 in
    let* budget = float_range 0.05 0.9 in
    let p =
      List.hd
        (Scenario_gen.problems ~seed ~n:1
           {
             Scenario_gen.paper_default with
             area_w = 350.;
             area_h = 350.;
             n_aps;
             n_users;
             n_sessions;
             ensure_coverage = true;
           })
    in
    return (Problem.with_budget p budget))

let arb_tiny = QCheck.make gen_tiny

let prop_mla_exact_matches_brute =
  QCheck.Test.make ~name:"exact MLA = brute force" ~count:60 arb_tiny (fun p ->
      let e = Option.get (Optimal.mla p) in
      let b = Option.get (Optimal.brute_force ~objective:Min_total_load p) in
      feq e.Optimal.value b.Solution.total_load)

let prop_bla_exact_matches_brute =
  QCheck.Test.make ~name:"exact BLA = brute force" ~count:40 arb_tiny (fun p ->
      let e = Option.get (Optimal.bla p) in
      let b = Option.get (Optimal.brute_force ~objective:Min_max_load p) in
      feq e.Optimal.value b.Solution.max_load)

let prop_mnu_exact_matches_brute =
  QCheck.Test.make ~name:"exact MNU = brute force" ~count:40 arb_tiny (fun p ->
      match (Optimal.mnu p, Optimal.brute_force ~objective:Max_served p) with
      | Some e, Some b -> e.Optimal.value = b.Solution.satisfied
      | None, Some b ->
          (* no transmission fits the budget: optimum serves nobody *)
          b.Solution.satisfied = 0
      | _, None -> false)

(* the LP/ILP stack and the combinatorial branch-and-bound must agree on
   the MNU optimum — two completely independent exact solvers *)
let prop_ilp_agrees_with_exact_mcg =
  QCheck.Test.make ~name:"ILP-based exact MNU = combinatorial exact MCG"
    ~count:30 arb_tiny (fun p ->
      let inst = Reduction.cover_instance ~filter_over_budget:true p in
      QCheck.assume (Optkit.Cover_instance.n_sets inst <= 14);
      let universe = Reduction.coverable_users p in
      let budgets =
        Array.init
          (Optkit.Cover_instance.n_groups inst)
          (Problem.ap_budget p)
      in
      let mcg = Mcg_exact.exact inst ~budgets ~universe () in
      let ilp_value =
        match Optimal.mnu p with Some v -> v.Optimal.value | None -> 0
      in
      mcg.Mcg_exact.proved_optimal
      && int_of_float (mcg.Mcg_exact.coverage_weight +. 0.5) = ilp_value)

let prop_greedy_never_beats_exact =
  QCheck.Test.make ~name:"greedy solutions never beat the exact optimum"
    ~count:40 arb_tiny (fun p ->
      let mla = Mla.run p and e_mla = Option.get (Optimal.mla p) in
      let mnu = Mnu.run p in
      let e_mnu =
        match Optimal.mnu p with
        | Some e -> e.Optimal.value
        | None -> 0
      in
      mla.Solution.total_load >= e_mla.Optimal.value -. 1e-9
      && mnu.Solution.satisfied <= e_mnu)

(* ------------------------------------------------------------------ *)
(* Appendix A: Subset Sum <-> MNU on the constructed WLAN             *)
(* ------------------------------------------------------------------ *)

let test_subset_sum_reduction () =
  (* the constructed single-AP WLAN serves exactly best_at_most(target)
     users under the optimal association *)
  let cases =
    [
      ([ 1; 2; 3 ], 4) (* exact hit: 1+3 *);
      ([ 2; 4 ], 5) (* best is 4 *);
      ([ 3; 3; 3 ], 7) (* best is 6 *);
      ([ 1 ], 10) (* best is 1 *);
    ]
  in
  List.iter
    (fun (numbers, target) ->
      let p = Reductions.of_subset_sum ~numbers ~target in
      let expected = Subset_sum.best_at_most numbers target in
      let v = Optimal.mnu p in
      let got = match v with Some v -> v.Optimal.value | None -> 0 in
      Alcotest.(check int)
        (Fmt.str "numbers %a target %d" Fmt.(Dump.list int) numbers target)
        expected got)
    cases

let prop_subset_sum_reduction_random =
  QCheck.Test.make ~name:"MNU optimum on Appendix-A WLAN = subset-sum DP"
    ~count:30
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 4) (int_range 1 4))
        (int_range 1 8))
    (fun (numbers, target) ->
      let p = Reductions.of_subset_sum ~numbers ~target in
      let expected = Subset_sum.best_at_most numbers target in
      let got =
        match Optimal.mnu p with Some v -> v.Optimal.value | None -> 0
      in
      got = expected)

(* ------------------------------------------------------------------ *)
(* Appendix B: Makespan <-> BLA on the constructed WLAN               *)
(* ------------------------------------------------------------------ *)

let test_makespan_reduction () =
  (* optimal BLA max load on the constructed WLAN = optimal makespan
     (after the same normalization) *)
  let jobs = [ 3.; 3.; 2.; 2.; 2. ] and machines = 2 in
  let scale = List.fold_left ( +. ) 1. jobs in
  let p = Reductions.of_makespan ~jobs ~machines in
  let e = Option.get (Optimal.bla p) in
  let ms = Makespan.exact ~machines ~jobs in
  check_float "BLA opt = makespan opt" (ms.Makespan.makespan /. scale)
    e.Optimal.value

let prop_makespan_reduction_random =
  QCheck.Test.make ~name:"BLA optimum on Appendix-B WLAN = exact makespan"
    ~count:25
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 5) (float_range 0.5 4.))
        (int_range 1 3))
    (fun (jobs, machines) ->
      let scale = List.fold_left ( +. ) 1. jobs in
      let p = Reductions.of_makespan ~jobs ~machines in
      match Optimal.bla p with
      | None -> false
      | Some e ->
          let ms = Makespan.exact ~machines ~jobs in
          feq ~eps:1e-6 (ms.Makespan.makespan /. scale) e.Optimal.value)

(* ------------------------------------------------------------------ *)
(* Appendix C: Set Cover <-> MLA on the constructed WLAN              *)
(* ------------------------------------------------------------------ *)

let test_set_cover_reduction () =
  (* {0,1},{1,2},{2,3} covering {0..3}: cardinality optimum is 2 sets *)
  let subsets = [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  let p = Reductions.of_set_cover ~n_users:4 ~subsets ~cost:0.1 in
  let e = Option.get (Optimal.mla p) in
  check_float "2 APs at 0.1 each" 0.2 e.Optimal.value

let prop_set_cover_reduction_random =
  QCheck.Test.make ~name:"MLA optimum on Appendix-C WLAN = exact set cover"
    ~count:30
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 1 6 in
         let* m = int_range 1 5 in
         let* subsets =
           list_repeat m (list_size (int_range 1 n) (int_range 0 (n - 1)))
         in
         (* ensure coverability *)
         return (n, List.init n Fun.id :: subsets)))
    (fun (n, subsets) ->
      let cost = 0.125 in
      let p = Reductions.of_set_cover ~n_users:n ~subsets ~cost in
      let e = Option.get (Optimal.mla p) in
      (* exact set cover via optkit on the same family *)
      let inst =
        Optkit.Cover_instance.make ~n_elements:n
          ~sets:
            (Array.of_list
               (List.map (fun s -> Bitset_ref.of_list n s) subsets))
          ~costs:(Array.make (List.length subsets) cost)
          ~payload:(Array.of_list (List.mapi (fun i _ -> i) subsets))
          ()
      in
      let sc = Option.get (Optkit.Set_cover.exact inst) in
      feq e.Optimal.value
        (cost *. float_of_int (List.length sc.Optkit.Set_cover.sets)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_mla_exact_matches_brute;
      prop_bla_exact_matches_brute;
      prop_mnu_exact_matches_brute;
      prop_greedy_never_beats_exact;
      prop_ilp_agrees_with_exact_mcg;
      prop_subset_sum_reduction_random;
      prop_makespan_reduction_random;
      prop_set_cover_reduction_random;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "optimal"
    [
      ( "fig1 optima",
        [
          tc "MNU optimum 4" test_optimal_mnu_fig1;
          tc "BLA optimum 1/2" test_optimal_bla_fig1;
          tc "MLA optimum 7/12" test_optimal_mla_fig1;
          tc "brute force agrees" test_brute_force_fig1;
        ] );
      ( "np-hardness constructions",
        [
          tc "Appendix A (subset sum)" test_subset_sum_reduction;
          tc "Appendix B (makespan)" test_makespan_reduction;
          tc "Appendix C (set cover)" test_set_cover_reduction;
        ] );
      ("properties", qcheck_cases);
    ]
