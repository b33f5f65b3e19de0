(* Tests for the distributed algorithms (§4.2, §5.2, §6.2): the paper's
   step-by-step examples on Figure 1, the Figure 4 oscillation under
   simultaneous decisions, convergence lemmas (1 and 2) as properties, and
   the lock-based coordination extension (§8). *)

open Wlan_model
open Mcast_core

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let fig1_mnu = Examples.fig1 ~session_rate_mbps:3.
let fig1_1m = Examples.fig1 ~session_rate_mbps:1.

(* ------------------------------------------------------------------ *)
(* The paper's walk-throughs on Figure 1                              *)
(* ------------------------------------------------------------------ *)

let test_distributed_mnu_fig1 () =
  (* §4.2: at 3 Mbps, sequential order u1..u5 ends with u1,u3 on a1 and
     u4,u5 on a2: 4 of 5 users served (u2 blocked by a1's budget) *)
  let sol, o = Distributed.mnu fig1_mnu in
  Alcotest.(check int) "4 users served" 4 sol.Solution.satisfied;
  Alcotest.(check bool) "converged" true o.Distributed.converged;
  Alcotest.(check (option int)) "u1 -> a1" (Some 0)
    (Association.ap_of sol.assoc 0);
  Alcotest.(check (option int)) "u2 unserved" None
    (Association.ap_of sol.assoc 1);
  Alcotest.(check (option int)) "u3 -> a1" (Some 0)
    (Association.ap_of sol.assoc 2);
  Alcotest.(check (option int)) "u4 -> a2" (Some 1)
    (Association.ap_of sol.assoc 3);
  Alcotest.(check (option int)) "u5 -> a2" (Some 1)
    (Association.ap_of sol.assoc 4);
  Alcotest.(check bool) "budget ok" true
    (Solution.respects_budget fig1_mnu sol)

let test_distributed_mla_fig1 () =
  (* §6.2: at 1 Mbps all users end on a1, total load 7/12 (the optimum) *)
  let sol, o = Distributed.mla fig1_1m in
  Alcotest.(check int) "all served" 5 sol.Solution.satisfied;
  Alcotest.(check bool) "converged" true o.Distributed.converged;
  Array.iteri
    (fun u a -> if a <> 0 then Alcotest.failf "user %d not on a1" u)
    sol.assoc;
  check_float "total 7/12" (7. /. 12.) sol.total_load

let test_distributed_bla_fig1 () =
  (* §5.2: at 1 Mbps, u1,u2,u3 on a1 and u4,u5 on a2; loads 1/2 and 1/3
     (the optimal maximum) *)
  let sol, o = Distributed.bla fig1_1m in
  Alcotest.(check bool) "converged" true o.Distributed.converged;
  Alcotest.(check int) "all served" 5 sol.Solution.satisfied;
  Alcotest.(check (option int)) "u1 -> a1" (Some 0)
    (Association.ap_of sol.assoc 0);
  Alcotest.(check (option int)) "u2 -> a1" (Some 0)
    (Association.ap_of sol.assoc 1);
  Alcotest.(check (option int)) "u3 -> a1" (Some 0)
    (Association.ap_of sol.assoc 2);
  Alcotest.(check (option int)) "u4 -> a2" (Some 1)
    (Association.ap_of sol.assoc 3);
  Alcotest.(check (option int)) "u5 -> a2" (Some 1)
    (Association.ap_of sol.assoc 4);
  check_float "a1 load" 0.5 sol.ap_loads.(0);
  check_float "a2 load" (1. /. 3.) sol.ap_loads.(1);
  check_float "max = optimal 1/2" 0.5 sol.max_load

(* ------------------------------------------------------------------ *)
(* Figure 4: simultaneous decisions oscillate                          *)
(* ------------------------------------------------------------------ *)

let test_fig4_initial_loads () =
  let loads = Loads.ap_loads Examples.fig4 Examples.fig4_initial in
  check_float "a1" 0.25 loads.(0);
  check_float "a2" 0.25 loads.(1)

let test_fig4_simultaneous_oscillates () =
  let o =
    Distributed.run ~init:Examples.fig4_initial ~scheduler:Simultaneous
      ~objective:Min_total_load Examples.fig4
  in
  Alcotest.(check bool) "oscillated" true o.Distributed.oscillated;
  Alcotest.(check bool) "not converged" false o.Distributed.converged

let test_fig4_sequential_converges () =
  let o =
    Distributed.run ~init:Examples.fig4_initial ~scheduler:Sequential
      ~objective:Min_total_load Examples.fig4
  in
  Alcotest.(check bool) "converged" true o.Distributed.converged;
  (* u2 moves to a2 (total 1/5 + 1/4 = 0.45), then u3 has nothing better *)
  check_float "total after convergence" 0.45
    (Loads.total_load Examples.fig4 o.Distributed.assoc)

let test_fig4_locked_converges () =
  let o =
    Distributed.run ~init:Examples.fig4_initial ~scheduler:Locked
      ~objective:Min_total_load Examples.fig4
  in
  Alcotest.(check bool) "converged" true o.Distributed.converged;
  Alcotest.(check bool) "no oscillation" false o.Distributed.oscillated;
  check_float "same quality as sequential" 0.45
    (Loads.total_load Examples.fig4 o.Distributed.assoc)

let test_fig4_bla_simultaneous_oscillates () =
  (* the paper: the same scenario breaks the BLA rule too *)
  let o =
    Distributed.run ~init:Examples.fig4_initial ~scheduler:Simultaneous
      ~objective:Min_load_vector Examples.fig4
  in
  Alcotest.(check bool) "oscillated" true o.Distributed.oscillated

(* ------------------------------------------------------------------ *)
(* Decision rule details                                              *)
(* ------------------------------------------------------------------ *)

(* User [u]'s decision by the library's rule, [Distributed.choose], on
   planes filled from eager load scans; [loads] are the current loads. *)
let decide p (assoc : Association.t) ~loads ~objective u =
  let aps = Array.of_list (Problem.neighbor_aps p u) in
  let serving =
    Option.value ~default:(-1) (Array.find_index (( = ) assoc.(u)) aps)
  in
  Distributed.choose ~objective ~serving ~aps
    ~joins:(Array.map (fun a -> Loads.load_if_joins p assoc ~user:u ~ap:a) aps)
    ~base:
      (Array.mapi
         (fun k a ->
           if k = serving then Boxed.load_if_leaves p assoc ~user:u ~ap:a
           else loads.(a))
         aps)
    ~budgets:(Array.map (Problem.ap_budget p) aps)
    ~signals:(Array.map (fun a -> Problem.signal p ~ap:a ~user:u) aps)

let test_choose_rejects_bad_planes () =
  let choose ~serving ~signals =
    Distributed.choose ~objective:Min_total_load ~serving ~aps:[| 0; 1 |]
      ~joins:[| 0.1; 0.1 |] ~base:[| 0.; 0. |] ~budgets:[| 0.9; 0.9 |]
      ~signals
  in
  let bad = Invalid_argument "Distributed.choose: planes disagree" in
  Alcotest.check_raises "short plane" bad (fun () ->
      ignore (choose ~serving:(-1) ~signals:[| 1. |]));
  Alcotest.check_raises "serving out of range" bad (fun () ->
      ignore (choose ~serving:2 ~signals:[| 1.; 2. |]));
  Alcotest.(check (option int)) "well-formed" (Some 1)
    (choose ~serving:(-1) ~signals:[| 1.; 2. |])

let test_decide_tie_breaks_by_signal () =
  (* two empty APs, equal resulting loads: the stronger signal wins *)
  let signal = [| [| 1. |]; [| 2. |] |] in
  let p =
    Problem.make ~signal ~session_rates:[| 1. |] ~user_session:[| 0 |]
      ~rates:[| [| 6. |]; [| 6. |] |]
      ~budget:0.9 ()
  in
  let assoc = Association.empty ~n_users:1 in
  let loads = Loads.ap_loads p assoc in
  Alcotest.(check (option int)) "stronger signal" (Some 1)
    (decide p assoc ~loads ~objective:Min_total_load 0)

let test_decide_respects_budget () =
  (* a full AP is not a candidate *)
  let p =
    Problem.make ~session_rates:[| 1.; 1. |] ~user_session:[| 0; 1 |]
      ~rates:[| [| 1.2; 1.2 |] |]
      ~budget:0.9 ()
  in
  let assoc : Association.t = [| 0; -1 |] in
  (* a0 already spends 1/1.2 = 0.833 on s0; adding s1 would exceed 0.9 *)
  let loads = Loads.ap_loads p assoc in
  Alcotest.(check (option int)) "no feasible AP" None
    (decide p assoc ~loads ~objective:Min_total_load 1)

let test_decide_no_pointless_move () =
  (* a served user with nothing better must stay *)
  let p = fig1_1m in
  let sol, _ = Distributed.mla p in
  let loads = Loads.ap_loads p sol.Solution.assoc in
  for u = 0 to 4 do
    Alcotest.(check (option int))
      (Fmt.str "user %d stays" u)
      None
      (decide p sol.Solution.assoc ~loads
         ~objective:Min_total_load u)
  done

let test_unserved_user_joins_even_if_load_grows () =
  (* joining always beats staying unserved, whatever the load delta *)
  let p =
    Problem.make ~session_rates:[| 1. |] ~user_session:[| 0 |]
      ~rates:[| [| 6. |] |] ~budget:0.9 ()
  in
  let assoc = Association.empty ~n_users:1 in
  let loads = Loads.ap_loads p assoc in
  Alcotest.(check (option int)) "joins" (Some 0)
    (decide p assoc ~loads ~objective:Min_total_load 0)

(* ------------------------------------------------------------------ *)
(* Convergence properties (Lemmas 1 and 2)                            *)
(* ------------------------------------------------------------------ *)

let gen_problem =
  QCheck.Gen.(
    let* n_aps = int_range 2 12 in
    let* n_users = int_range 2 25 in
    let* n_sessions = int_range 1 4 in
    let* seed = int_range 0 1_000_000 in
    return
      (List.hd
         (Scenario_gen.problems ~seed ~n:1
            {
              Scenario_gen.paper_default with
              area_w = 600.;
              area_h = 600.;
              n_aps;
              n_users;
              n_sessions;
              ensure_coverage = true;
            })))

let arb_problem = QCheck.make gen_problem

let prop_sequential_mnu_converges =
  QCheck.Test.make ~name:"sequential MNU/MLA converges (Lemma 1)" ~count:60
    arb_problem (fun p ->
      let _, o = Distributed.mnu p in
      o.Distributed.converged)

let prop_sequential_bla_converges =
  QCheck.Test.make ~name:"sequential BLA converges (Lemma 2)" ~count:60
    arb_problem (fun p ->
      let _, o = Distributed.bla p in
      o.Distributed.converged)

let prop_locked_converges =
  QCheck.Test.make ~name:"locked scheduler converges (both objectives)"
    ~count:40 arb_problem (fun p ->
      let a = Distributed.run ~scheduler:Locked ~objective:Min_total_load p in
      let b = Distributed.run ~scheduler:Locked ~objective:Min_load_vector p in
      a.Distributed.converged && b.Distributed.converged)

let prop_locked_respects_budget =
  QCheck.Test.make ~name:"locked scheduler solutions respect budgets"
    ~count:40 arb_problem (fun p ->
      let o = Distributed.run ~scheduler:Locked ~objective:Min_total_load p in
      Loads.respects_budget p o.Distributed.assoc
      && Association.in_range_ok p o.Distributed.assoc)

let prop_distributed_budget =
  QCheck.Test.make ~name:"distributed solutions respect budgets" ~count:60
    arb_problem (fun p ->
      let sol, _ = Distributed.mnu p in
      Solution.respects_budget p sol && Solution.in_range_ok p sol)

let prop_distributed_serves_coverable_when_budget_allows =
  QCheck.Test.make
    ~name:"distributed BLA serves every coverable user at 0.9 budget"
    ~count:60 arb_problem (fun p ->
      let sol, _ = Distributed.bla p in
      (* one user costs at most 1/6 < 0.9, so nobody stays unserved *)
      sol.Solution.satisfied = List.length (Problem.coverable_users p))

let prop_moves_monotone_total =
  QCheck.Test.make
    ~name:"each sequential MLA pass never increases the total load" ~count:40
    arb_problem (fun p ->
      (* run one pass at a time and watch the potential *)
      let _, n_users = Problem.dims p in
      let assoc = ref (Association.empty ~n_users) in
      let prev = ref infinity in
      let ok = ref true in
      for _pass = 1 to 5 do
        let o =
          Distributed.run ~init:!assoc ~max_rounds:1 ~scheduler:Sequential
            ~objective:Min_total_load p
        in
        assoc := o.Distributed.assoc;
        let t = Loads.total_load p !assoc in
        (* the very first pass only adds users (joins), so compare from the
           first fully-joined state onwards *)
        if !prev <> infinity && t > !prev +. 1e-9 then ok := false;
        prev := t
      done;
      !ok)

let prop_bla_vector_potential_decreases =
  QCheck.Test.make
    ~name:"each sequential BLA pass never worsens the sorted load vector"
    ~count:40 arb_problem (fun p ->
      let _, n_users = Problem.dims p in
      let assoc = ref (Association.empty ~n_users) in
      let prev = ref None in
      let ok = ref true in
      for _pass = 1 to 5 do
        let o =
          Distributed.run ~init:!assoc ~max_rounds:1 ~scheduler:Sequential
            ~objective:Min_load_vector p
        in
        assoc := o.Distributed.assoc;
        let v = Boxed.sorted_load_vector (Loads.ap_loads p !assoc) in
        (match !prev with
        | Some pv ->
            (* joins by still-unserved users may grow the vector, so only
               compare once everyone coverable is on board *)
            if
              Association.served_count !assoc
              = List.length (Problem.coverable_users p)
              && Array.length pv = Array.length v
              && Loads.compare_load_prefixes_eps ~from:0 ~len:(Array.length v)
                   v pv
                 > 0
            then ok := false
        | None -> ());
        if
          Association.served_count !assoc
          = List.length (Problem.coverable_users p)
        then prev := Some v
      done;
      !ok)

(* The eps comparator underpins both Lemmas: were its strict order
   intransitive (the pre-fix behavior: sub-eps differences skipped
   entry-by-entry could chain a≈b, b≈c, a≉c), a cycle of "improving"
   moves could revisit an earlier association. Replay the sequential
   loop move by move through the public decision rule and check that no
   association state ever recurs. *)
let prop_sequential_never_revisits =
  QCheck.Test.make
    ~name:"no sequential run revisits a seen association" ~count:40
    arb_problem (fun p ->
      let objectives = [ Distributed.Min_total_load; Min_load_vector ] in
      List.for_all
        (fun objective ->
          let _, n_users = Problem.dims p in
          let assoc = Association.empty ~n_users in
          let seen = Hashtbl.create 64 in
          Hashtbl.replace seen (Array.to_list assoc) ();
          let fresh = ref true in
          (try
             for _round = 1 to 100 do
               let moved = ref false in
               for u = 0 to n_users - 1 do
                 let loads = Loads.ap_loads p assoc in
                 match decide p assoc ~loads ~objective u with
                 | None -> ()
                 | Some ap ->
                     assoc.(u) <- ap;
                     moved := true;
                     let key = Array.to_list assoc in
                     if Hashtbl.mem seen key then begin
                       fresh := false;
                       raise Exit
                     end
                     else Hashtbl.replace seen key ()
               done;
               if not !moved then raise Exit
             done
           with Exit -> ());
          !fresh)
        objectives)

(* Directly pin the transitivity of the comparator's strict order on
   near-tie vectors — the regression the fix above closes. (eps-equality
   itself cannot be transitive for any tolerance comparator: sub-eps
   steps chain; what matters for convergence is that a cycle of strict
   improvements is impossible.) *)
let prop_eps_compare_transitive =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 6 in
      let* base = list_size (return n) (float_bound_inclusive 2.) in
      let* deltas =
        list_size (return (3 * n)) (float_bound_inclusive 2e-9)
      in
      return (base, deltas))
  in
  QCheck.Test.make ~name:"eps comparator is transitive on near-ties"
    ~count:500
    (QCheck.make gen)
    (fun (base, deltas) ->
      let d = Array.of_list deltas in
      let n = List.length base in
      let vec k =
        Boxed.sorted_load_vector
          (Array.of_list
             (List.mapi (fun i x -> x +. d.((k * n) + i)) base))
      in
      let a = vec 0 and b = vec 1 and c = vec 2 in
      let cmp = Loads.compare_load_prefixes_eps ~from:0 ~len:n in
      let cab = cmp a b and cbc = cmp b c and cac = cmp a c in
      (* a < b and b < c must give a < c (and by symmetry for >) *)
      (not (cab < 0 && cbc < 0) || cac < 0)
      && (not (cab > 0 && cbc > 0) || cac > 0))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bla_vector_potential_decreases;
      prop_sequential_never_revisits;
      prop_eps_compare_transitive;
      prop_sequential_mnu_converges;
      prop_sequential_bla_converges;
      prop_locked_converges;
      prop_locked_respects_budget;
      prop_distributed_budget;
      prop_distributed_serves_coverable_when_budget_allows;
      prop_moves_monotone_total;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "distributed"
    [
      ( "fig1 walk-throughs",
        [
          tc "distributed MNU (4 of 5)" test_distributed_mnu_fig1;
          tc "distributed MLA (all on a1)" test_distributed_mla_fig1;
          tc "distributed BLA (optimal 1/2)" test_distributed_bla_fig1;
        ] );
      ( "fig4 oscillation",
        [
          tc "initial loads" test_fig4_initial_loads;
          tc "simultaneous oscillates" test_fig4_simultaneous_oscillates;
          tc "sequential converges" test_fig4_sequential_converges;
          tc "locked converges" test_fig4_locked_converges;
          tc "BLA rule oscillates too" test_fig4_bla_simultaneous_oscillates;
        ] );
      ( "decision rule",
        [
          tc "signal tie-break" test_decide_tie_breaks_by_signal;
          tc "budget filter" test_decide_respects_budget;
          tc "no pointless move" test_decide_no_pointless_move;
          tc "unserved always joins" test_unserved_user_joins_even_if_load_grows;
          tc "rejects bad planes" test_choose_rejects_bad_planes;
        ] );
      ("properties", qcheck_cases);
    ]
