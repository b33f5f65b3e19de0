(* Tests for the wlan_model library: geometry, rate adaptation (Table 1),
   problem instances, associations and multicast-load accounting. *)

open Wlan_model

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Point                                                              *)
(* ------------------------------------------------------------------ *)

let test_point_dist () =
  check_float "3-4-5 triangle" 5. (Point.dist (Point.v 0. 0.) (Point.v 3. 4.));
  check_float "self distance" 0. (Point.dist (Point.v 1. 2.) (Point.v 1. 2.));
  Alcotest.(check bool) "within true" true
    (Point.within 5. (Point.v 0. 0.) (Point.v 3. 4.));
  Alcotest.(check bool) "within false" false
    (Point.within 4.99 (Point.v 0. 0.) (Point.v 3. 4.))

let test_point_dist_symmetric () =
  let a = Point.v 10. 20. and b = Point.v 33. 7. in
  check_float "symmetry" (Point.dist a b) (Point.dist b a)

let test_point_random_in_bounds () =
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 100 do
    let p = Point.random ~rng ~w:100. ~h:50. in
    if p.Point.x < 0. || p.Point.x > 100. || p.Point.y < 0. || p.Point.y > 50.
    then Alcotest.fail "random point out of bounds"
  done

(* ------------------------------------------------------------------ *)
(* Rate_table                                                         *)
(* ------------------------------------------------------------------ *)

let test_table1_thresholds () =
  (* the paper's Table 1, one check per column *)
  let expect d rate =
    match Rate_table.rate_at_distance Rate_table.default d with
    | Some r -> check_float (Fmt.str "rate at %gm" d) rate r
    | None -> Alcotest.failf "no rate at %gm" d
  in
  expect 35. 54.;
  expect 40. 48.;
  expect 60. 36.;
  expect 85. 24.;
  expect 105. 18.;
  expect 145. 12.;
  expect 200. 6.;
  (* strictly between thresholds *)
  expect 36. 48.;
  expect 100. 18.;
  expect 150. 6.;
  expect 0. 54.

let test_table1_out_of_range () =
  Alcotest.(check (option (float 0.))) "beyond 200m" None
    (Rate_table.rate_at_distance Rate_table.default 200.1)

let test_rate_monotone_in_distance () =
  (* rate never increases with distance *)
  let prev = ref infinity in
  let d = ref 0. in
  while !d <= 210. do
    (match Rate_table.rate_at_distance Rate_table.default !d with
    | Some r ->
        if r > !prev then Alcotest.fail "rate increased with distance";
        prev := r
    | None -> prev := 0.);
    d := !d +. 0.5
  done

let test_range () =
  check_float "range" 200. (Rate_table.range Rate_table.default)

let test_scale_thresholds () =
  let t = Rate_table.scale_thresholds 0.5 Rate_table.default in
  check_float "halved range" 100. (Rate_table.range t);
  (* 54 Mbps region shrinks from 35m to 17.5m *)
  Alcotest.(check (option (float 1e-9))) "54 at 17.5" (Some 54.)
    (Rate_table.rate_at_distance t 17.5);
  Alcotest.(check (option (float 1e-9))) "48 at 18" (Some 48.)
    (Rate_table.rate_at_distance t 18.)

let test_make_rejects_unsorted () =
  Alcotest.check_raises "unsorted rates"
    (Invalid_argument "Rate_table.make: rates must be strictly decreasing")
    (fun () ->
      ignore
        (Rate_table.make
           [
             { Rate_table.rate_mbps = 6.; threshold_m = 200. };
             { Rate_table.rate_mbps = 12.; threshold_m = 145. };
           ]))

(* The smart constructors' documented constants: every one is built on
   [default_radio]; two-ray puts the AP at 10 m and the user at 1.5 m,
   where the crossover lies beyond the radio's reach, so its range is
   Friis's; log-distance uses exponent 2.2 and shadows only when asked. *)
let test_rate_model_constructors () =
  let radio_of = function
    | Rate_model.Path_loss { radio; _ } -> radio
    | Rate_model.Table _ -> Alcotest.fail "a smart constructor built a table"
  in
  List.iter
    (fun (name, m) ->
      Alcotest.(check bool) (name ^ " on default radio") true
        (radio_of m = Rate_model.default_radio))
    [
      ("friis", Rate_model.friis ());
      ("two-ray", Rate_model.two_ray ());
      ("log-distance", Rate_model.log_distance ());
    ];
  (match Rate_model.friis () with
  | Rate_model.Path_loss { loss = Friis; _ } -> ()
  | _ -> Alcotest.fail "friis is not free space");
  (match Rate_model.two_ray () with
  | Rate_model.Path_loss { loss = Two_ray { ap_height_m; user_height_m }; _ } ->
      check_float "AP height" 10. ap_height_m;
      check_float "user height" 1.5 user_height_m
  | _ -> Alcotest.fail "two_ray is not two-ray");
  check_float "two-ray range = friis range"
    (Rate_model.max_range (Rate_model.friis ()))
    (Rate_model.max_range (Rate_model.two_ray ()));
  (match Rate_model.log_distance () with
  | Rate_model.Path_loss
      { loss = Log_distance { exponent; shadowing = None }; _ } ->
      check_float "exponent" 2.2 exponent
  | _ -> Alcotest.fail "log_distance () must not shadow");
  let shadowing = { Rate_model.sigma_db = 4.; seed = 7 } in
  match Rate_model.log_distance ~shadowing () with
  | Rate_model.Path_loss
      { loss = Log_distance { exponent; shadowing = Some s }; _ } ->
      check_float "exponent with shadowing" 2.2 exponent;
      check_float "sigma" 4. s.Rate_model.sigma_db;
      Alcotest.(check int) "seed" 7 s.Rate_model.seed
  | _ -> Alcotest.fail "log_distance ~shadowing must shadow"

(* ------------------------------------------------------------------ *)
(* Session                                                            *)
(* ------------------------------------------------------------------ *)

let test_session_make () =
  let s = Session.make ~rate_mbps:1.5 in
  check_float "rate" 1.5 (Session.rate_mbps s);
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Session.make: rate must be positive") (fun () ->
      ignore (Session.make ~rate_mbps:0.))

let test_session_uniform () =
  let ss = Session.uniform ~n:5 ~rate_mbps:2. in
  Alcotest.(check int) "count" 5 (Array.length ss);
  Array.iter (fun s -> check_float "uniform rate" 2. (Session.rate_mbps s)) ss

(* ------------------------------------------------------------------ *)
(* Problem                                                            *)
(* ------------------------------------------------------------------ *)

let fig1 = Examples.fig1 ~session_rate_mbps:3.

let test_problem_dims () =
  let n_aps, n_users = Problem.dims fig1 in
  Alcotest.(check int) "aps" 2 n_aps;
  Alcotest.(check int) "users" 5 n_users;
  Alcotest.(check int) "sessions" 2 (Problem.n_sessions fig1)

let test_problem_neighbors () =
  Alcotest.(check (list int)) "u1 neighbors" [ 0 ] (Problem.neighbor_aps fig1 0);
  Alcotest.(check (list int)) "u3 neighbors" [ 0; 1 ]
    (Problem.neighbor_aps fig1 2);
  Alcotest.(check (list int)) "all coverable" [ 0; 1; 2; 3; 4 ]
    (Problem.coverable_users fig1)

let test_problem_strongest_ap () =
  (* default signal = link rate: u3 has rate 5 from a2 vs 4 from a1 *)
  Alcotest.(check (option int)) "u3 strongest" (Some 1)
    (Problem.strongest_ap fig1 2);
  (* u5: 4 from a1 vs 3 from a2 *)
  Alcotest.(check (option int)) "u5 strongest" (Some 0)
    (Problem.strongest_ap fig1 4);
  Alcotest.(check (option int)) "u1 strongest" (Some 0)
    (Problem.strongest_ap fig1 0)

let test_problem_no_neighbor () =
  let p =
    Problem.make ~allow_uncovered:true ~session_rates:[| 1. |]
      ~user_session:[| 0; 0 |] ~rates:[| [| 1.; 0. |] |] ~budget:1. ()
  in
  Alcotest.(check (option int)) "isolated user" None (Problem.strongest_ap p 1);
  Alcotest.(check (list int)) "coverable" [ 0 ] (Problem.coverable_users p)

let test_problem_receivers () =
  (* users of s2 reachable from a1 at >= 4 Mbps: u2 (6), u4 (4), u5 (4) *)
  Alcotest.(check (list int)) "receivers a1 s2 @4" [ 1; 3; 4 ]
    (Problem.receivers fig1 ~ap:0 ~session:1 ~min_rate:4.);
  Alcotest.(check (list int)) "receivers a1 s2 @6" [ 1 ]
    (Problem.receivers fig1 ~ap:0 ~session:1 ~min_rate:6.)

let test_problem_distinct_rates () =
  Alcotest.(check (list (float 1e-9))) "distinct rates, desc"
    [ 6.; 5.; 4.; 3. ]
    (Problem.distinct_rates fig1)

let test_problem_basic_rate_restriction () =
  let p = Problem.restrict_to_basic_rate fig1 in
  Alcotest.(check (list (float 1e-9))) "one rate" [ 3. ]
    (Problem.distinct_rates p);
  (* reachability unchanged *)
  Alcotest.(check (list int)) "u3 still reaches both" [ 0; 1 ]
    (Problem.neighbor_aps p 2)

let test_problem_validate_rejects () =
  let bad () =
    ignore
      (Problem.make ~session_rates:[| 1. |] ~user_session:[| 1 |]
         ~rates:[| [| 1. |] |] ~budget:1. ())
  in
  (try
     bad ();
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  let bad_rate () =
    ignore
      (Problem.make ~session_rates:[| -1. |] ~user_session:[| 0 |]
         ~rates:[| [| 1. |] |] ~budget:1. ())
  in
  (try
     bad_rate ();
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* nan slips past [r <= 0.]/[r < 0.] comparisons (both are false), and
     inf survives the division in Loads.tx_rates — both must be rejected
     at construction so they can never poison a load comparison *)
  let rejects what mk =
    try
      ignore (mk ());
      Alcotest.failf "accepted %s" what
    with Invalid_argument _ -> ()
  in
  rejects "nan session rate" (fun () ->
      Problem.make ~session_rates:[| Float.nan |] ~user_session:[| 0 |]
        ~rates:[| [| 1. |] |] ~budget:1. ());
  rejects "infinite session rate" (fun () ->
      Problem.make
        ~session_rates:[| Float.infinity |]
        ~user_session:[| 0 |] ~rates:[| [| 1. |] |] ~budget:1. ());
  rejects "zero session rate" (fun () ->
      Problem.make ~session_rates:[| 0. |] ~user_session:[| 0 |]
        ~rates:[| [| 1. |] |] ~budget:1. ());
  rejects "nan link rate" (fun () ->
      Problem.make ~session_rates:[| 1. |] ~user_session:[| 0 |]
        ~rates:[| [| Float.nan |] |]
        ~budget:1. ());
  rejects "infinite link rate" (fun () ->
      Problem.make ~session_rates:[| 1. |] ~user_session:[| 0 |]
        ~rates:[| [| Float.infinity |] |]
        ~budget:1. ());
  rejects "nan budget" (fun () ->
      Problem.make ~session_rates:[| 1. |] ~user_session:[| 0 |]
        ~rates:[| [| 1. |] |] ~budget:Float.nan ());
  rejects "nan session rate via Session.make" (fun () ->
      Session.make ~rate_mbps:Float.nan)

(* ------------------------------------------------------------------ *)
(* Association & Loads                                                *)
(* ------------------------------------------------------------------ *)

let test_association_basic () =
  let a = Association.empty ~n_users:3 in
  Alcotest.(check int) "served 0" 0 (Association.served_count a);
  Association.serve a ~user:1 ~ap:7;
  Alcotest.(check int) "served 1" 1 (Association.served_count a);
  Alcotest.(check (option int)) "ap_of" (Some 7) (Association.ap_of a 1);
  Alcotest.(check (option int)) "unserved" None (Association.ap_of a 0)

(* [Boxed.users_of] is the membership oracle the churn and serve tests
   read an association back with. *)
let test_association_users_of () =
  let a : Association.t = [| 0; 1; 0; -1; 0 |] in
  Alcotest.(check (list int)) "users of 0" [ 0; 2; 4 ] (Boxed.users_of a ~ap:0);
  Alcotest.(check (list int)) "users of 1" [ 1 ] (Boxed.users_of a ~ap:1)

(* Loads on the Figure 1 example with 3 Mbps sessions: the paper's MNU
   walk-through numbers. *)
let test_loads_fig1_mnu_example () =
  (* u2, u4, u5 -> a1 ; u3 -> a2: a1 load 3/4, a2 load 3/5 *)
  let assoc : Association.t = [| -1; 0; 1; 0; 0 |] in
  let loads = Loads.ap_loads fig1 assoc in
  check_float "a1 load" (3. /. 4.) loads.(0);
  check_float "a2 load" (3. /. 5.) loads.(1);
  check_float "total" ((3. /. 4.) +. (3. /. 5.)) (Loads.total_load fig1 assoc);
  check_float "max" (3. /. 4.) (Loads.max_load fig1 assoc)

let test_loads_infeasible_pair () =
  (* the paper: u1 and u2 both on a1 gives 3/3 + 3/6 = 1.5 > 1 *)
  let assoc : Association.t = [| 0; 0; -1; -1; -1 |] in
  check_float "overload" 1.5 (Boxed.ap_load fig1 assoc ~ap:0);
  Alcotest.(check bool) "violates budget" false
    (Loads.respects_budget fig1 assoc)

let fig1_bla = Examples.fig1 ~session_rate_mbps:1.

let test_loads_fig1_bla_example () =
  (* u1,u2,u3 -> a1; u4,u5 -> a2: loads 1/2 and 1/3 (paper §3.2) *)
  let assoc : Association.t = [| 0; 0; 0; 1; 1 |] in
  let loads = Loads.ap_loads fig1_bla assoc in
  check_float "a1" 0.5 loads.(0);
  check_float "a2" (1. /. 3.) loads.(1);
  check_float "max" 0.5 (Loads.max_load fig1_bla assoc)

let test_loads_fig1_mla_example () =
  (* all users -> a1: total 1/3 + 1/4 = 7/12 (paper §3.2) *)
  let assoc : Association.t = [| 0; 0; 0; 0; 0 |] in
  check_float "total" (7. /. 12.) (Loads.total_load fig1_bla assoc)

let test_loads_min_rate_rule () =
  (* adding a slower receiver re-rates the whole transmission *)
  let assoc : Association.t = [| -1; 0; -1; -1; -1 |] in
  check_float "u2 alone at 6" (1. /. 6.) (Boxed.ap_load fig1_bla assoc ~ap:0);
  let assoc : Association.t = [| -1; 0; -1; 0; -1 |] in
  check_float "u2+u4 at 4" (1. /. 4.) (Boxed.ap_load fig1_bla assoc ~ap:0)

let test_loads_if_joins_leaves () =
  let assoc : Association.t = [| -1; 0; -1; -1; -1 |] in
  check_float "if u4 joins a1" 0.25
    (Loads.load_if_joins fig1_bla assoc ~user:3 ~ap:0);
  (* probing must not mutate *)
  Alcotest.(check (option int)) "u4 untouched" None (Association.ap_of assoc 3);
  check_float "if u2 leaves a1" 0.
    (Loads.Tracker.load_if_leaves
       (Loads.Tracker.create fig1_bla assoc)
       ~user:1 ~ap:0);
  Alcotest.(check (option int)) "u2 untouched" (Some 0)
    (Association.ap_of assoc 1)

let test_load_vector_compare () =
  let c = Loads.compare_load_prefixes_eps ~from:0 ~len:2 in
  Alcotest.(check bool) "(1/2,0) < (1/2,1/5)" true
    (c [| 0.5; 0. |] [| 0.5; 0.2 |] < 0);
  Alcotest.(check bool) "equal" true (c [| 0.5; 0.2 |] [| 0.5; 0.2 |] = 0);
  Alcotest.(check bool) "(7/12,0) > (1/2,1/5)" true
    (c [| 7. /. 12.; 0. |] [| 0.5; 0.2 |] > 0);
  let v = [| 0.1; 0.7; 0.3 |] and ord = [| 0; 1; 2 |] in
  Loads.sort_prefix_desc v ord 3;
  Alcotest.(check (array (float 1e-12))) "sorted desc" [| 0.7; 0.3; 0.1 |] v;
  Alcotest.(check (array int)) "slots follow" [| 1; 2; 0 |] ord

(* ------------------------------------------------------------------ *)
(* Scenario and generation                                            *)
(* ------------------------------------------------------------------ *)

let test_scenario_to_problem_rates () =
  (* one AP at origin, users at canonical distances *)
  let sc =
    Scenario.make ~area_w:300. ~area_h:300.
      ~ap_pos:[| Point.v 0. 0. |]
      ~user_pos:[| Point.v 30. 0.; Point.v 0. 100.; Point.v 250. 0. |]
      ~user_session:[| 0; 0; 0 |]
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:1.)
      ~budget:0.9 ()
  in
  let p = Scenario.to_problem sc in
  check_float "30m -> 54" 54. (Problem.link_rate p ~ap:0 ~user:0);
  check_float "100m -> 18" 18. (Problem.link_rate p ~ap:0 ~user:1);
  check_float "250m -> unreachable" 0. (Problem.link_rate p ~ap:0 ~user:2);
  Alcotest.(check (list int)) "uncovered" [ 2 ] (Scenario.uncovered_users sc)

let test_scenario_signal_is_distance () =
  (* two APs; the closer one must be "strongest" even if rates tie *)
  let sc =
    Scenario.make ~area_w:300. ~area_h:300.
      ~ap_pos:[| Point.v 0. 0.; Point.v 50. 0. |]
      ~user_pos:[| Point.v 32. 0. |] (* 32m from a0 (54M), 18m from a1 (54M) *)
      ~user_session:[| 0 |]
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:1.)
      ~budget:0.9 ()
  in
  let p = Scenario.to_problem sc in
  Alcotest.(check (option int)) "nearest wins" (Some 1)
    (Problem.strongest_ap p 0)

let test_generator_determinism () =
  let cfg = { Scenario_gen.paper_default with n_aps = 20; n_users = 30 } in
  let a = Scenario_gen.problems ~seed:7 ~n:3 cfg in
  let b = Scenario_gen.problems ~seed:7 ~n:3 cfg in
  List.iter2
    (fun (pa : Problem.t) (pb : Problem.t) ->
      Alcotest.(check bool) "same rates" true
        (Problem.rates_matrix pa = Problem.rates_matrix pb);
      Alcotest.(check bool) "same sessions" true
        Problem.(pa.user_session = pb.user_session))
    a b;
  let c = Scenario_gen.problems ~seed:8 ~n:1 cfg in
  Alcotest.(check bool) "different seed differs" false
    (Problem.rates_matrix (List.hd a) = Problem.rates_matrix (List.hd c))

let test_generator_coverage () =
  let cfg =
    { Scenario_gen.paper_default with n_aps = 50; n_users = 80 }
  in
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 5 do
    let sc = Scenario_gen.generate ~rng cfg in
    Alcotest.(check (list int)) "ensured coverage" []
      (Scenario.uncovered_users sc)
  done

let test_generator_dims_and_sessions () =
  let cfg =
    { Scenario_gen.paper_default with n_aps = 13; n_users = 17; n_sessions = 4 }
  in
  let p = List.hd (Scenario_gen.problems ~seed:3 ~n:1 cfg) in
  let n_aps, n_users = Problem.dims p in
  Alcotest.(check int) "aps" 13 n_aps;
  Alcotest.(check int) "users" 17 n_users;
  Alcotest.(check int) "sessions" 4 (Problem.n_sessions p);
  Array.iter
    (fun s ->
      if s < 0 || s >= 4 then Alcotest.fail "session index out of range")
    Problem.(p.user_session)

(* ------------------------------------------------------------------ *)
(* Topology statistics                                                *)
(* ------------------------------------------------------------------ *)

let test_topology_stats_fig1 () =
  let t = Topology_stats.of_problem fig1 in
  Alcotest.(check int) "aps" 2 t.Topology_stats.n_aps;
  Alcotest.(check int) "covered" 5 t.Topology_stats.covered_users;
  (* u1,u2 hear one AP; u3,u4,u5 hear two: mean 8/5, max 2, multi 3 *)
  check_float "mean degree" (8. /. 5.) t.Topology_stats.mean_user_degree;
  Alcotest.(check int) "max degree" 2 t.Topology_stats.max_user_degree;
  Alcotest.(check int) "multi-covered" 3 t.Topology_stats.multi_covered_users;
  (* best rates: 3, 6, 5, 5, 4 -> mean 23/5 *)
  check_float "mean best rate" (23. /. 5.) t.Topology_stats.mean_best_rate;
  Alcotest.(check (array int)) "audiences" [| 2; 3 |]
    t.Topology_stats.session_audience;
  (* 3 of 5 covered users have an alternative AP *)
  Alcotest.(check bool) "reassignable 60%" true
    (Astring.String.is_infix ~affix:"3 users (60%) have an alternative AP"
       (Fmt.str "%a" Topology_stats.pp t))

let test_topology_stats_uncovered () =
  let p =
    Problem.make ~allow_uncovered:true ~session_rates:[| 1. |]
      ~user_session:[| 0; 0 |] ~rates:[| [| 6.; 0. |] |] ~budget:0.9 ()
  in
  let t = Topology_stats.of_problem p in
  Alcotest.(check int) "one covered" 1 t.Topology_stats.covered_users;
  Alcotest.(check int) "no alternatives" 0 t.Topology_stats.multi_covered_users;
  Alcotest.(check bool) "reassignable 0%" true
    (Astring.String.is_infix ~affix:"0 users (0%) have an alternative AP"
       (Fmt.str "%a" Topology_stats.pp t));
  (* no covered user at all: the fraction is 0, not nan *)
  let none =
    Topology_stats.of_problem
      (Problem.make ~allow_uncovered:true ~session_rates:[| 1. |]
         ~user_session:[| 0 |] ~rates:[| [| 0. |] |] ~budget:0.9 ())
  in
  Alcotest.(check int) "none covered" 0 none.Topology_stats.covered_users;
  Alcotest.(check bool) "reassignable 0% of none" true
    (Astring.String.is_infix ~affix:"0 users (0%) have an alternative AP"
       (Fmt.str "%a" Topology_stats.pp none))

let test_topology_stats_histogram_sums () =
  let rng = Random.State.make [| 44 |] in
  let sc =
    Scenario_gen.generate ~rng
      { Scenario_gen.paper_default with n_aps = 20; n_users = 50 }
  in
  let t = Topology_stats.of_problem (Scenario.to_problem sc) in
  let hist_total =
    List.fold_left (fun acc (_, c) -> acc + c) 0 t.Topology_stats.rate_histogram
  in
  Alcotest.(check int) "histogram covers everyone"
    t.Topology_stats.covered_users hist_total;
  Alcotest.(check int) "audiences cover everyone" 50
    (Array.fold_left ( + ) 0 t.Topology_stats.session_audience)

(* ------------------------------------------------------------------ *)
(* Scenario serialization                                             *)
(* ------------------------------------------------------------------ *)

let test_scenario_io_roundtrip () =
  let rng = Random.State.make [| 33 |] in
  let sc =
    Scenario_gen.generate ~rng
      { Scenario_gen.paper_default with n_aps = 12; n_users = 25 }
  in
  let sc' = Scenario_io.of_string (Scenario_io.to_string sc) in
  Alcotest.(check bool) "ap positions" true
    (sc'.Scenario.ap_pos = sc.Scenario.ap_pos);
  Alcotest.(check bool) "user positions" true
    (sc'.Scenario.user_pos = sc.Scenario.user_pos);
  Alcotest.(check bool) "sessions" true
    (sc'.Scenario.user_session = sc.Scenario.user_session);
  (* the compiled problems are identical bit for bit *)
  let p = Scenario.to_problem sc and p' = Scenario.to_problem sc' in
  Alcotest.(check bool) "identical rates" true
    (Problem.rates_matrix p = Problem.rates_matrix p');
  Alcotest.(check bool) "identical budget" true
    (Problem.budget p = Problem.budget p')

let test_scenario_io_bit_exact_floats () =
  (* a position with no short decimal representation round-trips exactly *)
  let x = 1. /. 3. and y = Float.pi in
  let sc =
    Scenario.make ~area_w:10. ~area_h:10.
      ~ap_pos:[| Point.v x y |]
      ~user_pos:[| Point.v (x *. 2.) (y /. 7.) |]
      ~user_session:[| 0 |]
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:(1. /. 7.))
      ~budget:(2. /. 3.) ()
  in
  let sc' = Scenario_io.of_string (Scenario_io.to_string sc) in
  Alcotest.(check bool) "ap bit-exact" true
    (sc'.Scenario.ap_pos.(0) = sc.Scenario.ap_pos.(0));
  Alcotest.(check bool) "user bit-exact" true
    (sc'.Scenario.user_pos.(0) = sc.Scenario.user_pos.(0));
  Alcotest.(check bool) "budget bit-exact" true
    (sc'.Scenario.budget = sc.Scenario.budget);
  Alcotest.(check bool) "session rate bit-exact" true
    (Session.rate_mbps sc'.Scenario.sessions.(0)
    = Session.rate_mbps sc.Scenario.sessions.(0))

let test_scenario_io_rejects_garbage () =
  let bad s =
    try
      ignore (Scenario_io.of_string s);
      Alcotest.failf "accepted %S" s
    with Scenario_io.Parse_error _ -> ()
  in
  bad "";
  bad "not-a-scenario 1\n";
  bad "wlan-mcast-scenario 99\n";
  bad "wlan-mcast-scenario 1\nmystery line\n";
  (* missing sections *)
  bad "wlan-mcast-scenario 1\narea 10 10\n";
  (* non-positive / non-finite rates must fail at parse time with a
     line-level error, before they can reach the load division *)
  let preamble = "wlan-mcast-scenario 1\narea 10 10\nbudget 0.9\n" in
  bad (preamble ^ "rates 54:35 0:60\nsessions 1\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates 54:35 -6:60\nsessions 1\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates nan:35\nsessions 1\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates 54:0\nsessions 1\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates 54:35\nsessions 0\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates 54:35\nsessions -1\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates 54:35\nsessions nan\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates 54:35\nsessions inf\nap 1 1\nuser 2 2 0\n")

let test_scenario_io_file () =
  let rng = Random.State.make [| 34 |] in
  let sc =
    Scenario_gen.generate ~rng
      { Scenario_gen.paper_default with n_aps = 5; n_users = 8 }
  in
  let path = Filename.temp_file "wlan_scenario" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Scenario_io.to_file path sc;
      let sc' = Scenario_io.of_file path in
      Alcotest.(check bool) "file roundtrip" true
        (Scenario.to_problem sc' = Scenario.to_problem sc))

let prop_scenario_io_roundtrip =
  QCheck.Test.make ~name:"scenario serialization round-trips" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let sc =
        Scenario_gen.generate ~rng
          {
            Scenario_gen.paper_default with
            n_aps = 6;
            n_users = 10;
            n_sessions = 3;
            ensure_coverage = false;
          }
      in
      let sc' = Scenario_io.of_string (Scenario_io.to_string sc) in
      Scenario.to_problem sc' = Scenario.to_problem sc)

(* Construction-time validation (Rate_table.make, Scenario.make,
   Rate_model.validate) must surface as Parse_error, never as a raw
   Invalid_argument escaping [of_string]. *)
let test_scenario_io_parse_error_discipline () =
  let bad s =
    match Scenario_io.of_string s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Scenario_io.Parse_error _ -> ()
    | exception Invalid_argument m ->
        Alcotest.failf "leaked Invalid_argument %S on %S" m s
  in
  let preamble = "wlan-mcast-scenario 1\narea 10 10\nbudget 0.9\n" in
  (* rates out of order: positive entries pass the line-level checks but
     violate the Rate_table invariant *)
  bad (preamble ^ "rates 6:200 54:35\nsessions 1\nap 1 1\nuser 2 2 0\n");
  bad (preamble ^ "rates 54:35 48:30\nsessions 1\nap 1 1\nuser 2 2 0\n");
  (* empty rates line *)
  bad (preamble ^ "rates\nsessions 1\nap 1 1\nuser 2 2 0\n");
  (* session index out of range: fails inside Scenario.make *)
  bad (preamble ^ "rates 54:35\nsessions 1\nap 1 1\nuser 2 2 9\n");
  (* bad model parameters: fail inside Rate_model.validate *)
  let v2 = "wlan-mcast-scenario 2\narea 10 10\nbudget 0.9\nrates 54:35\n" in
  let tail = "sessions 1\nap 1 1\nuser 2 2 0\n" in
  let radio_snr = "radio 16 5.8 -85 iso iso\nsnr 54:25.5 6:6\n" in
  bad (v2 ^ "model log-distance 0\n" ^ radio_snr ^ tail);
  bad (v2 ^ "model two-ray 0 1.5\n" ^ radio_snr ^ tail);
  bad (v2 ^ "model friis\nradio 16 5.8 -85 iso iso\nsnr 6:6 54:25.5\n" ^ tail);
  (* non-finite coordinates: fail inside Scenario.make *)
  List.iter
    (fun line -> bad (preamble ^ "rates 54:35\nsessions 1\n" ^ line))
    [
      "ap nan 1e300\nap 1 1\nuser 2 2 0\n";
      "ap 1 inf\nuser 2 2 0\n";
      "ap 1 1\nuser -inf 2 0\n";
      "ap 1 1\nuser 2 nan 0\n";
    ]

(* [Scenario.make] refuses a non-finite AP or user coordinate: an AP at
   NaN is at no distance from anyone, so it would load and never link. *)
let test_scenario_rejects_non_finite () =
  let make ~ap ~user =
    Scenario.make ~area_w:10. ~area_h:10. ~ap_pos:[| ap |] ~user_pos:[| user |]
      ~user_session:[| 0 |]
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:1.)
      ~budget:0.9 ()
  in
  let ok = Point.v 1. 1. in
  List.iter
    (fun (ap, user) ->
      match make ~ap ~user with
      | _ ->
          Alcotest.failf "accepted (%g, %g) / (%g, %g)" ap.Point.x ap.Point.y
            user.Point.x user.Point.y
      | exception Invalid_argument _ -> ())
    [
      (Point.v nan 1e300, ok);
      (Point.v 1. infinity, ok);
      (ok, Point.v neg_infinity 1.);
      (ok, Point.v 1. nan);
    ];
  ignore (make ~ap:(Point.v (-1e300) 1e300) ~user:ok)

let test_scenario_io_rejects_v2_garbage () =
  let bad s =
    try
      ignore (Scenario_io.of_string s);
      Alcotest.failf "accepted %S" s
    with Scenario_io.Parse_error _ -> ()
  in
  let v2 = "wlan-mcast-scenario 2\narea 10 10\nbudget 0.9\nrates 54:35\n" in
  let tail = "sessions 1\nap 1 1\nuser 2 2 0\n" in
  let radio_snr = "radio 16 5.8 -85 iso iso\nsnr 54:25.5 6:6\n" in
  (* model sections need a model line *)
  bad (v2 ^ "shadow 4 7\n" ^ tail);
  bad (v2 ^ "radio 16 5.8 -85 iso iso\n" ^ tail);
  bad (v2 ^ "snr 54:25.5 6:6\n" ^ tail);
  (* a model line needs both radio and snr *)
  bad (v2 ^ "model friis\n" ^ tail);
  bad (v2 ^ "model friis\nradio 16 5.8 -85 iso iso\n" ^ tail);
  bad (v2 ^ "model friis\nsnr 54:25.5 6:6\n" ^ tail);
  (* shadowing is a log-distance concept only *)
  bad (v2 ^ "model friis\nshadow 4 7\n" ^ radio_snr ^ tail);
  bad (v2 ^ "model two-ray 10 1.5\nshadow 4 7\n" ^ radio_snr ^ tail);
  (* malformed model / antenna lines *)
  bad (v2 ^ "model warp-drive\n" ^ radio_snr ^ tail);
  bad (v2 ^ "model friis\nradio 16 5.8 -85 par iso\nsnr 54:25.5 6:6\n" ^ tail);
  (* model lines are a version-2 feature: under a v1 header they are
     unrecognized lines, not silently ignored *)
  let v1 = "wlan-mcast-scenario 1\narea 10 10\nbudget 0.9\nrates 54:35\n" in
  bad (v1 ^ "model friis\n" ^ radio_snr ^ tail);
  bad (v1 ^ "shadow 4 7\n" ^ tail)

(* A [Table] scenario always writes the historical byte format: version-1
   header and no model section, whatever [version] says. *)
let test_scenario_io_v1_byte_compat () =
  let rng = Random.State.make [| 35 |] in
  let sc =
    Scenario_gen.generate ~rng
      { Scenario_gen.paper_default with n_aps = 4; n_users = 6 }
  in
  let s = Scenario_io.to_string sc in
  Alcotest.(check bool) "v1 header" true
    (String.length s >= 22 && String.sub s 0 22 = "wlan-mcast-scenario 1\n");
  List.iter
    (fun l ->
      match String.split_on_char ' ' l with
      | ("model" | "shadow" | "radio" | "snr") :: _ ->
          Alcotest.failf "v1 text contains model line %S" l
      | _ -> ())
    (String.split_on_char '\n' s)

(* Non-default tables survive the trip: 802.11b and a power-scaled
   table produce the same serialized text and the same compile. *)
let test_scenario_io_roundtrip_tables () =
  List.iter
    (fun table ->
      let rng = Random.State.make [| 36 |] in
      let sc =
        Scenario_gen.generate ~rng
          {
            Scenario_gen.paper_default with
            n_aps = 5;
            n_users = 9;
            rate_table = table;
            ensure_coverage = false;
          }
      in
      let s = Scenario_io.to_string sc in
      let sc' = Scenario_io.of_string s in
      Alcotest.(check string) "text fixed point" s (Scenario_io.to_string sc');
      Alcotest.(check bool) "same table" true
        (Rate_table.entries sc'.Scenario.rate_table
        = Rate_table.entries sc.Scenario.rate_table);
      Alcotest.(check bool) "same compile" true
        (Scenario.to_problem sc' = Scenario.to_problem sc))
    [
      Rate_table.ieee80211b;
      Rate_table.scale_thresholds 0.5 Rate_table.default;
      Rate_table.make [ { rate_mbps = 6.; threshold_m = 200. } ];
    ]

(* Version-2 round-trips: a random Path_loss model (family, antennas,
   shadowing) serializes to a fixed point and reads back structurally
   equal, and the compiled problems match bit for bit. *)
let random_rate_model rng =
  let antenna st =
    if Random.State.bool st then Rate_model.Isotropic
    else
      Rate_model.Parabolic
        { gain_dbi = 0.5 +. Random.State.float st 11. }
  in
  let radio =
    {
      Rate_model.default_radio with
      tx_antenna = antenna rng;
      rx_antenna = antenna rng;
    }
  in
  let loss : Rate_model.path_loss =
    match Random.State.int rng 4 with
    | 0 -> Friis
    | 1 ->
        let ap_height_m = 2. +. Random.State.float rng 10. in
        let user_height_m = 1. +. Random.State.float rng 2. in
        Two_ray { ap_height_m; user_height_m }
    | 2 ->
        Log_distance
          { exponent = 2. +. Random.State.float rng 1.5; shadowing = None }
    | _ ->
        let exponent = 2. +. Random.State.float rng 1.5 in
        let sigma_db = Random.State.float rng 6. in
        let seed = Random.State.int rng 10_000 in
        Log_distance
          { exponent; shadowing = Some { Rate_model.sigma_db; seed } }
  in
  Rate_model.Path_loss { loss; radio }

let prop_scenario_io_roundtrip_v2 =
  QCheck.Test.make ~name:"v2 model serialization round-trips" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model = random_rate_model rng in
      let sc =
        Scenario_gen.generate ~rng
          {
            Scenario_gen.paper_default with
            n_aps = 6;
            n_users = 10;
            n_sessions = 2;
            rate_model = Some model;
            ensure_coverage = false;
          }
      in
      let s = Scenario_io.to_string sc in
      let sc' = Scenario_io.of_string s in
      s = Scenario_io.to_string sc'
      && sc'.Scenario.model = sc.Scenario.model
      && Scenario.to_problem sc' = Scenario.to_problem sc)

(* ------------------------------------------------------------------ *)
(* Coverage boundary agreement                                        *)
(* ------------------------------------------------------------------ *)

(* Regression for the boundary predicate mismatch: [Point.within]
   compares dist² ≤ r² while the compile compares sqrt dist² ≤ r, and
   the two disagree on boundary links where the squaring rounds the
   other way. Witness found by exhaustive search: at range 160 the
   point below has dist² > 160² but sqrt dist² ≤ 160 — the compile
   covers it, so [uncovered_users] must agree and report nothing. *)
let test_uncovered_users_boundary_witness () =
  let table = Rate_table.make [ { rate_mbps = 6.; threshold_m = 160. } ] in
  let ap = Point.v 0. 0. in
  let u = Point.v 159.99999680000002 0.03199999978666667 in
  Alcotest.(check bool) "witness: within disagrees with sqrt" false
    (Point.within 160. ap u);
  Alcotest.(check bool) "witness: sqrt side is in range" true
    (Point.dist ap u <= 160.);
  let sc =
    Scenario.make ~area_w:200. ~area_h:200. ~ap_pos:[| ap |] ~user_pos:[| u |]
      ~user_session:[| 0 |]
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:1.)
      ~rate_table:table ~budget:0.9 ()
  in
  let p = Scenario.to_problem sc in
  Alcotest.(check bool) "compile covers the witness" true
    (Problem.neighbor_aps p 0 <> []);
  Alcotest.(check (list int)) "uncovered_users agrees with the compile" []
    (Scenario.uncovered_users sc)

(* The general invariant the witness pins: a user is uncovered exactly
   when its compiled candidate set is empty, under dense and sparse
   compiles alike, for table and path-loss models. *)
let prop_uncovered_users_matches_compile =
  QCheck.Test.make ~name:"uncovered_users = empty candidate sets" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let model =
        if Random.State.bool rng then None else Some (random_rate_model rng)
      in
      let sc =
        Scenario_gen.generate ~rng
          {
            Scenario_gen.paper_default with
            n_aps = 4;
            n_users = 12;
            rate_model = model;
            ensure_coverage = false;
          }
      in
      let uncovered = Scenario.uncovered_users sc in
      let agrees p =
        List.init (Scenario.n_users sc) Fun.id
        |> List.for_all (fun u ->
               List.mem u uncovered = (Problem.neighbor_aps p u = []))
      in
      agrees (Scenario.to_problem sc) && agrees (All_pairs.problem sc))

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                  *)
(* ------------------------------------------------------------------ *)

let small_problem_gen =
  (* random geometric problems: 1-8 APs, 1-12 users, 1-3 sessions *)
  QCheck.Gen.(
    let* n_aps = int_range 1 8 in
    let* n_users = int_range 1 12 in
    let* n_sessions = int_range 1 3 in
    let* seed = int_range 0 1_000_000 in
    return
      (List.hd
         (Scenario_gen.problems ~seed ~n:1
            {
              Scenario_gen.paper_default with
              area_w = 400.;
              area_h = 400.;
              n_aps;
              n_users;
              n_sessions;
              ensure_coverage = false;
            })))

let arb_problem = QCheck.make small_problem_gen

let random_assoc rng p =
  let _, n_users = Problem.dims p in
  Array.init n_users (fun u ->
      let ns = Problem.neighbor_aps p u in
      match ns with
      | [] -> Association.none
      | _ ->
          if Random.State.bool rng then Association.none
          else List.nth ns (Random.State.int rng (List.length ns)))

let prop_total_is_sum =
  QCheck.Test.make ~name:"total load = sum of AP loads" ~count:100 arb_problem
    (fun p ->
      let rng = Random.State.make [| 5 |] in
      let assoc = random_assoc rng p in
      let loads = Loads.ap_loads p assoc in
      feq ~eps:1e-9
        (Array.fold_left ( +. ) 0. loads)
        (Loads.total_load p assoc))

(* The single-AP scan behind [load_if_joins]: a user probing the AP it
   is already on reads that AP's load. *)
let prop_ap_load_consistent =
  QCheck.Test.make ~name:"ap_load agrees with ap_loads" ~count:100 arb_problem
    (fun p ->
      let rng = Random.State.make [| 6 |] in
      let assoc = random_assoc rng p in
      let loads = Loads.ap_loads p assoc in
      Array.for_all Fun.id
        (Array.mapi
           (fun u a ->
             a = Association.none
             || feq loads.(a) (Loads.load_if_joins p assoc ~user:u ~ap:a))
           assoc))

let prop_load_monotone_in_users =
  QCheck.Test.make ~name:"adding a user never decreases an AP's load"
    ~count:100 arb_problem (fun p ->
      let rng = Random.State.make [| 7 |] in
      let assoc = random_assoc rng p in
      let ok = ref true in
      Array.iteri
        (fun u a ->
          if a = Association.none then
            List.iter
              (fun ap ->
                let before = Boxed.ap_load p assoc ~ap in
                let after = Loads.load_if_joins p assoc ~user:u ~ap in
                if after < before -. 1e-12 then ok := false)
              (Problem.neighbor_aps p u))
        assoc;
      !ok)

let prop_leaving_never_increases =
  QCheck.Test.make ~name:"removing a user never increases an AP's load"
    ~count:100 arb_problem (fun p ->
      let rng = Random.State.make [| 8 |] in
      let assoc = random_assoc rng p in
      let ok = ref true in
      Array.iteri
        (fun u a ->
          if a <> Association.none then begin
            let before = Boxed.ap_load p assoc ~ap:a in
            let after = Boxed.load_if_leaves p assoc ~user:u ~ap:a in
            if after > before +. 1e-12 then ok := false
          end)
        assoc;
      !ok)

let prop_tracker_matches_eager =
  (* every value the incremental tracker serves must be bit-identical
     (Float.equal, no epsilon) to the eager from-scratch computation *)
  QCheck.Test.make ~name:"Tracker matches from-scratch loads under churn"
    ~count:60 arb_problem (fun p ->
      let rng = Random.State.make [| 42 |] in
      let _, n_users = Problem.dims p in
      let assoc = random_assoc rng p in
      let tr = Loads.Tracker.create p assoc in
      let ok = ref true in
      let check () =
        let eager = Loads.ap_loads p assoc in
        Array.iteri
          (fun a l ->
            if not (Float.equal l (Loads.Tracker.ap_load tr a)) then
              ok := false)
          eager;
        if
          not
            (Float.equal (Loads.total_load p assoc)
               (Loads.Tracker.total_load tr))
        then ok := false;
        if
          not
            (Float.equal (Loads.max_load p assoc) (Loads.Tracker.max_load tr))
        then ok := false;
        (* hypothetical probes: a random user against all its neighbors *)
        let u = Random.State.int rng n_users in
        List.iter
          (fun ap ->
            if
              not
                (Float.equal
                   (Loads.load_if_joins p assoc ~user:u ~ap)
                   (Loads.Tracker.load_if_joins tr ~user:u ~ap))
            then ok := false;
            if
              not
                (Float.equal
                   (Boxed.load_if_leaves p assoc ~user:u ~ap)
                   (Loads.Tracker.load_if_leaves tr ~user:u ~ap))
            then ok := false)
          (Problem.neighbor_aps p u)
      in
      check ();
      for _ = 1 to 40 do
        let u = Random.State.int rng n_users in
        let ns = Problem.neighbor_aps p u in
        let target =
          match ns with
          | [] -> Association.none
          | _ ->
              if Random.State.int rng 4 = 0 then Association.none
              else List.nth ns (Random.State.int rng (List.length ns))
        in
        Loads.Tracker.move tr ~user:u ~ap:target;
        check ()
      done;
      !ok)

let prop_tracker_churn_sequences =
  (* churn-shaped op mix — interleaved joins, leaves and AP failures —
     with the edge cases the move-based fuzz above rarely hits: APs
     drained to empty member sets (an AP failure detaches everyone, in
     ascending user order, exactly as Online's [Ap_fail] delta does) and
     the last receiver of a session leaving one user at a time. The tracker
     must stay bit-identical to the eager scan after every single op. *)
  QCheck.Test.make ~name:"Tracker survives interleaved join/leave/fail"
    ~count:60 arb_problem (fun p ->
      let rng = Random.State.make [| 43 |] in
      let n_aps, n_users = Problem.dims p in
      let assoc = Association.empty ~n_users in
      let tr = Loads.Tracker.create p assoc in
      let ok = ref true in
      let check () =
        let eager = Loads.ap_loads p assoc in
        Array.iteri
          (fun a l ->
            if not (Float.equal l (Loads.Tracker.ap_load tr a)) then
              ok := false)
          eager;
        if
          not
            (Float.equal (Loads.total_load p assoc)
               (Loads.Tracker.total_load tr))
          || not
               (Float.equal (Loads.max_load p assoc)
                  (Loads.Tracker.max_load tr))
        then ok := false
      in
      let join () =
        let u = Random.State.int rng n_users in
        match Problem.neighbor_aps p u with
        | [] -> ()
        | ns ->
            Loads.Tracker.move tr ~user:u
              ~ap:(List.nth ns (Random.State.int rng (List.length ns)));
            check ()
      in
      let leave () =
        match Boxed.served_users assoc with
        | [] -> ()
        | us ->
            Loads.Tracker.unserve tr
              ~user:(List.nth us (Random.State.int rng (List.length us)));
            check ()
      in
      let fail_ap a =
        (* detach every member, ascending — check after each unserve so
           the "last receiver leaves" transition of every session on the
           AP is exercised, down to the empty member set *)
        List.iter
          (fun u ->
            Loads.Tracker.unserve tr ~user:u;
            check ())
          (Boxed.users_of assoc ~ap:a);
        if not (Float.equal 0. (Loads.Tracker.ap_load tr a)) then ok := false
      in
      check ();
      for _ = 1 to 60 do
        match Random.State.int rng 5 with
        | 0 | 1 -> join ()
        | 2 -> leave ()
        | _ when n_aps > 0 -> fail_ap (Random.State.int rng n_aps)
        | _ -> ()
      done;
      (* drain everything: the whole network down to zero load *)
      List.iter
        (fun u ->
          Loads.Tracker.unserve tr ~user:u;
          check ())
        (Boxed.served_users assoc);
      if not (Float.equal 0. (Loads.Tracker.total_load tr)) then ok := false;
      !ok)

let prop_rate_adaptation_in_table =
  QCheck.Test.make ~name:"every generated link rate is a Table-1 rate"
    ~count:50 arb_problem (fun p ->
      let table = Rate_table.rates Rate_table.default in
      Array.for_all
        (Array.for_all (fun r ->
             r = 0. || List.exists (fun t -> feq t r) table))
        (Problem.rates_matrix p))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_total_is_sum;
      prop_ap_load_consistent;
      prop_load_monotone_in_users;
      prop_leaving_never_increases;
      prop_rate_adaptation_in_table;
      prop_tracker_matches_eager;
      prop_tracker_churn_sequences;
      prop_scenario_io_roundtrip;
      prop_scenario_io_roundtrip_v2;
      prop_uncovered_users_matches_compile;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "wlan_model"
    [
      ( "point",
        [
          tc "distance" test_point_dist;
          tc "symmetry" test_point_dist_symmetric;
          tc "random in bounds" test_point_random_in_bounds;
        ] );
      ( "rate_table",
        [
          tc "table 1 thresholds" test_table1_thresholds;
          tc "out of range" test_table1_out_of_range;
          tc "monotone in distance" test_rate_monotone_in_distance;
          tc "range" test_range;
          tc "power scaling" test_scale_thresholds;
          tc "rejects unsorted" test_make_rejects_unsorted;
        ] );
      ("rate_model", [ tc "smart constructor constants" test_rate_model_constructors ]);
      ( "session",
        [ tc "make" test_session_make; tc "uniform" test_session_uniform ] );
      ( "problem",
        [
          tc "dims" test_problem_dims;
          tc "neighbors" test_problem_neighbors;
          tc "strongest ap" test_problem_strongest_ap;
          tc "isolated user" test_problem_no_neighbor;
          tc "receivers" test_problem_receivers;
          tc "distinct rates" test_problem_distinct_rates;
          tc "basic-rate restriction" test_problem_basic_rate_restriction;
          tc "validation" test_problem_validate_rejects;
        ] );
      ( "association",
        [
          tc "serve/unserve" test_association_basic;
          tc "users_of" test_association_users_of;
        ] );
      ( "loads",
        [
          tc "fig1 MNU walk-through" test_loads_fig1_mnu_example;
          tc "fig1 infeasible pair" test_loads_infeasible_pair;
          tc "fig1 BLA walk-through" test_loads_fig1_bla_example;
          tc "fig1 MLA walk-through" test_loads_fig1_mla_example;
          tc "min-rate rule" test_loads_min_rate_rule;
          tc "join/leave probes" test_loads_if_joins_leaves;
          tc "load vector compare" test_load_vector_compare;
        ] );
      ( "scenario",
        [
          tc "rate adaptation" test_scenario_to_problem_rates;
          tc "signal = -distance" test_scenario_signal_is_distance;
          tc "generator determinism" test_generator_determinism;
          tc "generator coverage" test_generator_coverage;
          tc "generator dims" test_generator_dims_and_sessions;
        ] );
      ( "topology_stats",
        [
          tc "fig1" test_topology_stats_fig1;
          tc "uncovered user" test_topology_stats_uncovered;
          tc "histogram sums" test_topology_stats_histogram_sums;
        ] );
      ( "scenario_io",
        [
          tc "roundtrip" test_scenario_io_roundtrip;
          tc "bit-exact floats" test_scenario_io_bit_exact_floats;
          tc "rejects garbage" test_scenario_io_rejects_garbage;
          tc "parse-error discipline" test_scenario_io_parse_error_discipline;
          tc "non-finite coordinates" test_scenario_rejects_non_finite;
          tc "rejects v2 garbage" test_scenario_io_rejects_v2_garbage;
          tc "v1 byte compat" test_scenario_io_v1_byte_compat;
          tc "non-default tables" test_scenario_io_roundtrip_tables;
          tc "file roundtrip" test_scenario_io_file;
        ] );
      ( "coverage_boundary",
        [ tc "fp witness" test_uncovered_users_boundary_witness ] );
      ("properties", qcheck_cases);
    ]
