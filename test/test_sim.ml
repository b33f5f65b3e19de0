(* Tests for the discrete-event simulator: event ordering, engine clock
   discipline, scanning discovery, MAC airtime accounting against the
   analytic loads of Definition 1, protocol agents, each protocol
   decision against the boxed reference rule, and end-to-end
   equivalence between the simulated protocols and the abstract
   algorithms. *)

open Wlan_model
open Wlan_sim

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float ?eps msg expected actual =
  if not (feq ?eps expected actual) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Event queue                                                        *)
(* ------------------------------------------------------------------ *)

let test_queue_time_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  let pop () = Option.get (Event_queue.pop q) in
  Alcotest.(check string) "first" "a" (snd (pop ()));
  Alcotest.(check string) "second" "b" (snd (pop ()));
  Alcotest.(check string) "third" "c" (snd (pop ()));
  Alcotest.(check bool) "drained" true (Event_queue.pop q = None)

let test_queue_fifo_on_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:1. i
  done;
  for i = 0 to 9 do
    Alcotest.(check int) "insertion order" i (snd (Option.get (Event_queue.pop q)))
  done

let test_queue_growth () =
  (* push through several capacity doublings and drain in order *)
  let q = Event_queue.create () in
  for i = 999 downto 0 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  for i = 0 to 999 do
    let t, v = Option.get (Event_queue.pop q) in
    if v <> i || t <> float_of_int i then Alcotest.fail "order broken"
  done

let test_queue_rejects_bad_time () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Event_queue.push: bad time")
    (fun () -> Event_queue.push q ~time:(-1.) ());
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: bad time")
    (fun () -> Event_queue.push q ~time:Float.nan ())

let prop_queue_sorts =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0. 100.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let prev = ref neg_infinity in
      let ok = ref true in
      let rec drain () =
        match Event_queue.pop q with
        | None -> ()
        | Some (t, ()) ->
            if t < !prev then ok := false;
            prev := t;
            drain ()
      in
      drain ();
      !ok)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_clock_advances () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2. (fun () -> log := (2., Engine.now e) :: !log);
  Engine.schedule e ~at:1. (fun () -> log := (1., Engine.now e) :: !log);
  ignore (Engine.run e);
  List.iter (fun (want, got) -> check_float "clock = event time" want got) !log;
  Alcotest.(check int) "both fired" 2 (Engine.processed e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let hits = ref [] in
  Engine.schedule e ~at:1. (fun () ->
      hits := 1 :: !hits;
      Engine.after e ~delay:0.5 (fun () -> hits := 2 :: !hits));
  ignore (Engine.run e);
  Alcotest.(check (list int)) "chain fired in order" [ 1; 2 ] (List.rev !hits);
  check_float "final time" 1.5 (Engine.now e)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~at:5. (fun () ->
      try
        Engine.schedule e ~at:1. (fun () -> ());
        Alcotest.fail "expected rejection"
      with Invalid_argument _ -> ());
  ignore (Engine.run e)

let test_engine_rejects_reentrant_run () =
  let e = Engine.create () in
  Engine.schedule e ~at:1. (fun () ->
      try
        ignore (Engine.run e);
        Alcotest.fail "expected re-entrant rejection"
      with Invalid_argument _ -> ());
  ignore (Engine.run e);
  (* and the engine is still usable afterwards *)
  let fired = ref false in
  Engine.schedule e ~at:2. (fun () -> fired := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "recovered" true !fired

let test_mac_rejects_empty_window () =
  let e = Engine.create () in
  Alcotest.check_raises "empty window"
    (Invalid_argument "Mac.start: empty window") (fun () ->
      ignore (Mac.start e ~n_aps:1 ~window:(1., 1.) []))

let test_scanning_empty_network () =
  (* zero users: completion still fires *)
  let radio =
    {
      Radio.model = Rate_model.Table Rate_table.default;
      ap_pos = [||];
      user_pos = [||];
    }
  in
  let e = Engine.create () in
  let done_ = ref false in
  Scanning.start e radio ~on_complete:(fun _ -> done_ := true);
  ignore (Engine.run e);
  Alcotest.(check bool) "completed" true !done_

let test_engine_determinism () =
  let run_once () =
    let e = Engine.create ~seed:42 () in
    let v = ref [] in
    for _ = 1 to 5 do
      v := Engine.jitter e ~max:1. :: !v
    done;
    !v
  in
  Alcotest.(check bool) "same seed, same jitter" true (run_once () = run_once ())

(* ------------------------------------------------------------------ *)
(* A small deterministic scenario for the remaining tests              *)
(* ------------------------------------------------------------------ *)

(* Two APs 300 m apart; u0 near a0 only, u1 between both, u2 near a1 only.
   Rates: u0: a0@54; u1: a0@6 (190m), a1@12 (110m -> 12); u2: a1@54. *)
let sc2 =
  Scenario.make ~area_w:500. ~area_h:100.
    ~ap_pos:[| Point.v 0. 0.; Point.v 300. 0. |]
    ~user_pos:[| Point.v 10. 0.; Point.v 190. 0.; Point.v 310. 0. |]
    ~user_session:[| 0; 0; 1 |]
    ~sessions:(Session.uniform ~n:2 ~rate_mbps:1.)
    ~budget:0.9 ()

let test_radio_rates () =
  let r = Radio.of_scenario sc2 in
  Alcotest.(check (option (float 1e-9))) "u0-a0" (Some 54.)
    (Radio.link_rate r ~ap:0 ~user:0);
  Alcotest.(check (option (float 1e-9))) "u1-a0 at 190m" (Some 6.)
    (Radio.link_rate r ~ap:0 ~user:1);
  Alcotest.(check (option (float 1e-9))) "u1-a1 at 110m" (Some 12.)
    (Radio.link_rate r ~ap:1 ~user:1);
  Alcotest.(check (option (float 1e-9))) "u0-a1 out of range" None
    (Radio.link_rate r ~ap:1 ~user:0);
  Alcotest.(check (list int)) "u1 neighbors" [ 0; 1 ]
    (Radio.neighbor_aps r ~user:1)

(* ------------------------------------------------------------------ *)
(* Scanning                                                           *)
(* ------------------------------------------------------------------ *)

let test_scanning_discovers_neighbors () =
  let radio = Radio.of_scenario sc2 in
  let engine = Engine.create () in
  let out = ref None in
  Scanning.start engine radio ~on_complete:(fun r -> out := Some r);
  ignore (Engine.run engine);
  match !out with
  | None -> Alcotest.fail "scan never completed"
  | Some results ->
      let sorted = Scanning.sort_by_signal results in
      let aps_of u = List.map (fun (n : Scanning.neighbor) -> n.Scanning.ap) sorted.(u) in
      Alcotest.(check (list int)) "u0 sees a0" [ 0 ] (aps_of 0);
      Alcotest.(check (list int)) "u1 sees a1 first (closer)" [ 1; 0 ] (aps_of 1);
      Alcotest.(check (list int)) "u2 sees a1" [ 1 ] (aps_of 2);
      List.iter
        (fun (n : Scanning.neighbor) ->
          if n.Scanning.ap = 0 then
            check_float "u1-a0 measured rate" 6. n.Scanning.link_rate_mbps)
        sorted.(1)

(* Each probe is answered once by every AP in range: the scan ends with
   all 3 users, holding 1 + 2 + 1 neighbours. *)
let test_scanning_counts () =
  let radio = Radio.of_scenario sc2 in
  let engine = Engine.create () in
  let out = ref None in
  Scanning.start engine radio ~on_complete:(fun r -> out := Some r);
  ignore (Engine.run engine);
  match !out with
  | None -> Alcotest.fail "scan never completed"
  | Some results ->
      Alcotest.(check int) "3 users" 3 (Array.length results);
      Alcotest.(check (list int)) "1+2+1 neighbours" [ 1; 2; 1 ]
        (Array.to_list (Array.map List.length results))

(* ------------------------------------------------------------------ *)
(* MAC accounting                                                     *)
(* ------------------------------------------------------------------ *)

let test_mac_measured_equals_analytic () =
  let p = Scenario.to_problem sc2 in
  (* u0,u1 -> a0 (s0 at min(54,6)=6); u2 -> a1 (s1 at 54) *)
  let assoc : Association.t = [| 0; 0; 1 |] in
  let engine = Engine.create () in
  let plan = Mac.plan_of_association p assoc in
  let acc = Mac.start engine ~n_aps:2 ~window:(0., 2.) plan in
  ignore (Engine.run engine);
  let measured = Mac.measured_loads acc in
  let analytic = Loads.ap_loads p assoc in
  Array.iteri
    (fun a m ->
      check_float ~eps:0.02 (Fmt.str "ap %d measured ~ analytic" a)
        analytic.(a) m)
    measured;
  check_float ~eps:1e-12 "a0 analytic 1/6" (1. /. 6.) analytic.(0)

let test_mac_empty_plan () =
  let engine = Engine.create () in
  let acc = Mac.start engine ~n_aps:3 ~window:(0., 1.) [] in
  ignore (Engine.run engine);
  Alcotest.(check (array (float 1e-12))) "all zero" [| 0.; 0.; 0. |]
    (Mac.measured_loads acc)

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_limit_and_order () =
  let t = Trace.create () in
  for i = 0 to 200_002 do
    Trace.log t ~time:(float_of_int i) (Trace.Arrive { user = i })
  done;
  (* chronological order, the earliest 200,000 records kept, then one
     line naming the 3 dropped; the text ends with a newline *)
  let lines = Array.of_list (String.split_on_char '\n' (Trace.to_string t)) in
  Alcotest.(check int) "line count" 200_002 (Array.length lines);
  Alcotest.(check string) "first" "0.000000 arrive u0" lines.(0);
  Alcotest.(check string) "second" "1.000000 arrive u1" lines.(1);
  Alcotest.(check string) "third" "2.000000 arrive u2" lines.(2);
  Alcotest.(check string) "last" "199999.000000 arrive u199999" lines.(199_999);
  Alcotest.(check string) "dropped"
    "dropped 3 records past the 200000-record limit" lines.(200_000);
  Alcotest.(check string) "end" "" lines.(200_001)

(* A log within the limit is its records and nothing else. *)
let test_trace_pp () =
  let t = Trace.create () in
  Trace.log t ~time:1.5 (Trace.Depart { user = 3; ap = 7 });
  Alcotest.(check string) "one line" "1.500000 depart u3 from a7\n"
    (Trace.to_string t)

(* ------------------------------------------------------------------ *)
(* Protocol agents                                                    *)
(* ------------------------------------------------------------------ *)

let test_ap_agent_tx_table () =
  let st = Proto.ap_create 0 in
  Proto.ap_join st ~user:0 ~session:0 ~link_rate:54.;
  Proto.ap_join st ~user:1 ~session:0 ~link_rate:6.;
  Proto.ap_join st ~user:2 ~session:1 ~link_rate:12.;
  let rates = [| 1.; 1. |] in
  check_float "load 1/6 + 1/12" ((1. /. 6.) +. (1. /. 12.))
    (Proto.ap_load st ~session_rates:rates);
  (* the slow user's answer recomputes session 0 at the 54 Mb/s member *)
  Alcotest.(check (option (float 1e-9))) "without slow user"
    (Some ((1. /. 54.) +. (1. /. 12.)))
    (Proto.ap_answer st ~session_rates:rates ~budget:1. ~user:1)
      .Proto.load_without_you;
  Proto.ap_leave st ~user:2;
  check_float "after leave" (1. /. 6.) (Proto.ap_load st ~session_rates:rates)

let test_ap_answer_fields () =
  let st = Proto.ap_create 3 in
  Proto.ap_join st ~user:7 ~session:0 ~link_rate:12.;
  let r = Proto.ap_answer st ~session_rates:[| 1. |] ~budget:0.9 ~user:7 in
  Alcotest.(check int) "from" 3 r.Proto.from_ap;
  Alcotest.(check (float 1e-9)) "advertised budget" 0.9 r.Proto.budget;
  Alcotest.(check (list (pair int (float 1e-9)))) "sessions" [ (0, 12.) ]
    r.Proto.sessions;
  check_float "load" (1. /. 12.) r.Proto.load;
  Alcotest.(check (option (float 1e-9))) "without me" (Some 0.)
    r.Proto.load_without_you;
  let r' = Proto.ap_answer st ~session_rates:[| 1. |] ~budget:0.9 ~user:9 in
  Alcotest.(check (option (float 1e-9))) "stranger" None
    r'.Proto.load_without_you

(* The advertised session list must depend only on the member *set*, never
   on the order users joined (it is built through a Hashtbl, whose bucket
   order is unspecified): a user that queries two APs with identical
   members must see identical advertisements. *)
let prop_proto_answer_order_independent =
  let n_sessions = 24 in
  let gen_members =
    QCheck.Gen.(
      list_size (int_range 2 40)
        (triple (int_range 0 100)
           (int_range 0 (n_sessions - 1))
           (oneofl [ 6.; 12.; 24.; 54. ])))
  in
  QCheck.Test.make
    ~name:"AP session advertisement is insertion-order independent" ~count:200
    (QCheck.make gen_members)
    (fun members ->
      (* one entry per user: ap_join ignores re-joins of a known user *)
      let members =
        List.fold_left
          (fun acc ((u, _, _) as m) ->
            if List.exists (fun (u', _, _) -> u' = u) acc then acc
            else m :: acc)
          [] members
      in
      let rates = Array.make n_sessions 1. in
      let answer ms =
        let st = Proto.ap_create 0 in
        List.iter
          (fun (u, s, r) -> Proto.ap_join st ~user:u ~session:s ~link_rate:r)
          ms;
        Proto.ap_answer st ~session_rates:rates ~budget:0.9 ~user:(-1)
      in
      let sorted_by_session l =
        List.sort (fun (a, _) (b, _) -> Int.compare a b) l
      in
      let a = answer members and b = answer (List.rev members) in
      (* identical member sets => identical advertisements, and the
         advertisement is in canonical (session-sorted) order *)
      a.Proto.sessions = b.Proto.sessions
      && a.Proto.sessions = sorted_by_session a.Proto.sessions
      && feq a.Proto.load b.Proto.load)

(* ------------------------------------------------------------------ *)
(* End-to-end runs                                                    *)
(* ------------------------------------------------------------------ *)

let gen_scenario =
  QCheck.Gen.(
    let* n_aps = int_range 2 8 in
    let* n_users = int_range 2 15 in
    let* n_sessions = int_range 1 3 in
    let* seed = int_range 0 100_000 in
    let rng = Random.State.make [| seed |] in
    return
      (Scenario_gen.generate ~rng
         {
           Scenario_gen.paper_default with
           area_w = 500.;
           area_h = 500.;
           n_aps;
           n_users;
           n_sessions;
         }))

let arb_scenario = QCheck.make gen_scenario

(* ------------------------------------------------------------------ *)
(* Proto.decide = the boxed reference rule                            *)
(* ------------------------------------------------------------------ *)

module D = Mcast_core.Distributed

let session_rates p = Array.init (Problem.n_sessions p) (Problem.session_rate p)

(* AP agents mirroring [assoc] on [p]. *)
let agents p (assoc : Association.t) =
  let n_aps, _ = Problem.dims p in
  let aps = Array.init n_aps Proto.ap_create in
  Array.iteri
    (fun u a ->
      if a <> Association.none then
        Proto.ap_join aps.(a) ~user:u ~session:(Problem.user_session p u)
          ~link_rate:(Problem.link_rate p ~ap:a ~user:u))
    assoc;
  aps

(* User [u]'s decision from messages: one [neighbor_info] per in-range
   AP, strongest first as scanning lists them, and one answer from every
   neighbor [heard] keeps, in the order [arrival] puts them. *)
let proto_decide ?(heard = fun _ -> true) ?(arrival = Fun.id) ~objective p
    assoc u =
  let aps = agents p assoc and session_rates = session_rates p in
  let neighbors =
    List.map
      (fun a ->
        {
          Proto.ap = a;
          link_rate = Problem.link_rate p ~ap:a ~user:u;
          signal = Problem.signal p ~ap:a ~user:u;
        })
      (Ssa_ref.neighbors_by_signal p u)
  in
  let responses =
    List.filter_map
      (fun (n : Proto.neighbor_info) ->
        if heard n.ap then
          Some
            (Proto.ap_answer aps.(n.ap) ~session_rates
               ~budget:(Problem.ap_budget p n.ap) ~user:u)
        else None)
      neighbors
  in
  Proto.decide ~objective ~session_rates ~session:(Problem.user_session p u)
    ~current:(Association.ap_of assoc u) ~neighbors ~responses:(arrival responses)

let reference ~objective p assoc u =
  Boxed.decide p assoc ~loads:(Loads.ap_loads p assoc) ~objective u

(* A random instance with mixed per-AP budgets (some too tight for any
   join) and a random in-range association, a third of the users
   unserved. *)
let gen_decide_case =
  QCheck.Gen.(
    let* sc = gen_scenario in
    let* seed = int_range 0 100_000 in
    let rng = Random.State.make [| seed; 0xde51de |] in
    let p = Scenario.to_problem sc in
    let n_aps, n_users = Problem.dims p in
    let tiers = [| 0.05; 0.2; 0.4; 0.9; 0.9 |] in
    let p =
      Problem.with_ap_budgets p
        (Array.init n_aps (fun _ ->
             tiers.(Random.State.int rng (Array.length tiers))))
    in
    let assoc =
      Array.init n_users (fun u ->
          match Problem.neighbor_aps p u with
          | [] -> Association.none
          | ns ->
              if Random.State.int rng 3 = 0 then Association.none
              else List.nth ns (Random.State.int rng (List.length ns)))
    in
    return (p, assoc, seed))

let prop_proto_decide_matches_reference =
  QCheck.Test.make ~name:"Proto.decide = the boxed reference rule" ~count:200
    (QCheck.make gen_decide_case)
    (fun (p, assoc, seed) ->
      let rng = Random.State.make [| seed; 0xa771 |] in
      (* answers arrive in any order *)
      let arrival l =
        List.map (fun r -> (Random.State.bits rng, r)) l
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.map snd
      in
      let _, n_users = Problem.dims p in
      List.for_all
        (fun objective ->
          List.for_all
            (fun u ->
              let got = proto_decide ~arrival ~objective p assoc u
              and want = reference ~objective p assoc u in
              if got <> want then
                QCheck.Test.fail_reportf "user %d (served by %d): %s vs %s" u
                  assoc.(u)
                  (Option.fold ~none:"stay" ~some:string_of_int got)
                  (Option.fold ~none:"stay" ~some:string_of_int want)
              else true)
            (List.init n_users Fun.id))
        [ D.Min_total_load; D.Min_load_vector ])

(* Three APs, three users of one session, everyone at 6 Mbps. User 0 is
   served by AP 0 and also hears APs 1 and 2 (AP 2 the strongest); APs 1
   and 2 already send the session at 6, so either move drops AP 0's 1/6
   at no cost, and the signal picks AP 2. [~link2:false] drops the
   (AP 2, user 0) link. *)
let three_aps ?(link2 = true) ?(budget = 0.9) () =
  let r2 = if link2 then 6. else 0. in
  Problem.make ~session_rates:[| 1. |] ~user_session:[| 0; 0; 0 |]
    ~rates:[| [| 6.; 0.; 0. |]; [| 6.; 6.; 0. |]; [| r2; 0.; 6. |] |]
    ~signal:[| [| 1.; 0.; 0. |]; [| 2.; 2.; 0. |]; [| 3.; 0.; 2. |] |]
    ~budget ()

let both_objectives f = List.iter f [ D.Min_total_load; D.Min_load_vector ]
let decision = Alcotest.(option int)

let test_proto_lost_response () =
  let p = three_aps () and assoc : Association.t = [| 0; 1; 2 |] in
  both_objectives (fun objective ->
      Alcotest.check decision "all heard: strongest of the tie" (Some 2)
        (proto_decide ~objective p assoc 0);
      (* AP 2's answer is lost: it is neither a candidate nor part of the
         objective — the rule on the instance without that link *)
      let lost = proto_decide ~heard:(fun a -> a <> 2) ~objective p assoc 0 in
      Alcotest.check decision "AP 2 unheard" (Some 1) lost;
      Alcotest.check decision "= rule without the link"
        (reference ~objective (three_aps ~link2:false ()) assoc 0)
        lost)

let test_proto_unheard_serving_ap () =
  let p = three_aps () and assoc : Association.t = [| 0; 1; 2 |] in
  both_objectives (fun objective ->
      Alcotest.check decision "serving AP unheard: stay" None
        (proto_decide ~heard:(fun a -> a <> 0) ~objective p assoc 0))

let test_proto_no_feasible_neighbor () =
  (* user 0 unserved; a join costs any AP 1/6 > 0.1 *)
  let assoc : Association.t = [| -1; 1; 2 |] in
  both_objectives (fun objective ->
      let p = three_aps ~budget:0.1 () in
      Alcotest.check decision "no feasible AP" None
        (proto_decide ~objective p assoc 0);
      Alcotest.check decision "= reference" (reference ~objective p assoc 0)
        None;
      Alcotest.check decision "feasible at 0.9" (Some 2)
        (proto_decide ~objective (three_aps ()) assoc 0))

(* An exact tie: two APs at the same distance from unserved user 0, so
   equal link rates and signals, each already sending the session at
   that rate to one other user, so equal advertised loads and an equal
   join. Scanning lists AP 1 first; the rule folds candidates in
   ascending AP index and keeps the first of an exact tie, so the user
   joins AP 0 under both objectives, whatever order it heard them in. *)
let test_proto_exact_tie_ascending () =
  let session_rates = [| 1. |] in
  let responses =
    List.map
      (fun a ->
        let st = Proto.ap_create a in
        Proto.ap_join st ~user:(a + 1) ~session:0 ~link_rate:6.;
        Proto.ap_answer st ~session_rates ~budget:0.9 ~user:0)
      [ 1; 0 ]
  in
  let neighbors =
    List.map
      (fun ap -> { Proto.ap; link_rate = 6.; signal = 2. })
      [ 1; 0 ]
  in
  both_objectives (fun objective ->
      Alcotest.check decision "the lower AP index wins" (Some 0)
        (Proto.decide ~objective ~session_rates ~session:0 ~current:None
           ~neighbors ~responses))

let prop_sim_ssa_matches_abstract =
  QCheck.Test.make ~name:"simulated SSA = abstract Ssa.run" ~count:40
    arb_scenario (fun sc ->
      let r = Runner.run ~policy:Runner.Ssa_policy sc in
      let abstract = Mcast_core.Ssa.run (Scenario.to_problem sc) in
      r.Runner.assoc = abstract.Mcast_core.Solution.assoc)

let prop_sim_distributed_matches_abstract =
  QCheck.Test.make
    ~name:"simulated sequential protocol = abstract Distributed.run" ~count:30
    arb_scenario (fun sc ->
      let p = Scenario.to_problem sc in
      let r =
        Runner.run
          ~policy:
            (Runner.Distributed_policy
               {
                 objective = Mcast_core.Distributed.Min_total_load;
                 mode = `Sequential;
                 max_passes = 50;
               })
          sc
      in
      let o =
        Mcast_core.Distributed.run ~scheduler:Mcast_core.Distributed.Sequential
          ~objective:Mcast_core.Distributed.Min_total_load p
      in
      r.Runner.converged
      && r.Runner.assoc = o.Mcast_core.Distributed.assoc)

let prop_sim_distributed_bla_matches_abstract =
  QCheck.Test.make
    ~name:"simulated sequential BLA protocol = abstract Distributed.run"
    ~count:30 arb_scenario (fun sc ->
      let p = Scenario.to_problem sc in
      let r =
        Runner.run
          ~policy:
            (Runner.Distributed_policy
               {
                 objective = Mcast_core.Distributed.Min_load_vector;
                 mode = `Sequential;
                 max_passes = 50;
               })
          sc
      in
      let o =
        Mcast_core.Distributed.run ~scheduler:Mcast_core.Distributed.Sequential
          ~objective:Mcast_core.Distributed.Min_load_vector p
      in
      r.Runner.converged
      && r.Runner.assoc = o.Mcast_core.Distributed.assoc)

let prop_sim_measured_close_to_analytic =
  QCheck.Test.make ~name:"measured loads within 5% of Definition 1" ~count:30
    arb_scenario (fun sc ->
      let r = Runner.run ~streaming_window:2.0 ~policy:Runner.Ssa_policy sc in
      Array.for_all2
        (fun m a -> Float.abs (m -. a) <= (0.05 *. Float.max a 0.02) +. 1e-6)
        r.Runner.measured_loads r.Runner.analytic_loads)

let prop_sim_static_installs =
  QCheck.Test.make ~name:"static policy installs the given association"
    ~count:30 arb_scenario (fun sc ->
      let p = Scenario.to_problem sc in
      let mla = Mcast_core.Mla.run p in
      let r =
        Runner.run
          ~policy:(Runner.Static_policy mla.Mcast_core.Solution.assoc)
          sc
      in
      r.Runner.assoc = mla.Mcast_core.Solution.assoc)

let prop_sim_deterministic =
  QCheck.Test.make ~name:"same seed gives identical runs" ~count:15
    arb_scenario (fun sc ->
      let run () =
        let r =
          Runner.run ~seed:9
            ~policy:
              (Runner.Distributed_policy
                 {
                   objective = Mcast_core.Distributed.Min_total_load;
                   mode = `Sequential;
                   max_passes = 50;
                 })
            sc
        in
        (Array.copy r.Runner.assoc, r.Runner.events, Array.copy r.Runner.measured_loads)
      in
      run () = run ())

let test_sim_report_consistency () =
  let r = Runner.run ~policy:Runner.Ssa_policy sc2 in
  Alcotest.(check int) "all three served" 3
    r.Runner.solution.Mcast_core.Solution.satisfied;
  Alcotest.(check bool) "events processed" true (r.Runner.events > 0);
  Alcotest.(check bool) "sim time advanced" true (r.Runner.sim_time > 0.)

(* A static association can only place a user on an AP its scan found:
   u0 is out of a1's range, and a disabled a0 answers no probe. *)
let test_sim_static_out_of_range () =
  Alcotest.check_raises "u0 on a1"
    (Invalid_argument
       "Runner.run: Static_policy puts user 0 on AP 1, not among the APs \
        its scan found")
    (fun () ->
      ignore (Runner.run ~policy:(Runner.Static_policy [| 1; 1; 1 |]) sc2));
  Alcotest.check_raises "u0 on disabled a0"
    (Invalid_argument
       "Runner.run: Static_policy puts user 0 on AP 0, not among the APs \
        its scan found")
    (fun () ->
      ignore
        (Runner.run ~disabled_aps:[ 0 ]
           ~policy:(Runner.Static_policy [| 0; 1; 1 |])
           sc2))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_queue_sorts;
      prop_sim_ssa_matches_abstract;
      prop_sim_measured_close_to_analytic;
      prop_sim_static_installs;
      prop_sim_deterministic;
      prop_proto_answer_order_independent;
    ]

(* the simulated protocol against the abstract rule, message by message
   and to the fixpoint *)
let differential_cases =
  let tc name f = Alcotest.test_case name `Quick f in
  List.map QCheck_alcotest.to_alcotest
    [
      prop_proto_decide_matches_reference;
      prop_sim_distributed_matches_abstract;
      prop_sim_distributed_bla_matches_abstract;
    ]
  @ [
      tc "lost response" test_proto_lost_response;
      tc "unheard serving AP" test_proto_unheard_serving_ap;
      tc "no feasible neighbor" test_proto_no_feasible_neighbor;
      tc "exact tie: ascending AP order" test_proto_exact_tie_ascending;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "wlan_sim"
    [
      ( "event_queue",
        [
          tc "time order" test_queue_time_order;
          tc "fifo on ties" test_queue_fifo_on_ties;
          tc "growth" test_queue_growth;
          tc "rejects bad time" test_queue_rejects_bad_time;
        ] );
      ( "engine",
        [
          tc "clock advances" test_engine_clock_advances;
          tc "nested scheduling" test_engine_nested_scheduling;
          tc "rejects past" test_engine_rejects_past;
          tc "re-entrant run" test_engine_rejects_reentrant_run;
          tc "determinism" test_engine_determinism;
        ] );
      ("radio", [ tc "rates" test_radio_rates ]);
      ( "scanning",
        [
          tc "discovers neighbors" test_scanning_discovers_neighbors;
          tc "scan counts" test_scanning_counts;
          tc "empty network" test_scanning_empty_network;
        ] );
      ( "mac",
        [
          tc "measured = analytic" test_mac_measured_equals_analytic;
          tc "empty plan" test_mac_empty_plan;
          tc "rejects empty window" test_mac_rejects_empty_window;
        ] );
      ( "trace",
        [
          tc "limit and order" test_trace_limit_and_order;
          tc "pretty printing" test_trace_pp;
        ] );
      ( "proto",
        [
          tc "ap tx table" test_ap_agent_tx_table;
          tc "ap answer" test_ap_answer_fields;
        ] );
      ( "end-to-end",
        [
          tc "report consistency" test_sim_report_consistency;
          tc "static association out of range" test_sim_static_out_of_range;
        ] );
      ("properties", qcheck_cases);
      ("differential", differential_cases);
    ]
