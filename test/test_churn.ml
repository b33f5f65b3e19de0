(* The churn differential battery: dynamic runs pinned to the static
   solvers.

   - Quiescence oracle (qcheck): after an arbitrary churn script drains,
     the association is a Nash point of the local rule on the final
     static topology, and the tracker's cached per-AP loads equal a
     from-scratch eager recompute bit for bit — for the MNU (tight
     budget), BLA and MLA variants.
   - Differential settle: an all-dirty Online settle executes the same
     moves in the same rounds and lands on the same association and
     floats as the boxed reference loop (test/boxed.ml), Sequential, on
     the same instance; a settle whose last allowed round empties the
     dirty set has converged.
   - Golden traces: the committed demo scenario replays to the committed
     trace/metrics digests, byte-identical at jobs 1 and jobs 4.
   - Replay = session: a churn replay and a serve daemon session fed
     the same script settle to the same per-step counts and loads and
     the same final association, under both rules and both settle
     modes.
   - Fig. 4: simultaneous decisions from the crossed start oscillate;
     sequential decisions converge. *)

open Wlan_model
open Mcast_core

let small_cfg ~n_aps ~n_users =
  { Scenario_gen.paper_default with n_aps; n_users; area_w = 500.; area_h = 500. }

(* Deterministic (seed)-indexed random instance + script. *)
let case ~seed =
  let rng = Random.State.make [| seed; 0x0c4a51 |] in
  let n_aps = 3 + Random.State.int rng 6 in
  let n_users = 6 + Random.State.int rng 16 in
  let p = Scenario_gen.nth_problem ~seed ~index:0 (small_cfg ~n_aps ~n_users) in
  let n_aps, n_users = Problem.dims p in
  let script =
    Churn_script.random ~rng ~n_aps ~n_users
      { Churn_script.default_gen with n_events = 5 + Random.State.int rng 25 }
  in
  (p, script)

let check_float_arrays what a b =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Float.equal x b.(i)) then
        Alcotest.failf "%s: index %d differs: %.17g vs %.17g" what i x b.(i))
    a

(* ------------------------------------------------------------------ *)
(* Quiescence oracle                                                   *)
(* ------------------------------------------------------------------ *)

let quiescent_after_churn ~label ~objective ~tweak seed =
  let p, script = case ~seed in
  let p = tweak p in
  let o =
    Wlan_sim.Churn.run ~baseline:false
      ~tiers:(Problem.distinct_rates p)
      ~objective ~script p
  in
  (* every settle converged (Sequential always does) *)
  List.iter
    (fun (s : Wlan_sim.Churn.step) ->
      if not s.converged then Alcotest.failf "%s: step did not converge" label)
    o.Wlan_sim.Churn.steps;
  let eff = o.Wlan_sim.Churn.effective in
  let assoc = o.Wlan_sim.Churn.assoc in
  (* per-AP loads: tracker cache = eager recompute, bit for bit *)
  let eager = Loads.ap_loads eff assoc in
  check_float_arrays (label ^ " loads") eager o.Wlan_sim.Churn.loads;
  (* Nash: no user's local rule wants to move on the final topology *)
  let _, n_users = Problem.dims eff in
  for u = 0 to n_users - 1 do
    match Boxed.decide eff assoc ~loads:eager ~objective u with
    | None -> ()
    | Some ap -> Alcotest.failf "%s: user %d still wants AP %d" label u ap
  done;
  true

let qcheck_oracle ~label ~objective ~tweak =
  QCheck.Test.make ~name:("quiescence oracle: " ^ label) ~count:40
    QCheck.(int_range 0 10_000)
    (quiescent_after_churn ~label ~objective ~tweak)

let oracle_mla =
  qcheck_oracle ~label:"MLA" ~objective:Distributed.Min_total_load
    ~tweak:Fun.id

let oracle_bla =
  qcheck_oracle ~label:"BLA" ~objective:Distributed.Min_load_vector
    ~tweak:Fun.id

(* MNU regime: a tight budget makes feasibility bite. *)
let oracle_mnu =
  qcheck_oracle ~label:"MNU" ~objective:Distributed.Min_total_load
    ~tweak:(fun p -> Problem.with_budget p 0.3)

(* ------------------------------------------------------------------ *)
(* Differential: Online all-dirty settle = boxed sequential loop         *)
(* ------------------------------------------------------------------ *)

let differential_settle ~objective seed =
  let p, _ = case ~seed in
  let st =
    Boxed.run ~max_rounds:500 ~scheduler:Sequential ~objective p
      (Association.empty ~n_users:(snd (Problem.dims p)))
  in
  let net = Distributed.Online.create ~objective p in
  let stats = Distributed.Online.settle ~max_rounds:500 net in
  if not (Association.equal st.Distributed.assoc (Distributed.Online.assoc net))
  then Alcotest.fail "association differs from the boxed sequential loop";
  Alcotest.(check int) "same moves" st.Distributed.moves
    stats.Distributed.Online.moves;
  Alcotest.(check int) "same rounds" st.Distributed.rounds
    stats.Distributed.Online.rounds;
  Alcotest.(check bool) "converged" true stats.Distributed.Online.converged;
  check_float_arrays "loads"
    (Loads.ap_loads p st.Distributed.assoc)
    (Array.copy (Distributed.Online.loads net));
  (* settling again is a no-op in O(1) *)
  let again = Distributed.Online.settle net in
  Alcotest.(check int) "idempotent rounds" 0 again.Distributed.Online.rounds;
  Alcotest.(check int) "idempotent moves" 0 again.Distributed.Online.moves;
  true

let qcheck_differential_mla =
  QCheck.Test.make ~name:"Online settle = boxed loop (MLA rule)"
    ~count:60
    QCheck.(int_range 0 10_000)
    (differential_settle ~objective:Distributed.Min_total_load)

let qcheck_differential_bla =
  QCheck.Test.make ~name:"Online settle = boxed loop (BLA rule)"
    ~count:60
    QCheck.(int_range 0 10_000)
    (differential_settle ~objective:Distributed.Min_load_vector)

(* ------------------------------------------------------------------ *)
(* Differential: churn replay = serve daemon session                   *)
(* ------------------------------------------------------------------ *)

(* The simulator and the daemon drive one batch applier, so a churn
   replay and a daemon session fed the same script agree bit for bit.
   The session arrives every user at t=0 and flushes (the replay's
   initial convergence), then sends the script through the adapter and
   flushes once more: one [settled] line per replay step. Only [events]
   may differ (a [Burst] is one script event but several wire arrivals).
   The final associations are equal, the replay's tracker loads equal a
   recompute of the daemon's association, and the snapshot reports the
   replay's final loads. *)
let replay_matches_session ~objective ~mode seed =
  let p, script = case ~seed in
  let _, n_users = Problem.dims p in
  let o = Wlan_sim.Churn.run ~baseline:false ~mode ~objective ~script p in
  let module S = Mcast_serve in
  let config =
    {
      S.Replay_log.objective;
      obj_label =
        (match objective with
        | Distributed.Min_total_load -> "mnu"
        | Distributed.Min_load_vector -> "bla");
      mode;
      max_rounds = 200;
      queue_limit = 4096;
      tiers = Problem.distinct_rates p;
      scenario_digest = None;
    }
  in
  let server = S.Server.create ~config p in
  let arrivals =
    List.init n_users (fun user ->
        S.Protocol.Event { time = 0.; event = S.Protocol.Arrive { user } })
  in
  let script_inputs =
    match S.Adapter.inputs_of_events (Churn_script.events script) with
    | Ok inputs -> inputs
    | Error e -> Alcotest.fail (S.Adapter.error_message e)
  in
  let outs =
    List.concat_map (S.Server.handle_input server)
      ((S.Protocol.Hello { version = S.Protocol.version } :: arrivals)
      @ (S.Protocol.Flush :: script_inputs)
      @ [ S.Protocol.Flush; S.Protocol.Snapshot ])
  in
  let settled =
    List.filter_map
      (function
        | S.Protocol.Settled
            {
              time;
              interrupted;
              rounds;
              moves;
              reassociated;
              converged;
              oscillated;
              total_load;
              max_load;
              _;
            } ->
            Some
              ( time,
                ((interrupted, rounds), (moves, reassociated)),
                (converged, oscillated),
                (total_load, max_load) )
        | S.Protocol.Error { detail; _ } -> Alcotest.failf "refused: %s" detail
        | _ -> None)
      outs
  in
  let steps = o.Wlan_sim.Churn.steps in
  Alcotest.(check int)
    (Fmt.str "seed %d: settles" seed)
    (List.length steps) (List.length settled);
  let same_float what a b =
    if not (Float.equal a b) then
      Alcotest.failf "seed %d: %s %.17g vs %.17g" seed what a b
  in
  List.iter2
    (fun (s : Wlan_sim.Churn.step) (time, counts, flags, (total, peak)) ->
      same_float "time" s.time time;
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Fmt.str "seed %d t=%g: interrupted, rounds, moves, reassociated"
           seed s.time)
        ((s.interrupted, s.rounds), (s.moves, s.reassociated))
        counts;
      Alcotest.(check (pair bool bool))
        (Fmt.str "seed %d t=%g: converged, oscillated" seed s.time)
        (s.converged, s.oscillated) flags;
      same_float "total_load" s.total_load total;
      same_float "max_load" s.max_load peak)
    steps settled;
  let assoc = S.Server.assoc server in
  if not (Association.equal assoc o.Wlan_sim.Churn.assoc) then
    Alcotest.failf "seed %d: final association differs" seed;
  check_float_arrays "loads"
    (Loads.ap_loads o.Wlan_sim.Churn.effective assoc)
    o.Wlan_sim.Churn.loads;
  (match List.rev outs with
  | S.Protocol.State st :: _ ->
      let last = List.nth steps (List.length steps - 1) in
      same_float "snapshot total_load" last.total_load st.total_load;
      same_float "snapshot max_load" last.max_load st.max_load
  | _ -> Alcotest.fail "no snapshot reply");
  true

let qcheck_replay_session =
  QCheck.Test.make ~name:"churn replay = daemon session (MNU, BLA x seq, sim)"
    ~count:200
    QCheck.(int_range 0 10_000)
    (fun seed ->
      List.for_all
        (fun (objective, mode) -> replay_matches_session ~objective ~mode seed)
        [
          (Distributed.Min_total_load, `Sequential);
          (Distributed.Min_total_load, `Simultaneous);
          (Distributed.Min_load_vector, `Sequential);
          (Distributed.Min_load_vector, `Simultaneous);
        ])

(* A settle capped at exactly the rounds a full run takes has drained the
   dirty set in its last round, so it has converged; one round fewer has
   not. Paper-default instance, seed 1, total-load rule (4 rounds). *)
let test_settle_converges_on_last_round () =
  let p = Scenario_gen.nth_problem ~seed:1 ~index:0 Scenario_gen.paper_default in
  let objective = Distributed.Min_total_load in
  let full = Distributed.run ~scheduler:Sequential ~objective p in
  Alcotest.(check bool) "full run converged" true full.Distributed.converged;
  let capped rounds =
    let net = Distributed.Online.create ~objective p in
    let s = Distributed.Online.settle ~max_rounds:rounds net in
    (s, Distributed.Online.dirty_count net)
  in
  let s, dirty = capped full.Distributed.rounds in
  Alcotest.(check int) "dirty set drained" 0 dirty;
  Alcotest.(check bool) "converged at the cap" true
    s.Distributed.Online.converged;
  let s, dirty = capped (full.Distributed.rounds - 1) in
  Alcotest.(check bool) "dirty users left" true (dirty > 0);
  Alcotest.(check bool) "not converged below the cap" false
    s.Distributed.Online.converged

(* ------------------------------------------------------------------ *)
(* Online delta bookkeeping                                            *)
(* ------------------------------------------------------------------ *)

let test_online_deltas () =
  let p, _ = case ~seed:42 in
  let net = Distributed.Online.create ~objective:Distributed.Min_total_load p in
  let apply d = Distributed.Online.apply net ~tiers:[||] d in
  let changes d = apply d <> Distributed.Online.Unchanged in
  let (_ : Distributed.Online.settle_stats) = Distributed.Online.settle net in
  (* no-op deltas change nothing *)
  Alcotest.(check bool) "arrive present" false (changes (Arrive { user = 0 }));
  Alcotest.(check bool) "recover alive" false (changes (Ap_recover { ap = 0 }));
  Alcotest.(check int) "still quiescent" 0 (Distributed.Online.dirty_count net);
  (* depart + arrive round-trips to a quiescent equivalent state *)
  (match apply (Depart { user = 0 }) with
  | Departed { user = 0; _ } -> ()
  | _ -> Alcotest.fail "user 0 should be present");
  Alcotest.(check bool) "absent now" false (Distributed.Online.is_present net 0);
  Alcotest.(check bool) "double depart must be a no-op" false
    (changes (Depart { user = 0 }));
  let (_ : Distributed.Online.settle_stats) = Distributed.Online.settle net in
  Alcotest.(check bool) "arrive absent" true (changes (Arrive { user = 0 }));
  let (_ : Distributed.Online.settle_stats) = Distributed.Online.settle net in
  (* failing an AP detaches exactly its members and empties it *)
  let assoc = Distributed.Online.assoc net in
  let members = Boxed.users_of assoc ~ap:0 in
  (match apply (Ap_fail { ap = 0 }) with
  | Failed { ap = 0; detached } ->
      Alcotest.(check (list int)) "detached = members" members detached
  | _ -> Alcotest.fail "AP 0 should be alive");
  Alcotest.(check bool) "dead now" false (Distributed.Online.ap_alive net 0);
  Alcotest.(check bool) "double fail must be a no-op" false
    (changes (Ap_fail { ap = 0 }));
  let (_ : Distributed.Online.settle_stats) = Distributed.Online.settle net in
  (* nobody is served by a dead AP, and its load is zero *)
  let assoc = Distributed.Online.assoc net in
  Alcotest.(check (list int)) "dead AP empty" []
    (Boxed.users_of assoc ~ap:0);
  Alcotest.(check bool) "dead AP load 0" true
    (Float.equal 0. (Distributed.Online.loads net).(0));
  (* the quiescent state is Nash on the effective instance *)
  let eff = Distributed.Online.effective_problem net in
  let loads = Loads.ap_loads eff assoc in
  let _, n_users = Problem.dims eff in
  for u = 0 to n_users - 1 do
    match
      Boxed.decide eff assoc ~loads
        ~objective:Distributed.Min_total_load u
    with
    | None -> ()
    | Some ap -> Alcotest.failf "user %d wants AP %d after failure" u ap
  done

(* ------------------------------------------------------------------ *)
(* Fig. 4                                                              *)
(* ------------------------------------------------------------------ *)

let test_fig4_oscillates () =
  let p = Examples.fig4 in
  let o =
    Wlan_sim.Churn.run ~init:Examples.fig4_initial ~mode:`Simultaneous
      ~baseline:false
      ~tiers:(Problem.distinct_rates p)
      ~objective:Distributed.Min_total_load
      ~script:(Churn_script.make []) p
  in
  Alcotest.(check bool) "oscillated" true o.Wlan_sim.Churn.oscillated

let test_fig4_sequential_converges () =
  let p = Examples.fig4 in
  let o =
    Wlan_sim.Churn.run ~init:Examples.fig4_initial ~mode:`Sequential
      ~baseline:false
      ~tiers:(Problem.distinct_rates p)
      ~objective:Distributed.Min_total_load
      ~script:(Churn_script.make []) p
  in
  Alcotest.(check bool) "no oscillation" false o.Wlan_sim.Churn.oscillated;
  List.iter
    (fun (s : Wlan_sim.Churn.step) ->
      Alcotest.(check bool) "converged" true s.converged)
    o.Wlan_sim.Churn.steps

(* ------------------------------------------------------------------ *)
(* Golden traces: demo scenario, jobs 1 vs jobs 4 vs committed digest  *)
(* ------------------------------------------------------------------ *)

(* Mirror of the CLI replay: three variants fanned out over a pool,
   results in submission order. *)
let demo_replay ~jobs =
  let sc = Scenario_io.of_file "../scenarios/churn_demo.scn" in
  let script = Scenario_io.churn_of_file "../scenarios/churn_demo.churn" in
  let p = Scenario.to_problem sc in
  let variants =
    [
      ("mnu", Distributed.Min_total_load);
      ("bla", Distributed.Min_load_vector);
      ("mla", Distributed.Min_total_load);
    ]
  in
  Harness.Pool.with_pool ~jobs @@ fun pool ->
  Harness.Pool.run pool
    (List.map
       (fun (label, objective) () ->
         let o = Wlan_sim.Churn.run ~objective ~script p in
         {
           Harness.Metrics.label;
           objective =
             (match objective with
             | Distributed.Min_total_load -> "min-total-load"
             | Distributed.Min_load_vector -> "min-load-vector");
           mode = "sequential";
           outcome = o;
         })
       variants)

let render_traces runs =
  String.concat ""
    (List.map
       (fun (r : Harness.Metrics.run) ->
         Printf.sprintf "== %s ==\n%s" r.Harness.Metrics.label
           (Wlan_sim.Trace.to_string
              r.Harness.Metrics.outcome.Wlan_sim.Churn.trace))
       runs)

let digest s = Digest.to_hex (Digest.string s)

let read_golden path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match In_channel.input_all ic |> String.trim |> String.split_on_char '\n'
      with
      | [ trace; metrics ] -> (String.trim trace, String.trim metrics)
      | _ -> Alcotest.failf "malformed golden file %s" path)

let test_golden_demo () =
  let runs1 = demo_replay ~jobs:1 in
  let runs4 = demo_replay ~jobs:4 in
  let t1 = render_traces runs1 and t4 = render_traces runs4 in
  let m1 = Harness.Metrics.json ~seed:11 runs1
  and m4 = Harness.Metrics.json ~seed:11 runs4 in
  Alcotest.(check string) "traces j1 = j4" t1 t4;
  Alcotest.(check string) "metrics j1 = j4" m1 m4;
  let gt, gm = read_golden "golden/churn_demo.digest" in
  Alcotest.(check string) "trace digest" gt (digest t1);
  Alcotest.(check string) "metrics digest" gm (digest m1)

let test_golden_fig4 () =
  let p = Examples.fig4 in
  let run () =
    Wlan_sim.Churn.run ~init:Examples.fig4_initial ~mode:`Simultaneous
      ~tiers:(Problem.distinct_rates p)
      ~objective:Distributed.Min_total_load
      ~script:(Churn_script.make []) p
  in
  let render o = Wlan_sim.Trace.to_string o.Wlan_sim.Churn.trace in
  let t1, t4 =
    ( render (run ()),
      Harness.Pool.with_pool ~jobs:4 @@ fun pool ->
      match Harness.Pool.run pool [ (fun () -> render (run ())) ] with
      | [ t ] -> t
      | _ -> Alcotest.fail "pool lost the job" )
  in
  Alcotest.(check string) "fig4 trace j1 = j4" t1 t4;
  let gt, gm = read_golden "golden/churn_fig4.digest" in
  let o = run () in
  Alcotest.(check string) "fig4 trace digest" gt (digest t1);
  Alcotest.(check string) "fig4 metrics digest" gm
    (digest
       (Harness.Metrics.json ~seed:0
          [
            {
              Harness.Metrics.label = "fig4";
              objective = "min-total-load";
              mode = "simultaneous";
              outcome = o;
            };
          ]))

(* ------------------------------------------------------------------ *)
(* Metrics CSV: RFC-4180 quoting round-trips hostile labels            *)
(* ------------------------------------------------------------------ *)

let test_metrics_csv_hostile_labels () =
  let p = Examples.fig4 in
  let o =
    Wlan_sim.Churn.run ~init:Examples.fig4_initial ~mode:`Sequential
      ~baseline:false
      ~tiers:(Problem.distinct_rates p)
      ~objective:Distributed.Min_total_load
      ~script:(Churn_script.make []) p
  in
  let labels =
    [
      "plain";
      "with,comma";
      "with \"quotes\"";
      "multi\nline";
      "crlf\r\nlabel";
      ",\",\"";
    ]
  in
  let runs =
    List.map
      (fun label ->
        {
          Harness.Metrics.label;
          objective = "min-total-load";
          mode = "sequential";
          outcome = o;
        })
      labels
  in
  let text = Harness.Metrics.csv runs in
  let rows = Csv_ref.parse text in
  let header, body =
    match rows with
    | h :: b -> (h, b)
    | [] -> Alcotest.fail "empty CSV"
  in
  let n_cols = List.length header in
  Alcotest.(check int) "header column count" 15 n_cols;
  let steps = List.length o.Wlan_sim.Churn.steps in
  Alcotest.(check int) "row count"
    (List.length labels * steps)
    (List.length body);
  List.iter
    (fun row ->
      Alcotest.(check int) "every row keeps the column layout" n_cols
        (List.length row))
    body;
  (* labels come back verbatim, in run order, [steps] rows each *)
  let expected =
    List.concat_map (fun l -> List.init steps (fun _ -> l)) labels
  in
  Alcotest.(check (list string)) "labels round-trip" expected
    (List.map List.hd body);
  (* quoting is the identity on tame fields and minimal on hostile ones *)
  let has_row prefix =
    List.exists (String.starts_with ~prefix) (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "tame unquoted" true (has_row "plain,");
  Alcotest.(check bool) "comma quoted" true (has_row "\"with,comma\",");
  Alcotest.(check bool) "quote doubled" true
    (has_row "\"with \"\"quotes\"\"\",")

(* ------------------------------------------------------------------ *)
(* Script model and serialization                                      *)
(* ------------------------------------------------------------------ *)

let script_gen =
  QCheck.make ~print:(fun seed -> Printf.sprintf "seed %d" seed)
    QCheck.Gen.(0 -- 10_000)

let qcheck_script_roundtrip =
  QCheck.Test.make ~name:"churn script (de)serialization round-trips"
    ~count:100 script_gen (fun seed ->
      let rng = Random.State.make [| seed; 0x5e71a1 |] in
      let script =
        Churn_script.random ~rng ~n_aps:(1 + Random.State.int rng 9)
          ~n_users:(1 + Random.State.int rng 30)
          {
            Churn_script.default_gen with
            n_events = Random.State.int rng 40;
          }
      in
      let text = Scenario_io.churn_to_string script in
      let back = Scenario_io.churn_of_string text in
      back = script
      && (* and the text itself is a fixpoint *)
      String.equal text (Scenario_io.churn_to_string back))

let test_script_rejects () =
  let bad header =
    Alcotest.check_raises "rejected"
      (Scenario_io.Parse_error
         (match header with
         | `Version -> "unsupported churn version 99"
         | `Header -> "missing churn header"
         | `Line -> "unrecognized churn line \"at 1 teleport 3\""))
      (fun () ->
        ignore
          (Scenario_io.churn_of_string
             (match header with
             | `Version -> "wlan-mcast-churn 99\n"
             | `Header -> "not-a-churn-file\n"
             | `Line -> "wlan-mcast-churn 1\nat 1 teleport 3\n")))
  in
  bad `Version;
  bad `Header;
  bad `Line;
  Alcotest.check_raises "negative time"
    (Invalid_argument "Churn_script.make: bad event time -1")
    (fun () ->
      ignore
        (Churn_script.make
           [ { Churn_script.time = -1.; event = Join { user = 0 } } ]))

(* The dynamic path must reject broken rates just like the static one:
   a nan rate installed via set_rate, or a non-positive/non-finite rate
   tier handed to Churn.run, would silently corrupt every subsequent
   load comparison. *)
let test_rates_rejected () =
  let p = Examples.fig4 in
  let net = Distributed.Online.create ~objective:Distributed.Min_total_load p in
  Alcotest.check_raises "nan set_rate"
    (Invalid_argument "Online.set_rate: rate must not be nan") (fun () ->
      ignore
        (Distributed.Online.apply net ~tiers:[||]
           (Set_rate { user = 0; ap = 0; rate = Float.nan })));
  let run tiers () =
    ignore
      (Wlan_sim.Churn.run ~init:Examples.fig4_initial ~mode:`Sequential
         ~baseline:false ~tiers ~objective:Distributed.Min_total_load
         ~script:(Churn_script.make []) p)
  in
  let rejects what tiers =
    try
      run tiers ();
      Alcotest.failf "accepted %s tier" what
    with Invalid_argument msg ->
      Alcotest.(check bool)
        (what ^ " error names the tier")
        true
        (String.length msg >= 9 && String.sub msg 0 9 = "Churn.run")
  in
  rejects "zero" [ 0. ];
  rejects "negative" [ 54.; -6. ];
  rejects "nan" [ Float.nan ];
  rejects "infinite" [ Float.infinity ]

let test_script_steps () =
  let s =
    Churn_script.make
      [
        { Churn_script.time = 2.; event = Churn_script.Leave { user = 1 } };
        { time = 1.; event = Join { user = 0 } };
        { time = 2.; event = Ap_fail { ap = 0 } };
      ]
  in
  (match Churn_script.steps s with
  | [ (t1, [ Churn_script.Join _ ]); (t2, [ Leave _; Ap_fail _ ]) ] ->
      Alcotest.(check bool) "times" true
        (Float.equal t1 1. && Float.equal t2 2.)
  | _ -> Alcotest.fail "wrong step grouping");
  (* equal times interleaved with others before [make]: each time is one
     step, in script order *)
  let join t user = { Churn_script.time = t; event = Churn_script.Join { user } } in
  let steps =
    Churn_script.steps
      (Churn_script.make
         [ join 3. 0; join 1. 1; join 3. 2; join 1. 3; join 2. 4; join 3. 5 ])
  in
  let users =
    List.map
      (fun (t, evs) ->
        (t, List.map (function Churn_script.Join { user } -> user | _ -> -1) evs))
      steps
  in
  Alcotest.(check (list (pair (float 0.) (list int)))) "interleaved"
    [ (1., [ 1; 3 ]); (2., [ 4 ]); (3., [ 0; 2; 5 ]) ]
    users;
  (* grouping is one pass: 40,000 events, two per time, well under a
     second (the old per-step partition took seconds at 20,000) *)
  let big = Churn_script.make (List.init 40_000 (fun i -> join (float_of_int (i / 2)) i)) in
  let t0 = Sys.time () in
  let steps = Churn_script.steps big in
  let dt = Sys.time () -. t0 in
  Alcotest.(check int) "steps" 20_000 (List.length steps);
  Alcotest.(check bool) (Printf.sprintf "grouped in %.3f s" dt) true (dt < 0.5)

(* The serve adapter consumes the same script type the (de)serializer
   round-trips above — but over the wire event order is binding, so a
   list that bypassed [Churn_script.make]'s sort must be refused with a
   typed error, never silently reordered. *)
let test_adapter_rejects_unsorted () =
  (match
     Mcast_serve.Adapter.inputs_of_events
       [
         { Churn_script.time = 2.; event = Join { user = 0 } };
         { time = 1.; event = Leave { user = 1 } };
       ]
   with
  | Error (Mcast_serve.Adapter.Non_monotone { index; prev; time }) ->
      Alcotest.(check int) "offending index" 1 index;
      Alcotest.(check bool) "prev/time" true
        (Float.equal prev 2. && Float.equal time 1.)
  | Ok _ -> Alcotest.fail "unsorted events must be refused");
  (* the sorted form of the same events is accepted *)
  match
    Mcast_serve.Adapter.inputs_of_events
      (Churn_script.events
         (Churn_script.make
            [
              { Churn_script.time = 2.; event = Join { user = 0 } };
              { time = 1.; event = Leave { user = 1 } };
            ]))
  with
  | Ok [ _; _ ] -> ()
  | Ok _ -> Alcotest.fail "wrong expansion arity"
  | Error e -> Alcotest.fail (Mcast_serve.Adapter.error_message e)

(* ------------------------------------------------------------------ *)
(* Drift tier-ladder default (regression)                              *)
(* ------------------------------------------------------------------ *)

(* Churn.run's default ladder is [Problem.distinct_rates] — the ladder
   the instance actually uses and the same derivation the serve daemon
   shares — not hard-wired 802.11a. On an 802.11b deployment the old
   default snapped 11 Mbps to the alien 12-tier and drifted -1 onto 6;
   the real ladder lands on 5.5. *)
let test_drift_ladder_80211b () =
  let b_tiers = Array.of_list (Rate_table.rates Rate_table.ieee80211b) in
  Alcotest.(check (float 0.)) "11 -1 -> 5.5" 5.5
    (Churn_script.drifted_rate ~tiers:b_tiers 11. (-1));
  Alcotest.(check (float 0.)) "5.5 -2 -> 0 (link lost)" 0.
    (Churn_script.drifted_rate ~tiers:b_tiers 5.5 (-3));
  Alcotest.(check (float 0.)) "11 +1 clamps at top" 11.
    (Churn_script.drifted_rate ~tiers:b_tiers 11. 1);
  (* the 802.11a ladder mis-steps the same event — the bug this pins *)
  let a_tiers = Array.of_list (Rate_table.rates Rate_table.ieee80211a) in
  Alcotest.(check (float 0.)) "802.11a ladder would give 6" 6.
    (Churn_script.drifted_rate ~tiers:a_tiers 11. (-1));
  (* steps at the ends of the int range clamp, never wrap: a subtracted
     [tier - steps] overflowed for min_int and sent the link to the top
     tier instead of losing it *)
  Alcotest.(check (float 0.)) "24 min_int -> 0 (link lost)" 0.
    (Churn_script.drifted_rate ~tiers:a_tiers 24. min_int);
  Alcotest.(check (float 0.)) "24 min_int+1 -> 0 (link lost)" 0.
    (Churn_script.drifted_rate ~tiers:a_tiers 24. (min_int + 1));
  Alcotest.(check (float 0.)) "24 max_int clamps at top" 54.
    (Churn_script.drifted_rate ~tiers:a_tiers 24. max_int)

let test_default_tiers_match_problem () =
  let p =
    Scenario_gen.nth_problem ~seed:41 ~index:0
      {
        (small_cfg ~n_aps:5 ~n_users:12) with
        rate_table = Rate_table.ieee80211b;
      }
  in
  let n_aps, n_users = Problem.dims p in
  let rng = Random.State.make [| 41; 0xd21f7 |] in
  let script =
    Churn_script.random ~rng ~n_aps ~n_users
      { Churn_script.default_gen with n_events = 30 }
  in
  let run tiers =
    Wlan_sim.Churn.run ~baseline:false ?tiers
      ~objective:Distributed.Min_total_load ~script p
  in
  let o = run None in
  let o' = run (Some (Problem.distinct_rates p)) in
  Alcotest.(check bool) "same association" true
    (o.Wlan_sim.Churn.assoc = o'.Wlan_sim.Churn.assoc);
  check_float_arrays "loads" o'.Wlan_sim.Churn.loads o.Wlan_sim.Churn.loads;
  Alcotest.(check bool) "same effective topology" true
    (Problem.rates_matrix o.Wlan_sim.Churn.effective
    = Problem.rates_matrix o'.Wlan_sim.Churn.effective);
  Alcotest.(check int) "same step count"
    (List.length o'.Wlan_sim.Churn.steps)
    (List.length o.Wlan_sim.Churn.steps)

(* The churn CLI and the serve daemon both derive their ladder from
   [Rate_model.tier_rates sc.model]; for a table model that is exactly
   [Rate_table.rates], so the two front ends can never diverge again. *)
let test_tier_derivation_unified () =
  List.iter
    (fun tbl ->
      Alcotest.(check (list (float 0.)))
        "tier_rates (Table t) = Rate_table.rates t" (Rate_table.rates tbl)
        (Rate_model.tier_rates (Rate_model.Table tbl)))
    [
      Rate_table.ieee80211a;
      Rate_table.ieee80211b;
      Rate_table.scale_thresholds 0.5 Rate_table.default;
    ];
  let rec descending = function
    | a :: (b :: _ as rest) -> a > b && descending rest
    | _ -> true
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "path-loss ladder is descending" true
        (descending (Rate_model.tier_rates m)))
    [
      Rate_model.friis ();
      Rate_model.two_ray ();
      Rate_model.log_distance ();
    ]

let test_script_validate () =
  let s =
    Churn_script.make
      [ { Churn_script.time = 0.; event = Join { user = 7 } } ]
  in
  Alcotest.check_raises "unknown user"
    (Invalid_argument "Churn_script.validate: unknown user 7") (fun () ->
      ignore (Churn_script.validate ~n_aps:2 ~n_users:3 s));
  (* a hand-built list that bypassed [make]'s sort: the churn engine
     replays steps in list order, so it is refused, never reordered *)
  Alcotest.check_raises "out of time order"
    (Invalid_argument "Churn_script.validate: event at t=1 precedes t=2")
    (fun () ->
      ignore
        (Churn_script.validate ~n_aps:2 ~n_users:3
           {
             Churn_script.events =
               [
                 { time = 2.; event = Join { user = 0 } };
                 { time = 1.; event = Leave { user = 1 } };
               ];
           }))

(* ------------------------------------------------------------------ *)

(* Generated drift is an unbiased walk: steps are drawn uniformly from
   -2, -1, +1, +2 (never 0), so their mean over a long script is ~0 — a
   downward bias would erode links below the lowest tier for good. *)
let test_random_drift_unbiased () =
  let rng = Random.State.make [| 2007; 0xd81f7 |] in
  let script =
    Churn_script.random ~rng ~n_aps:4 ~n_users:10
      {
        Churn_script.default_gen with
        n_events = 20_000;
        join_weight = 0;
        leave_weight = 0;
        fail_weight = 0;
        recover_weight = 0;
        burst_weight = 0;
      }
  in
  let counts = Array.make 5 0 (* steps -2..2 *) in
  List.iter
    (fun (t : Churn_script.timed) ->
      match t.Churn_script.event with
      | Churn_script.Drift { steps; _ } ->
          counts.(steps + 2) <- counts.(steps + 2) + 1
      | _ -> Alcotest.fail "only drift events were weighted")
    (Churn_script.events script);
  let count k = counts.(k + 2) in
  Alcotest.(check int) "no zero step" 0 (count 0);
  List.iter
    (fun k ->
      if abs (count k - 5_000) > 300 then
        Alcotest.failf "step %d drawn %d times of 20000" k (count k))
    [ -2; -1; 1; 2 ];
  let sum = (2 * (count 2 - count (-2))) + count 1 - count (-1) in
  if abs sum > 600 then Alcotest.failf "drift sum %d over 20000 steps" sum

let () =
  Alcotest.run "churn"
    [
      ( "oracle",
        List.map QCheck_alcotest.to_alcotest
          [ oracle_mla; oracle_bla; oracle_mnu ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_differential_mla;
            qcheck_differential_bla;
            qcheck_replay_session;
          ] );
      ( "online",
        [
          Alcotest.test_case "delta bookkeeping" `Quick test_online_deltas;
          Alcotest.test_case "settle converges on its last round" `Quick
            test_settle_converges_on_last_round;
        ] );
      ( "fig4",
        [
          Alcotest.test_case "simultaneous oscillates" `Quick
            test_fig4_oscillates;
          Alcotest.test_case "sequential converges" `Quick
            test_fig4_sequential_converges;
        ] );
      ( "golden",
        [
          Alcotest.test_case "demo scenario, j1 = j4 = digest" `Quick
            test_golden_demo;
          Alcotest.test_case "fig4 trace digest" `Quick test_golden_fig4;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "CSV quotes hostile labels" `Quick
            test_metrics_csv_hostile_labels;
        ] );
      ( "validation",
        [
          Alcotest.test_case "bad rates rejected on dynamic path" `Quick
            test_rates_rejected;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "802.11b drift ladder" `Quick
            test_drift_ladder_80211b;
          Alcotest.test_case "default = Problem.distinct_rates" `Quick
            test_default_tiers_match_problem;
          Alcotest.test_case "churn/serve derivation unified" `Quick
            test_tier_derivation_unified;
        ] );
      ( "script",
        [
          QCheck_alcotest.to_alcotest qcheck_script_roundtrip;
          Alcotest.test_case "malformed inputs rejected" `Quick
            test_script_rejects;
          Alcotest.test_case "step grouping" `Quick test_script_steps;
          Alcotest.test_case "serve adapter refuses unsorted events" `Quick
            test_adapter_rejects_unsorted;
          Alcotest.test_case "validate ranges" `Quick test_script_validate;
          Alcotest.test_case "generated drift is unbiased" `Quick
            test_random_drift_unbiased;
        ] );
    ]
