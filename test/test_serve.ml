(* The serve battery: protocol fuzz, crash/replay differential, golden
   demo stream.

   - Codec fuzz (qcheck): arbitrary byte soup fed in arbitrary chunks
     never crashes the decoder or a live session; every byte-prefix of a
     valid stream decodes to a frame-prefix (truncation is loss, never
     corruption); declared-oversize frames are refused without buffering
     and the decoder resynchronizes; render/frame/decode/parse
     round-trips every input exactly.
   - Batch semantics: same-timestamp arrivals commute (any permutation
     lands on the same state and the same replies); backpressure forces
     a settle at queue_limit and flags it.
   - Session discipline: hello-first, version check, monotone time,
     range checks, closed-after-bye — every refusal is a structured
     error, changes nothing, and the session survives.
   - Live vs replay: for random instances and scripts the replay log
     regenerates byte-identically and lands on the same state digest, at
     fanout jobs 1 and 4.
   - Crash/recovery: every line-boundary (and torn mid-line) prefix of a
     live log restarts, replays, and — continued with the remaining
     events — reconverges to the uninterrupted run's exact log bytes and
     state digest.
   - Golden: the committed demo event stream replays to committed log
     and state digests, byte-identical at jobs 1 and 4.
   - Online edge cases the daemon exposes: losing a user's only
     candidate AP, departing the last receiver mid-batch, AP fail +
     recover in one atomic step, and the new [settle_stats.changed]
     delta list checked against a manual association diff. *)

open Wlan_model
open Mcast_core
open Mcast_serve
module Online = Distributed.Online

let small_cfg ~n_aps ~n_users =
  { Scenario_gen.paper_default with n_aps; n_users; area_w = 500.; area_h = 500. }

(* Deterministic (seed)-indexed random instance + script, the churn
   battery's convention. *)
let case ~seed =
  let rng = Random.State.make [| seed; 0x5e71e |] in
  let n_aps = 3 + Random.State.int rng 6 in
  let n_users = 6 + Random.State.int rng 16 in
  let p = Scenario_gen.nth_problem ~seed ~index:0 (small_cfg ~n_aps ~n_users) in
  let n_aps, n_users = Problem.dims p in
  let script =
    Churn_script.random ~rng ~n_aps ~n_users
      { Churn_script.default_gen with n_events = 5 + Random.State.int rng 25 }
  in
  (p, script)

let config ?(queue_limit = 256) ?(obj_label = "mnu") p =
  {
    Replay_log.objective = Replay_log.objective_of_label obj_label;
    obj_label;
    mode = `Sequential;
    max_rounds = 200;
    queue_limit;
    tiers = Problem.distinct_rates p;
    scenario_digest = None;
  }

let hello = Protocol.Hello { version = Protocol.version }

let payloads_of_script script =
  match Adapter.inputs_of_events (Churn_script.events script) with
  | Error e -> Alcotest.fail (Adapter.error_message e)
  | Ok inputs ->
      List.map Protocol.render_input
        ((hello :: inputs) @ [ Protocol.Flush; Protocol.Snapshot; Protocol.Bye ])

let render_outputs outs =
  String.concat "\n" (List.map Protocol.render_output outs)

let assert_clean outs =
  List.iter
    (function
      | Protocol.Error { code; detail } ->
          Alcotest.failf "unexpected %s error: %s"
            (Protocol.error_code_name code)
            detail
      | _ -> ())
    outs

(* Run a full session (hello .. bye) over [payloads] at [jobs]. *)
let run_session ~jobs ~config p payloads =
  Harness.Pool.with_pool ~jobs @@ fun pool ->
  let t = Server.create ~fanout:(Harness.Pool.run pool) ~config p in
  let outs = List.concat_map (Server.handle_frame t) payloads in
  let (_ : Protocol.output list) = Server.finish t in
  (t, outs)

let digest s = Digest.to_hex (Digest.string s)

let read_golden path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match In_channel.input_all ic |> String.trim |> String.split_on_char '\n'
      with
      | [ a; b ] -> (String.trim a, String.trim b)
      | _ -> Alcotest.failf "malformed golden file %s" path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

let drain_items dec =
  let rec go acc =
    match Protocol.Decoder.next dec with
    | None -> List.rev acc
    | Some it -> go (it :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Codec fuzz                                                          *)
(* ------------------------------------------------------------------ *)

(* Byte soup biased toward framing-relevant characters. *)
let wire_string =
  QCheck.string_gen_of_size
    QCheck.Gen.(int_bound 300)
    QCheck.Gen.(
      frequency
        [
          (4, map Char.chr (int_range 32 126));
          (2, map Char.chr (int_bound 255));
          (2, return '\n');
          (2, oneofl [ '0'; '1'; '9'; ' ' ]);
        ])

let fuzz_instance = lazy (case ~seed:7)

let qcheck_garbage_total =
  QCheck.Test.make ~name:"fuzz: garbage never crashes decoder or session"
    ~count:250
    QCheck.(pair (int_range 1 7) wire_string)
    (fun (chunk, soup) ->
      let p, _ = Lazy.force fuzz_instance in
      let t = Server.create ~config:(config p) p in
      let dec = Protocol.Decoder.create () in
      let n = String.length soup in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        Protocol.Decoder.feed dec (String.sub soup !i len);
        i := !i + len;
        List.iter
          (function
            | Protocol.Decoder.Frame payload ->
                (* every reply to a decoded frame must itself render *)
                List.iter
                  (fun o -> ignore (Protocol.render_output o))
                  (Server.handle_frame t payload)
            | Protocol.Decoder.Corrupt (code, detail) ->
                ignore (Protocol.error_code_name code);
                (* sanitized details stay single-line *)
                if String.contains detail '\n' then
                  Alcotest.fail "corrupt detail contains a newline")
          (drain_items dec)
      done;
      let (_ : Protocol.output list) = Server.finish t in
      true)

let qcheck_truncation_prefix =
  QCheck.Test.make
    ~name:"fuzz: every byte prefix of a valid stream decodes a frame prefix"
    ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let _, script = case ~seed in
      let stream =
        match Adapter.frames_of_script script with
        | Ok s -> s
        | Error e -> Alcotest.fail (Adapter.error_message e)
      in
      let full =
        let dec = Protocol.Decoder.create () in
        Protocol.Decoder.feed dec stream;
        List.map
          (function
            | Protocol.Decoder.Frame payload -> payload
            | Protocol.Decoder.Corrupt (_, d) ->
                Alcotest.failf "valid stream decoded as corrupt: %s" d)
          (drain_items dec)
      in
      (* frame boundaries: cumulative offsets where a cut is clean *)
      let boundaries = Hashtbl.create 64 in
      let off = ref 0 in
      Hashtbl.replace boundaries 0 ();
      List.iter
        (fun payload ->
          off := !off + String.length (Protocol.frame payload);
          Hashtbl.replace boundaries !off ())
        full;
      for cut = 0 to String.length stream do
        let dec = Protocol.Decoder.create () in
        Protocol.Decoder.feed dec (String.sub stream 0 cut);
        let got =
          List.map
            (function
              | Protocol.Decoder.Frame payload -> payload
              | Protocol.Decoder.Corrupt (_, d) ->
                  Alcotest.failf "cut %d decoded corruption: %s" cut d)
            (drain_items dec)
        in
        let rec is_prefix xs ys =
          match (xs, ys) with
          | [], _ -> true
          | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
          | _ :: _, [] -> false
        in
        if not (is_prefix got full) then
          Alcotest.failf "cut %d is not a frame prefix" cut;
        let clean = Hashtbl.mem boundaries cut in
        if Protocol.Decoder.at_boundary dec <> clean then
          Alcotest.failf "cut %d: at_boundary should be %b" cut clean
      done;
      true)

let input_gen =
  let open QCheck.Gen in
  let fix f = if Float.is_finite f && f >= 0. then f else 1. in
  let event =
    frequency
      [
        (3, map (fun u -> Protocol.Arrive { user = u }) (int_bound 50));
        (3, map (fun u -> Protocol.Depart { user = u }) (int_bound 50));
        (1, map (fun a -> Protocol.Ap_fail { ap = a }) (int_bound 20));
        (1, map (fun a -> Protocol.Ap_recover { ap = a }) (int_bound 20));
        ( 2,
          map3
            (fun u a r -> Protocol.Set_rate { user = u; ap = a; rate = fix r })
            (int_bound 50) (int_bound 20) pfloat );
        ( 1,
          map2
            (fun u s -> Protocol.Drift { user = u; steps = s })
            (int_bound 50) (int_range (-5) 5) );
      ]
  in
  frequency
    [
      ( 8,
        map2
          (fun t e -> Protocol.Event { time = fix t; event = e })
          pfloat event );
      (1, return Protocol.Flush);
      (1, return Protocol.Snapshot);
      (1, return Protocol.Bye);
      (1, return hello);
    ]

let qcheck_roundtrip =
  QCheck.Test.make ~name:"codec: render/frame/decode/parse round-trips exactly"
    ~count:200
    (QCheck.make
       ~print:(fun (_, is) ->
         String.concat " | " (List.map Protocol.render_input is))
       QCheck.Gen.(pair (int_range 1 9) (list_size (1 -- 20) input_gen)))
    (fun (chunk, inputs) ->
      (* payload-level identity *)
      List.iter
        (fun i ->
          match Protocol.parse_input (Protocol.render_input i) with
          | Ok i' when i = i' -> ()
          | Ok _ -> Alcotest.failf "reparse differs: %s" (Protocol.render_input i)
          | Error (_, d) ->
              Alcotest.failf "reparse failed on %s: %s" (Protocol.render_input i)
                d)
        inputs;
      (* stream-level identity under arbitrary chunking *)
      let stream =
        String.concat ""
          (List.map (fun i -> Protocol.frame (Protocol.render_input i)) inputs)
      in
      let dec = Protocol.Decoder.create () in
      let got = ref [] in
      let n = String.length stream in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        Protocol.Decoder.feed dec (String.sub stream !i len);
        i := !i + len;
        List.iter
          (function
            | Protocol.Decoder.Frame payload -> got := payload :: !got
            | Protocol.Decoder.Corrupt (_, d) ->
                Alcotest.failf "valid stream corrupt: %s" d)
          (drain_items dec)
      done;
      if not (Protocol.Decoder.at_boundary dec) then
        Alcotest.fail "valid stream left the decoder mid-frame";
      List.rev !got = List.map Protocol.render_input inputs)

(* The decoder's 65,536-byte cap at its edge: 65,536 bytes decode; a
   65,537-byte declaration is refused before its body arrives, the body
   is skipped, and the decoder is back on a frame boundary. *)
let test_frame_cap_edge () =
  let dec = Protocol.Decoder.create () in
  let at_cap = String.make 65536 'a' in
  Protocol.Decoder.feed dec (Protocol.frame at_cap);
  (match drain_items dec with
  | [ Protocol.Decoder.Frame payload ] when payload = at_cap -> ()
  | _ -> Alcotest.fail "a 65,536-byte frame must decode");
  Protocol.Decoder.feed dec "65537 ";
  (match drain_items dec with
  | [ Protocol.Decoder.Corrupt (Protocol.Oversize, _) ] -> ()
  | _ -> Alcotest.fail "a 65,537-byte declaration must be Oversize at once");
  Protocol.Decoder.feed dec (String.make 65537 'b' ^ "\n");
  Alcotest.(check int) "refused body yields nothing" 0
    (List.length (drain_items dec));
  Alcotest.(check bool) "boundary after the refusal" true
    (Protocol.Decoder.at_boundary dec);
  Protocol.Decoder.feed dec (Protocol.frame "flush");
  (match drain_items dec with
  | [ Protocol.Decoder.Frame "flush" ] -> ()
  | _ -> Alcotest.fail "a frame after the refusal must decode")

let test_oversize_recovery () =
  let dec = Protocol.Decoder.create () in
  (* declared length beyond the cap, body never buffered; then a bad
     length prefix; then a healthy frame — the decoder recovers each time *)
  Protocol.Decoder.feed dec "9999999 x\n";
  Protocol.Decoder.feed dec "123456789 y\n";
  Protocol.Decoder.feed dec "12x hello\n";
  Protocol.Decoder.feed dec (Protocol.frame "flush");
  (match drain_items dec with
  | [
   Protocol.Decoder.Corrupt (Protocol.Oversize, _);
   Protocol.Decoder.Corrupt (Protocol.Bad_frame, _);
   Protocol.Decoder.Corrupt (Protocol.Bad_frame, _);
   Protocol.Decoder.Frame "flush";
  ] ->
      ()
  | items ->
      Alcotest.failf "unexpected decode: %d items" (List.length items));
  Alcotest.(check bool) "boundary after recovery" true
    (Protocol.Decoder.at_boundary dec);
  (* a frame whose declared length does not land on the newline *)
  let dec = Protocol.Decoder.create () in
  Protocol.Decoder.feed dec "3 flush\n";
  (match drain_items dec with
  | [ Protocol.Decoder.Corrupt (Protocol.Bad_frame, _) ] -> ()
  | _ -> Alcotest.fail "length/terminator mismatch must be corrupt");
  (* unparseable-but-well-framed payloads are Bad_input at parse level *)
  List.iter
    (fun (payload, expect) ->
      match Protocol.parse_input payload with
      | Error (code, _) when code = expect -> ()
      | Ok _ -> Alcotest.failf "parsed %S" payload
      | Error (code, _) ->
          Alcotest.failf "%S: expected %s, got %s" payload
            (Protocol.error_code_name expect)
            (Protocol.error_code_name code))
    [
      ("at nan arrive 1", Protocol.Bad_input);
      ("at -1 arrive 1", Protocol.Bad_input);
      ("at 1 arrive x", Protocol.Bad_input);
      ("at 1 set-rate 0 0 nan", Protocol.Bad_input);
      ("at 1 teleport 3", Protocol.Bad_input);
      ("hello wlan-mcast-xx 1", Protocol.Bad_hello);
      ("", Protocol.Bad_input);
    ]

(* ------------------------------------------------------------------ *)
(* Batch semantics                                                     *)
(* ------------------------------------------------------------------ *)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let qcheck_batch_commutes =
  QCheck.Test.make
    ~name:"same-timestamp arrivals commute (any order, same batch)" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p, _ = case ~seed in
      let _, n_users = Problem.dims p in
      let rng = Random.State.make [| seed; 0xba7c4 |] in
      let users =
        List.filter
          (fun _ -> Random.State.bool rng)
          (List.init n_users Fun.id)
      in
      let session order =
        let t = Server.create ~config:(config p) p in
        let outs = ref (Server.handle_input t hello) in
        List.iter
          (fun u ->
            outs :=
              !outs
              @ Server.handle_input t
                  (Protocol.Event { time = 1.; event = Protocol.Arrive { user = u } }))
          order;
        outs := !outs @ Server.handle_input t Protocol.Flush;
        assert_clean !outs;
        (Server.state_digest t, render_outputs !outs)
      in
      session users = session (shuffle rng users))

let test_forced_settle () =
  let p, _ = case ~seed:3 in
  let t = Server.create ~config:(config ~queue_limit:3 p) p in
  assert_clean (Server.handle_input t hello);
  let arrive u =
    Server.handle_input t
      (Protocol.Event { time = 1.; event = Protocol.Arrive { user = u } })
  in
  assert_clean (arrive 0);
  assert_clean (arrive 1);
  let third = arrive 2 in
  assert_clean third;
  (match
     List.filter_map
       (function
         | Protocol.Settled { forced; events; _ } -> Some (forced, events)
         | _ -> None)
       third
   with
  | [ (true, 3) ] -> ()
  | _ -> Alcotest.fail "third pending event must force a flagged settle");
  assert_clean (arrive 3);
  let flushed = Server.handle_input t Protocol.Flush in
  assert_clean flushed;
  (match
     List.filter_map
       (function
         | Protocol.Settled { forced; events; _ } -> Some (forced, events)
         | _ -> None)
       flushed
   with
  | [ (false, 1) ] -> ()
  | _ -> Alcotest.fail "flush settles the leftover event unforced");
  let s = Server.stats t in
  Alcotest.(check int) "forced settles" 1 s.Server.forced_settles;
  Alcotest.(check int) "batches" 2 s.Server.batches;
  Alcotest.(check int) "no refusals" 0 s.Server.errors

(* ------------------------------------------------------------------ *)
(* Session discipline                                                  *)
(* ------------------------------------------------------------------ *)

let expect_error code outs =
  match outs with
  | [ Protocol.Error { code = c; _ } ] when c = code -> ()
  | _ ->
      Alcotest.failf "expected %s error, got: %s"
        (Protocol.error_code_name code)
        (render_outputs outs)

let test_session_discipline () =
  let p, _ = case ~seed:1 in
  let n_aps, n_users = Problem.dims p in
  let t = Server.create ~config:(config p) p in
  let ev time event = Protocol.Event { time; event } in
  (* hello-first *)
  expect_error Protocol.Expected_hello
    (Server.handle_input t (ev 0. (Protocol.Arrive { user = 0 })));
  expect_error Protocol.Bad_hello
    (Server.handle_input t (Protocol.Hello { version = 99 }));
  (match Server.handle_input t hello with
  | [ Protocol.Ok_hello { version } ] ->
      Alcotest.(check int) "negotiated version" Protocol.version version
  | outs -> Alcotest.failf "handshake failed: %s" (render_outputs outs));
  expect_error Protocol.Bad_hello (Server.handle_input t hello);
  (* range checks change nothing *)
  let log_before = Server.log_contents t in
  expect_error Protocol.Out_of_range
    (Server.handle_input t (ev 1. (Protocol.Arrive { user = n_users })));
  expect_error Protocol.Out_of_range
    (Server.handle_input t (ev 1. (Protocol.Ap_fail { ap = n_aps })));
  expect_error Protocol.Out_of_range
    (Server.handle_input t
       (ev 1. (Protocol.Set_rate { user = 0; ap = -1; rate = 1. })));
  Alcotest.(check string) "refusals are not logged" log_before
    (Server.log_contents t);
  (* monotone time, batch granularity *)
  assert_clean (Server.handle_input t (ev 5. (Protocol.Arrive { user = 0 })));
  expect_error Protocol.Non_monotone
    (Server.handle_input t (ev 3. (Protocol.Arrive { user = 1 })));
  assert_clean (Server.handle_input t (ev 5. (Protocol.Arrive { user = 1 })));
  let advanced = Server.handle_input t (ev 6. (Protocol.Depart { user = 0 })) in
  assert_clean advanced;
  if
    not
      (List.exists
         (function Protocol.Settled _ -> true | _ -> false)
         advanced)
  then Alcotest.fail "advancing time must settle the open batch";
  (* bye closes for good *)
  assert_clean (Server.handle_input t Protocol.Flush);
  assert_clean (Server.handle_input t Protocol.Bye);
  Alcotest.(check bool) "closed" true (Server.closed t);
  expect_error Protocol.Closed (Server.handle_input t Protocol.Flush);
  expect_error Protocol.Closed
    (Server.handle_input t (ev 7. (Protocol.Arrive { user = 0 })));
  let final = Server.log_contents t in
  Alcotest.(check int) "refusal tally" 9 (Server.stats t).Server.errors;
  (* finish after bye is a no-op *)
  (match Server.finish t with
  | [] -> ()
  | outs -> Alcotest.failf "finish after bye: %s" (render_outputs outs));
  Alcotest.(check string) "log stable after close" final (Server.log_contents t)

(* The link structure cannot grow: on the compiled instance every
   daemon serves, a set-rate that would raise a pair never in range is
   refused up front and changes nothing; zeroing that pair is a no-op
   and accepted. *)
let test_set_rate_cannot_grow () =
  let p, _ = case ~seed:1 in
  let n_aps, n_users = Problem.dims p in
  let u, a =
    let rec pick k =
      if k >= n_aps * n_users then Alcotest.fail "no out-of-range pair"
      else
        let u = k / n_aps and a = k mod n_aps in
        if Problem.in_range p ~ap:a ~user:u then pick (k + 1) else (u, a)
    in
    pick 0
  in
  let t = Server.create ~config:(config p) p in
  assert_clean (Server.handle_input t hello);
  let ev time event = Protocol.Event { time; event } in
  let log_before = Server.log_contents t in
  expect_error Protocol.Out_of_range
    (Server.handle_input t
       (ev 1. (Protocol.Set_rate { user = u; ap = a; rate = 6. })));
  Alcotest.(check string) "refusal is not logged" log_before
    (Server.log_contents t);
  assert_clean
    (Server.handle_input t
       (ev 1. (Protocol.Set_rate { user = u; ap = a; rate = 0. })));
  Alcotest.(check int) "one refusal" 1 (Server.stats t).Server.errors

(* ------------------------------------------------------------------ *)
(* Live vs replay, jobs 1 vs jobs 4                                    *)
(* ------------------------------------------------------------------ *)

let qcheck_live_replay =
  QCheck.Test.make
    ~name:"live session = replay, byte-identical at jobs 1 and 4" ~count:20
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p, script = case ~seed in
      let cfg = config p in
      let payloads = payloads_of_script script in
      let t1, o1 = run_session ~jobs:1 ~config:cfg p payloads in
      let t4, o4 = run_session ~jobs:4 ~config:cfg p payloads in
      assert_clean o1;
      let log = Server.log_contents t1 in
      if not (String.equal log (Server.log_contents t4)) then
        Alcotest.fail "replay log differs between jobs 1 and 4";
      if not (String.equal (render_outputs o1) (render_outputs o4)) then
        Alcotest.fail "replies differ between jobs 1 and 4";
      if not (String.equal (Server.state_digest t1) (Server.state_digest t4))
      then Alcotest.fail "state digest differs between jobs 1 and 4";
      let header, entries = Replay_log.parse log in
      let r =
        Server.replay ~config:header ~events:(Replay_log.events entries) p
      in
      String.equal (Server.log_contents r) log
      && String.equal (Server.state_digest r) (Server.state_digest t1))

(* ------------------------------------------------------------------ *)
(* Crash/recovery differential                                         *)
(* ------------------------------------------------------------------ *)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let crash_recovery_case seed =
  let p, script = case ~seed in
  let cfg = config p in
  let live, live_outs = run_session ~jobs:1 ~config:cfg p (payloads_of_script script) in
  assert_clean live_outs;
  let full_log = Server.log_contents live in
  let final_digest = Server.state_digest live in
  let full_events =
    let _, entries = Replay_log.parse full_log in
    Replay_log.events entries
  in
  let hdr_len = String.length (Replay_log.render_header cfg) in
  (* cut at every line boundary, and torn mid-line three bytes in *)
  let cuts = ref [ 0; String.length full_log ] in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        cuts := (i + 1) :: !cuts;
        if i + 4 <= String.length full_log then cuts := (i + 4) :: !cuts
      end)
    full_log;
  List.iter
    (fun cut ->
      let prefix = String.sub full_log 0 cut in
      if cut < hdr_len then (
        (* an incomplete header is unrecoverable, never misparsed *)
        match Replay_log.parse prefix with
        | exception Replay_log.Parse_error _ -> ()
        | header, _ ->
            if header = cfg then
              Alcotest.failf "cut %d: truncated header parsed as complete" cut)
      else begin
        let header, entries =
          try Replay_log.parse prefix
          with Replay_log.Parse_error msg ->
            Alcotest.failf "cut %d: unparseable prefix: %s" cut msg
        in
        let done_events = Replay_log.events entries in
        let r = Server.replay ~config:header ~events:done_events p in
        (* the complete-line portion and the regenerated log are both
           prefixes of the uninterrupted log — regen falls short only
           when the crash tore the out-block of a settle whose trigger
           was never written (the pending batch re-derives it) *)
        let complete =
          match String.rindex_opt prefix '\n' with
          | None -> ""
          | Some i -> String.sub prefix 0 (i + 1)
        in
        let regen = Server.log_contents r in
        let n = min (String.length regen) (String.length complete) in
        if not (String.equal (String.sub regen 0 n) (String.sub complete 0 n))
        then Alcotest.failf "cut %d: regenerated log diverges from the prefix" cut;
        if
          not
            (String.length regen <= String.length full_log
            && String.equal
                 (String.sub full_log 0 (String.length regen))
                 regen)
        then
          Alcotest.failf "cut %d: regenerated log is not a prefix of the live log"
            cut;
        (* resume: feed everything the truncated log had not captured *)
        List.iter
          (fun payload -> assert_clean (Server.handle_frame r payload))
          (drop (List.length done_events) full_events);
        if not (String.equal (Server.log_contents r) full_log) then
          Alcotest.failf "cut %d: resumed log differs from uninterrupted run" cut;
        if not (String.equal (Server.state_digest r) final_digest) then
          Alcotest.failf "cut %d: resumed state differs from uninterrupted run"
            cut
      end)
    !cuts;
  true

let qcheck_crash_recovery =
  QCheck.Test.make
    ~name:"crash at any prefix: restart + replay + resume = uninterrupted run"
    ~count:6
    QCheck.(int_range 0 10_000)
    crash_recovery_case

(* ------------------------------------------------------------------ *)
(* Golden: the committed demo event stream                             *)
(* ------------------------------------------------------------------ *)

let demo_scenario () = Scenario_io.of_file "../scenarios/churn_demo.scn"

let demo_config sc =
  {
    Replay_log.objective = Replay_log.objective_of_label "mnu";
    obj_label = "mnu";
    mode = `Sequential;
    max_rounds = 200;
    queue_limit = 256;
    tiers =
      List.sort (fun a b -> Float.compare b a)
        (Rate_table.rates sc.Scenario.rate_table);
    scenario_digest =
      Some (Digest.to_hex (Digest.string (Scenario_io.to_string sc)));
  }

let demo_session ~jobs =
  let sc = demo_scenario () in
  let p = Scenario.to_problem sc in
  let stream = read_file "../scenarios/serve_demo.ev" in
  Harness.Pool.with_pool ~jobs @@ fun pool ->
  let t =
    Server.create ~fanout:(Harness.Pool.run pool) ~config:(demo_config sc) p
  in
  let dec = Protocol.Decoder.create () in
  Protocol.Decoder.feed dec stream;
  let outs =
    List.concat_map
      (function
        | Protocol.Decoder.Frame payload -> Server.handle_frame t payload
        | Protocol.Decoder.Corrupt (code, detail) ->
            Alcotest.failf "demo stream corrupt: %s %s"
              (Protocol.error_code_name code)
              detail)
      (drain_items dec)
  in
  if not (Protocol.Decoder.at_boundary dec) then
    Alcotest.fail "demo stream ends mid-frame";
  let (_ : Protocol.output list) = Server.finish t in
  assert_clean outs;
  (Server.log_contents t, Server.state_digest t, render_outputs outs)

let test_golden_serve_demo () =
  let l1, d1, o1 = demo_session ~jobs:1 in
  let l4, d4, o4 = demo_session ~jobs:4 in
  Alcotest.(check string) "log j1 = j4" l1 l4;
  Alcotest.(check string) "state j1 = j4" d1 d4;
  Alcotest.(check string) "replies j1 = j4" o1 o4;
  let gl, gs = read_golden "golden/serve_demo.digest" in
  Alcotest.(check string) "log digest" gl (digest l1);
  Alcotest.(check string) "state digest" gs d1;
  (* and the log the demo produced replays to itself *)
  let header, entries = Replay_log.parse l1 in
  let p = Scenario.to_problem (demo_scenario ()) in
  let r = Server.replay ~config:header ~events:(Replay_log.events entries) p in
  Alcotest.(check string) "replayed log" l1 (Server.log_contents r);
  Alcotest.(check string) "replayed state" d1 (Server.state_digest r)

(* ------------------------------------------------------------------ *)
(* Online edge cases the daemon exposes                                *)
(* ------------------------------------------------------------------ *)

let assoc_ints net n_users =
  Array.init n_users (fun u ->
      match Association.ap_of (Online.assoc net) u with
      | Some a -> a
      | None -> Association.none)

let nash_check what net =
  let eff = Online.effective_problem net in
  let assoc = Online.assoc net in
  let loads = Loads.ap_loads eff assoc in
  let _, n_users = Problem.dims eff in
  for u = 0 to n_users - 1 do
    match
      Boxed.decide eff assoc ~loads ~objective:Distributed.Min_total_load
        u
    with
    | None -> ()
    | Some ap -> Alcotest.failf "%s: user %d still wants AP %d" what u ap
  done

let test_only_candidate_lost () =
  let p, _ = case ~seed:5 in
  let n_aps, n_users = Problem.dims p in
  let net = Online.create ~objective:Distributed.Min_total_load p in
  let (_ : Online.settle_stats) = Online.settle net in
  (* find a served user and strip every alternative link *)
  let u, a =
    let rec pick u =
      if u >= n_users then Alcotest.fail "no served user in seed 5"
      else
        match Association.ap_of (Online.assoc net) u with
        | Some a -> (u, a)
        | None -> pick (u + 1)
    in
    pick 0
  in
  for ap = 0 to n_aps - 1 do
    if ap <> a then
      match Online.apply net ~tiers:[||] (Set_rate { user = u; ap; rate = 0. }) with
      | Rate_set { lost = true } ->
          Alcotest.fail "zeroing a non-serving link cannot detach"
      | _ -> ()
  done;
  let (_ : Online.settle_stats) = Online.settle net in
  Alcotest.(check bool) "still on the only candidate" true
    (Association.ap_of (Online.assoc net) u = Some a);
  (* now the only candidate goes out of range mid-service *)
  (match Online.apply net ~tiers:[||] (Set_rate { user = u; ap = a; rate = 0. }) with
  | Rate_set { lost = true } -> ()
  | _ -> Alcotest.fail "losing the serving link must report it lost");
  let st = Online.settle net in
  Alcotest.(check bool) "converged" true st.Online.converged;
  Alcotest.(check bool) "user is unserved" true
    (Association.ap_of (Online.assoc net) u = None);
  nash_check "only-candidate" net

let test_depart_last_receiver_in_batch () =
  let p, _ = case ~seed:8 in
  let t = Server.create ~config:(config p) p in
  assert_clean (Server.handle_input t hello);
  let ev time event = Protocol.Event { time; event } in
  assert_clean (Server.handle_input t (ev 1. (Protocol.Arrive { user = 0 })));
  assert_clean (Server.handle_input t Protocol.Flush);
  (* one in-flight batch: a new arrival, then every receiver departs *)
  assert_clean (Server.handle_input t (ev 2. (Protocol.Arrive { user = 1 })));
  assert_clean (Server.handle_input t (ev 2. (Protocol.Depart { user = 1 })));
  assert_clean (Server.handle_input t (ev 2. (Protocol.Depart { user = 0 })));
  let outs = Server.handle_input t Protocol.Snapshot in
  assert_clean outs;
  (match
     List.filter_map
       (function
         | Protocol.Settled { events; total_load; converged; _ } ->
             Some (events, total_load, converged)
         | _ -> None)
       outs
   with
  | [ (3, total, true) ] ->
      Alcotest.(check bool) "empty network has zero load" true
        (Float.equal total 0.)
  | _ -> Alcotest.fail "expected one settled batch of 3 events");
  match
    List.filter_map
      (function
        | Protocol.State { present; served; _ } -> Some (present, served)
        | _ -> None)
      outs
  with
  | [ (0, 0) ] -> ()
  | _ -> Alcotest.fail "snapshot must report an empty network"

let test_fail_recover_atomic () =
  let p, _ = case ~seed:11 in
  let n_aps, n_users = Problem.dims p in
  let net = Online.create ~objective:Distributed.Min_total_load p in
  let (_ : Online.settle_stats) = Online.settle net in
  let a =
    let rec pick ap =
      if ap >= n_aps then Alcotest.fail "no loaded AP in seed 11"
      else if Boxed.users_of (Online.assoc net) ~ap <> [] then ap
      else pick (ap + 1)
    in
    pick 0
  in
  let members = Boxed.users_of (Online.assoc net) ~ap:a in
  (* fail + recover back-to-back, one atomic step before the settle *)
  (match Online.apply net ~tiers:[||] (Ap_fail { ap = a }) with
  | Failed { detached; _ } ->
      Alcotest.(check (list int)) "detached = members" members detached
  | _ -> Alcotest.fail "AP should be alive");
  Alcotest.(check bool) "recover flips it back" true
    (Online.apply net ~tiers:[||] (Ap_recover { ap = a }) = Recovered { ap = a });
  Alcotest.(check bool) "alive again" true (Online.ap_alive net a);
  let before = assoc_ints net n_users in
  let st = Online.settle net in
  let after = assoc_ints net n_users in
  Alcotest.(check bool) "converged" true st.Online.converged;
  (* the new [changed] field is exactly the association diff *)
  let diff =
    List.filter_map
      (fun u ->
        if before.(u) <> after.(u) then Some (u, before.(u), after.(u))
        else None)
      (List.init n_users Fun.id)
  in
  Alcotest.(check bool) "changed = manual diff" true (st.Online.changed = diff);
  Alcotest.(check int) "reassociated = |changed|"
    (List.length st.Online.changed)
    st.Online.reassociated;
  (* the detached members found a serving AP again *)
  List.iter
    (fun u ->
      if Association.ap_of (Online.assoc net) u = None then
        Alcotest.failf "user %d left stranded after recover" u)
    members;
  nash_check "fail+recover" net

let qcheck_changed_diff =
  QCheck.Test.make
    ~name:"settle_stats.changed = association diff across random deltas"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let p, _ = case ~seed in
      let n_aps, n_users = Problem.dims p in
      let net = Online.create ~objective:Distributed.Min_total_load p in
      let (_ : Online.settle_stats) = Online.settle net in
      let rng = Random.State.make [| seed; 0xd1ff |] in
      for _ = 1 to 6 do
        let user () = Random.State.int rng n_users
        and ap () = Random.State.int rng n_aps in
        ignore
          (Online.apply net ~tiers:[||]
             (match Random.State.int rng 4 with
             | 0 -> Arrive { user = user () }
             | 1 -> Depart { user = user () }
             | 2 -> Ap_fail { ap = ap () }
             | _ -> Ap_recover { ap = ap () })
            : Online.applied)
      done;
      let before = assoc_ints net n_users in
      let st = Online.settle net in
      let after = assoc_ints net n_users in
      let diff =
        List.filter_map
          (fun u ->
            if before.(u) <> after.(u) then Some (u, before.(u), after.(u))
            else None)
          (List.init n_users Fun.id)
      in
      st.Online.changed = diff
      && st.Online.reassociated = List.length diff)

let test_serve_reports_interruptions () =
  let p, _ = case ~seed:5 in
  let _, n_users = Problem.dims p in
  let t = Server.create ~config:(config p) p in
  assert_clean (Server.handle_input t hello);
  let ev time event = Protocol.Event { time; event } in
  let outs = ref [] in
  for u = 0 to n_users - 1 do
    outs := !outs @ Server.handle_input t (ev 1. (Protocol.Arrive { user = u }))
  done;
  outs := !outs @ Server.handle_input t Protocol.Flush;
  assert_clean !outs;
  (* read the association off the wire deltas *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | Protocol.Delta { user; to_ap; _ } -> Hashtbl.replace tbl user to_ap
      | _ -> ())
    !outs;
  let u, a =
    let rec pick u =
      if u >= n_users then Alcotest.fail "no served user on the wire"
      else
        match Hashtbl.find_opt tbl u with
        | Some a when a >= 0 -> (u, a)
        | _ -> pick (u + 1)
    in
    pick 0
  in
  (* cutting the serving link is a forced session interruption *)
  let cut =
    Server.handle_input t
      (ev 2. (Protocol.Set_rate { user = u; ap = a; rate = 0. }))
  in
  assert_clean cut;
  let outs = Server.handle_input t Protocol.Flush in
  assert_clean outs;
  (match
     List.filter_map
       (function
         | Protocol.Settled { interrupted; _ } -> Some interrupted
         | _ -> None)
       outs
   with
  | [ 1 ] -> ()
  | _ -> Alcotest.fail "the cut session must be counted as interrupted");
  (* the detach is applied at event time, before the settle snapshots
     the association: any delta for the cut user re-homes from unserved,
     and never back onto the dead link *)
  List.iter
    (function
      | Protocol.Delta { user; from_ap; to_ap; _ } when user = u ->
          Alcotest.(check int) "delta starts from unserved" Association.none
            from_ap;
          if to_ap = a then
            Alcotest.failf "user %d re-homed onto the zero-rate AP %d" u a
      | _ -> ())
    outs

(* ------------------------------------------------------------------ *)
(* Adapter                                                             *)
(* ------------------------------------------------------------------ *)

let test_adapter () =
  (* order-preserving expansion, bursts flattened into the same step *)
  (match
     Adapter.inputs_of_events
       [
         { Churn_script.time = 1.; event = Burst { users = [ 3; 1 ] } };
         { time = 2.; event = Leave { user = 3 } };
       ]
   with
  | Ok
      [
        Protocol.Event { time = t1; event = Protocol.Arrive { user = 3 } };
        Protocol.Event { time = t2; event = Protocol.Arrive { user = 1 } };
        Protocol.Event { time = t3; event = Protocol.Depart { user = 3 } };
      ] ->
      Alcotest.(check bool) "times" true
        (Float.equal t1 1. && Float.equal t2 1. && Float.equal t3 2.)
  | Ok _ -> Alcotest.fail "wrong expansion"
  | Error e -> Alcotest.fail (Adapter.error_message e));
  (* a list that bypassed Churn_script.make's sort is refused, typed *)
  match
    Adapter.inputs_of_events
      [
        { Churn_script.time = 2.; event = Join { user = 0 } };
        { time = 1.; event = Leave { user = 1 } };
      ]
  with
  | Error (Adapter.Non_monotone { index; prev; time }) ->
      Alcotest.(check int) "index" 1 index;
      Alcotest.(check bool) "times" true
        (Float.equal prev 2. && Float.equal time 1.);
      ignore
        (Adapter.error_message (Adapter.Non_monotone { index; prev; time })
          : string)
  | Ok _ -> Alcotest.fail "non-monotone events must be refused"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest qcheck_garbage_total;
          QCheck_alcotest.to_alcotest qcheck_truncation_prefix;
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          Alcotest.test_case "oversize and corruption recovery" `Quick
            test_oversize_recovery;
          Alcotest.test_case "frame cap edge" `Quick test_frame_cap_edge;
        ] );
      ( "batch",
        [
          QCheck_alcotest.to_alcotest qcheck_batch_commutes;
          Alcotest.test_case "queue-limit backpressure forces a settle" `Quick
            test_forced_settle;
        ] );
      ( "session",
        [
          Alcotest.test_case "handshake, ranges, monotone time, bye" `Quick
            test_session_discipline;
          Alcotest.test_case "set-rate cannot grow a never-in-range link"
            `Quick test_set_rate_cannot_grow;
        ] );
      ( "replay",
        [
          QCheck_alcotest.to_alcotest qcheck_live_replay;
          QCheck_alcotest.to_alcotest qcheck_crash_recovery;
        ] );
      ( "golden",
        [
          Alcotest.test_case "demo stream, j1 = j4 = digest" `Quick
            test_golden_serve_demo;
        ] );
      ( "online-edges",
        [
          Alcotest.test_case "only candidate AP lost mid-service" `Quick
            test_only_candidate_lost;
          Alcotest.test_case "last receiver departs inside a batch" `Quick
            test_depart_last_receiver_in_batch;
          Alcotest.test_case "AP fail + recover in one atomic step" `Quick
            test_fail_recover_atomic;
          QCheck_alcotest.to_alcotest qcheck_changed_diff;
          Alcotest.test_case "interruptions reported on the wire" `Quick
            test_serve_reports_interruptions;
        ] );
      ( "adapter",
        [ Alcotest.test_case "expansion and typed rejection" `Quick test_adapter ]
      );
    ]
