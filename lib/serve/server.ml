(** The serve daemon's core state machine (see the interface for the
    batching and determinism contracts). Channel-agnostic: callers feed
    {!Protocol.input}s (or raw frame payloads) and frame the returned
    outputs to the peer; the replay log accumulates in memory. *)

open Wlan_model
open Mcast_core

let src = Logs.Src.create "serve" ~doc:"Association-control daemon"

module Log = (val Logs.src_log src : Logs.LOG)

(* Deterministic serving counters (DESIGN.md §4.9): a session is a pure
   function of (problem, header, input sequence), so so are these. *)
let c_events = Wlan_obs.Counters.make "serve.events"
let c_batches = Wlan_obs.Counters.make "serve.batches"
let c_deltas = Wlan_obs.Counters.make "serve.deltas"
let c_queue_peak = Wlan_obs.Counters.make "serve.queue_peak"
let c_errors = Wlan_obs.Counters.make "serve.errors"
let c_forced = Wlan_obs.Counters.make "serve.forced_settles"
let c_snapshots = Wlan_obs.Counters.make "serve.snapshots"

type fanout = (unit -> float * float) list -> (float * float) list

let sequential_fanout tasks = List.map (fun task -> task ()) tasks

type stats = {
  events : int;
  batches : int;
  emitted_deltas : int;
  errors : int;
  queue_peak : int;
  forced_settles : int;
}

type t = {
  cfg : Replay_log.header;
  p : Problem.t;  (** the instance served (read-only reference) *)
  net : Distributed.Online.t;
  tiers : float array;  (** the header's drift ladder *)
  fanout : fanout;
  log : Buffer.t;
  mutable stage : [ `Await_hello | `Open | `Closed ];
  mutable has_batch : bool;
  mutable batch_time : float;
  mutable pending : int;  (** events applied but not yet settled *)
  mutable pending_interrupted : int;
  mutable last_time : float;  (** time of the last settled batch *)
  mutable st : stats;
}

let validate_config (h : Replay_log.header) =
  if h.max_rounds < 1 then invalid_arg "Server.create: max_rounds < 1";
  if h.queue_limit < 1 then invalid_arg "Server.create: queue_limit < 1";
  if Replay_log.objective_of_label h.obj_label <> h.objective then
    invalid_arg "Server.create: objective does not match obj_label"

let create ?(fanout = sequential_fanout) ~config p =
  validate_config config;
  (* a log header is outside input: an unsorted ladder is refused, not
     sorted *)
  let tiers = Churn_script.ladder ~who:"Server.create" config.tiers in
  let _, n_users = Problem.dims p in
  (* a daemon's network starts empty: users exist only once they arrive *)
  let net =
    Distributed.Online.create ~present:(Array.make n_users false)
      ~objective:config.Replay_log.objective p
  in
  let log = Buffer.create 4096 in
  Buffer.add_string log (Replay_log.render_header config);
  {
    cfg = config;
    p;
    net;
    tiers;
    fanout;
    log;
    stage = `Await_hello;
    has_batch = false;
    batch_time = 0.;
    pending = 0;
    pending_interrupted = 0;
    last_time = 0.;
    st =
      {
        events = 0;
        batches = 0;
        emitted_deltas = 0;
        errors = 0;
        queue_peak = 0;
        forced_settles = 0;
      };
  }

let config t = t.cfg
let closed t = t.stage = `Closed
let log_contents t = Buffer.contents t.log
let stats t = t.st
let assoc t = Distributed.Online.assoc t.net

let log_ev t payload =
  Buffer.add_string t.log "ev ";
  Buffer.add_string t.log payload;
  Buffer.add_char t.log '\n'

let log_outs t outs =
  List.iter
    (fun o ->
      Buffer.add_string t.log "out ";
      Buffer.add_string t.log (Protocol.render_output o);
      Buffer.add_char t.log '\n')
    outs

let refuse t code detail =
  Wlan_obs.Counters.incr c_errors;
  t.st <- { t.st with errors = t.st.errors + 1 };
  Log.debug (fun m -> m "refused: %s %s" (Protocol.error_code_name code) detail);
  [ Protocol.Error { code; detail } ]

(* Settle the pending batch: one atomic [Online.settle], the batch's
   association deltas (ascending user) and one summary line. *)
let settle_now t ~forced =
  if t.pending = 0 then begin
    t.has_batch <- false;
    []
  end
  else begin
    Wlan_obs.Counters.incr c_batches;
    if forced then Wlan_obs.Counters.incr c_forced;
    let stats =
      Distributed.Online.settle ~max_rounds:t.cfg.max_rounds
        ~mode:t.cfg.mode t.net
    in
    let time = t.batch_time in
    let deltas =
      List.map
        (fun (user, from_ap, to_ap) ->
          Protocol.Delta { time; user; from_ap; to_ap })
        stats.Distributed.Online.changed
    in
    let n_deltas = List.length deltas in
    Wlan_obs.Counters.add c_deltas n_deltas;
    let summary =
      Protocol.Settled
        {
          time;
          events = t.pending;
          interrupted = t.pending_interrupted;
          rounds = stats.rounds;
          moves = stats.moves;
          reassociated = stats.reassociated;
          deltas = n_deltas;
          forced;
          converged = stats.converged;
          oscillated = stats.oscillated;
          total_load = stats.total_load;
          max_load = stats.max_load;
        }
    in
    let outs = deltas @ [ summary ] in
    log_outs t outs;
    t.st <-
      {
        t.st with
        batches = t.st.batches + 1;
        emitted_deltas = t.st.emitted_deltas + n_deltas;
        forced_settles = (t.st.forced_settles + if forced then 1 else 0);
      };
    t.last_time <- time;
    t.pending <- 0;
    t.pending_interrupted <- 0;
    t.has_batch <- false;
    outs
  end

let state_digest t =
  let net = t.net in
  let n_aps, n_users = Problem.dims t.p in
  let buf = Buffer.create 1024 in
  let assoc = Distributed.Online.assoc net in
  for u = 0 to n_users - 1 do
    Buffer.add_string buf (string_of_int assoc.(u));
    Buffer.add_char buf ';'
  done;
  for u = 0 to n_users - 1 do
    Buffer.add_char buf
      (if Distributed.Online.is_present net u then 'p' else '.')
  done;
  for a = 0 to n_aps - 1 do
    Buffer.add_char buf (if Distributed.Online.ap_alive net a then 'a' else '.')
  done;
  Array.iter
    (fun l -> Buffer.add_string buf (Printf.sprintf "%.17g;" l))
    (Distributed.Online.loads net);
  (* drifted link rates: the working copy [set_rate] mutates *)
  for a = 0 to n_aps - 1 do
    for u = 0 to n_users - 1 do
      Buffer.add_string buf
        (Printf.sprintf "%.17g;" (Distributed.Online.link_rate net ~ap:a ~user:u))
    done
  done;
  Buffer.add_string buf
    (Printf.sprintf "|batch:%b@%.17g+%d/%d|dirty:%d" t.has_batch t.batch_time
       t.pending t.pending_interrupted
       (Distributed.Online.dirty_count net));
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Snapshot baselines: a fresh sequential solve of the effective static
   instance and the strongest-signal association, as independent fanout
   tasks — results merge in submission order, so the reply is
   byte-identical at any pool size. *)
let snapshot_state t =
  Wlan_obs.Counters.incr c_snapshots;
  let eff = Distributed.Online.effective_problem t.net in
  (* [run]'s default round cap, not the header's settle cap *)
  let fresh () =
    Distributed.baseline ~max_rounds:200 ~objective:t.cfg.objective eff
  in
  let ssa () =
    let s = Ssa.run eff in
    (Loads.total_load eff s.Solution.assoc, Loads.max_load eff s.assoc)
  in
  match t.fanout [ fresh; ssa ] with
  | [ (fresh_total, fresh_max); (ssa_total, ssa_max) ] ->
      let _, n_users = Problem.dims t.p in
      let present = ref 0 in
      for u = 0 to n_users - 1 do
        if Distributed.Online.is_present t.net u then incr present
      done;
      Protocol.State
        {
          time = t.last_time;
          present = !present;
          served = Association.served_count (Distributed.Online.assoc t.net);
          total_load = Distributed.Online.total_load t.net;
          max_load = Distributed.Online.max_load t.net;
          fresh_total;
          fresh_max;
          ssa_total;
          ssa_max;
          digest = state_digest t;
        }
  | _ -> assert false (* fanout returns results in submission order *)

let chk_user t u k =
  let _, n_users = Problem.dims t.p in
  if u < 0 || u >= n_users then
    refuse t Protocol.Out_of_range
      (Printf.sprintf "user %d outside 0..%d" u (n_users - 1))
  else k ()

let chk_ap t a k =
  let n_aps, _ = Problem.dims t.p in
  if a < 0 || a >= n_aps then
    refuse t Protocol.Out_of_range
      (Printf.sprintf "ap %d outside 0..%d" a (n_aps - 1))
  else k ()

(* The link structure cannot grow a link that was never in range at
   build time; refuse such growth up front (the signal plane is
   structural: out-of-slot pairs answer [neg_infinity]) so acceptance
   is decided before anything is logged or applied. *)
let chk_growable t ~user ~ap rate k =
  if rate > 0. && not (Float.is_finite (Problem.signal t.p ~ap ~user)) then
    refuse t Protocol.Out_of_range
      (Printf.sprintf "link a%d-u%d never in range of the instance" ap user)
  else k ()

let validate_event t event k =
  match event with
  | Protocol.Arrive { user } | Protocol.Depart { user } ->
      chk_user t user k
  | Protocol.Ap_fail { ap } | Protocol.Ap_recover { ap } -> chk_ap t ap k
  | Protocol.Set_rate { user; ap; rate } ->
      chk_user t user @@ fun () ->
      chk_ap t ap @@ fun () -> chk_growable t ~user ~ap rate k
  | Protocol.Drift { user; steps = _ } -> chk_user t user k

let handle_event t ~time event =
  validate_event t event @@ fun () ->
  let floor = if t.has_batch then t.batch_time else t.last_time in
  if time < floor then
    refuse t Protocol.Non_monotone
      (Printf.sprintf "t=%.17g before t=%.17g" time floor)
  else begin
    (* accepted: close the previous batch if the clock advanced, log,
       apply, and settle under backpressure *)
    let pre =
      if t.has_batch && time > t.batch_time then settle_now t ~forced:false
      else []
    in
    if not t.has_batch then begin
      t.has_batch <- true;
      t.batch_time <- time
    end;
    log_ev t (Protocol.render_input (Protocol.Event { time; event }));
    Wlan_obs.Counters.incr c_events;
    let interrupted =
      Distributed.Online.(interrupted (apply t.net ~tiers:t.tiers event))
    in
    t.pending <- t.pending + 1;
    t.pending_interrupted <- t.pending_interrupted + interrupted;
    if t.pending > t.st.queue_peak then begin
      t.st <- { t.st with queue_peak = t.pending };
      Wlan_obs.Counters.record_max c_queue_peak t.pending
    end;
    t.st <- { t.st with events = t.st.events + 1 };
    let post =
      if t.pending >= t.cfg.queue_limit then settle_now t ~forced:true
      else []
    in
    pre @ post
  end

let handle_input t input =
  match (t.stage, input) with
  | `Closed, _ -> refuse t Protocol.Closed "session ended by bye"
  | `Await_hello, Protocol.Hello { version } ->
      if version <> Protocol.version then
        refuse t Protocol.Bad_hello
          (Printf.sprintf "version %d unsupported (this is %s %d)" version
             Protocol.magic Protocol.version)
      else begin
        t.stage <- `Open;
        [ Protocol.Ok_hello { version } ]
      end
  | `Await_hello, _ ->
      refuse t Protocol.Expected_hello "first frame must be the handshake"
  | `Open, Protocol.Hello _ -> refuse t Protocol.Bad_hello "duplicate hello"
  | `Open, Protocol.Event { time; event } -> handle_event t ~time event
  | `Open, Protocol.Flush ->
      log_ev t (Protocol.render_input Protocol.Flush);
      settle_now t ~forced:false
  | `Open, Protocol.Snapshot ->
      log_ev t (Protocol.render_input Protocol.Snapshot);
      let outs = settle_now t ~forced:false in
      let state = snapshot_state t in
      log_outs t [ state ];
      outs @ [ state ]
  | `Open, Protocol.Bye ->
      log_ev t (Protocol.render_input Protocol.Bye);
      let outs = settle_now t ~forced:false in
      t.stage <- `Closed;
      outs

let handle_frame t payload =
  match Protocol.parse_input payload with
  | Ok input -> handle_input t input
  | Error (code, detail) -> refuse t code detail

(* End of stream without [bye]: behave like a trailing [flush] so the
   log replays to the same quiescent state, then stop accepting. *)
let finish t =
  match t.stage with
  | `Closed -> []
  | `Await_hello ->
      t.stage <- `Closed;
      []
  | `Open ->
      let outs = handle_input t Protocol.Flush in
      t.stage <- `Closed;
      outs

let replay ?fanout ~config ~events p =
  let t = create ?fanout ~config p in
  let feed payload =
    match Protocol.parse_input payload with
    | Error (code, detail) ->
        invalid_arg
          (Printf.sprintf "Server.replay: corrupt log event %S (%s %s)"
             payload
             (Protocol.error_code_name code)
             detail)
    | Ok input -> (
        let outs = handle_input t input in
        match
          List.find_opt
            (function Protocol.Error _ -> true | _ -> false)
            outs
        with
        | Some (Protocol.Error { code; detail }) ->
            invalid_arg
              (Printf.sprintf "Server.replay: log event %S refused (%s %s)"
                 payload
                 (Protocol.error_code_name code)
                 detail)
        | _ -> ())
  in
  feed (Protocol.render_input (Protocol.Hello { version = Protocol.version }));
  List.iter feed events;
  t
