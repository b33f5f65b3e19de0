(* serve-churn / serve-storm: the shipped [wlan-mcast serve --socket]
   daemon driven by one open-loop client connection.

   Every batch is a fresh integer timestamp carrying a few churn events
   and a [flush], so each one owes exactly one [settled] reply. After
   warm-up batches that bring the network to the steady state the timed
   events then hold, phase A offers batches on a fixed schedule and
   times each from when it was {e due} to when its [settled] frame
   arrives; phase B sends a fixed number of batches as fast as the
   socket takes them. A final [snapshot] digest must equal that of an
   in-process [Server] fed the same bytes — the shipped binary ≡ the
   library path. *)

open Wlan_model
open Common
module P = Mcast_serve.Protocol

(* The event mix. Every event is drawn over the network's live state,
   so none is a no-op: a membership event joins an absent user while
   fewer than [present_share] of the users are present and otherwise
   removes a present one; an AP event fails a live AP while fewer than
   [dark_share] of the APs are dark and otherwise recovers a dark one;
   a burst brings 2-4 absent users in at once; a drift moves a present
   user's links one tier. *)
type mix = { membership : int; burst : int; drift : int; ap : int; dark_share : float }

(* The share of users present, reached in warm-up and held after it. *)
let present_share = 0.6

type spec = {
  workload : string;
  n_aps : int;
  n_users : int;
  area_m : float;
  events_per_batch : int;
  mix : mix;  (** event weights and the dark-AP share held *)
  rate : float;  (** phase A offered batches/s *)
  n_a : int;  (** phase A batches *)
  n_b : int;  (** phase B (saturation) batches *)
  snapshot_every : int option;  (** phase A snapshot read period, batches *)
}

let spec ~workload ~seconds ~smoke =
  let toy n = if smoke then 150 else n in
  match workload with
  | "serve-churn" ->
      (* paper scale under membership churn, in Churn_script.default_gen's
         join+leave : burst : drift proportions and without AP failures:
         a settle re-decides the ~50 users near the touched APs (~80 us),
         so codec, batching, log append and socket IO weigh as much *)
      {
        workload;
        n_aps = 200;
        n_users = 400;
        area_m = Scenario_gen.paper_default.area_w;
        events_per_batch = 4;
        mix = { membership = 8; burst = 1; drift = 2; ap = 0; dark_share = 0. };
        rate = 1000.;
        n_a = toy (300 * seconds);
        n_b = toy (1500 * seconds);
        snapshot_every = None;
      }
  | "serve-storm" ->
      (* the paper's AP density over a 500×2000 network: half of all
         events fail or recover an AP and a quarter drift a user, each
         dirtying a whole neighbourhood, while 5% of the APs stay dark,
         so settles dominate *)
      {
        workload;
        n_aps = 500;
        n_users = 2000;
        area_m = 1732.;
        events_per_batch = 8;
        mix = { membership = 2; burst = 0; drift = 2; ap = 4; dark_share = 0.05 };
        rate = 250.;
        n_a = toy (100 * seconds);
        n_b = toy (300 * seconds);
        snapshot_every = Some (if smoke then 100 else 600);
      }
  | other -> invalid_arg ("not a serve workload: " ^ other)

(* ------------------------------------------------------------------ *)
(* Inputs: scenario text and framed batches, all from the seed          *)
(* ------------------------------------------------------------------ *)

(* The ints of [0, n) split between an in side and an out side, with
   O(1) moves and uniform draws from either side. *)
type split = {
  items : int array;  (** the in side is [items.(0 .. n_in - 1)] *)
  slot : int array;  (** position of each int in [items] *)
  mutable n_in : int;
}

let split n = { items = Array.init n Fun.id; slot = Array.init n Fun.id; n_in = 0 }

let swap s i j =
  let a = s.items.(i) and b = s.items.(j) in
  s.items.(i) <- b;
  s.items.(j) <- a;
  s.slot.(a) <- j;
  s.slot.(b) <- i

(* Draw uniformly from the in side and move the draw out; [move_in] the
   other way. *)
let move_out s rng =
  let x = s.items.(Random.State.int rng s.n_in) in
  swap s s.slot.(x) (s.n_in - 1);
  s.n_in <- s.n_in - 1;
  x

let n_out s = Array.length s.items - s.n_in

let move_in s rng =
  let x = s.items.(s.n_in + Random.State.int rng (n_out s)) in
  swap s s.slot.(x) s.n_in;
  s.n_in <- s.n_in + 1;
  x

(* The network as the events leave it: users in = present, APs in =
   dark; [up.(u)] is the direction of [u]'s next drift step. *)
type state = {
  rng : Random.State.t;
  users : split;
  aps : split;
  up : bool array;
  present_target : int;
  dark_target : int;
}

let join st = Churn_script.Join { user = move_in st.users st.rng }
let fail st = Churn_script.Ap_fail { ap = move_in st.aps st.rng }

let membership st =
  if st.users.n_in < st.present_target then join st
  else Churn_script.Leave { user = move_out st.users st.rng }

(* Drift steps alternate +1, -1 per user. [Churn_script.random] draws
   them from -2..2 (0 mapped to -1), a walk biased downward whose links
   die for good below the lowest tier, so a long session would erode the
   network until nobody can be served. Alternating, a link never dies and
   only a top-tier link is demoted, once; warm-up runs one +1/-1 cycle
   for every user so that happens before anything is timed. *)
let drift st user =
  let steps = if st.up.(user) then 1 else -1 in
  st.up.(user) <- not st.up.(user);
  Churn_script.Drift { user; steps }

let next_event mix st =
  let weights =
    [ (mix.membership, `Membership); (mix.burst, `Burst); (mix.drift, `Drift); (mix.ap, `Ap) ]
  in
  let x = Random.State.int st.rng (List.fold_left (fun a (w, _) -> a + w) 0 weights) in
  let rec kind acc = function
    | (w, k) :: rest -> if x < acc + w then k else kind (acc + w) rest
    | [] -> `Membership
  in
  match kind 0 weights with
  | `Burst when n_out st.users >= 2 ->
      let k = Int.min (n_out st.users) (2 + Random.State.int st.rng 3) in
      Churn_script.Burst { users = List.init k (fun _ -> move_in st.users st.rng) }
  | `Drift when st.users.n_in > 0 ->
      drift st st.users.items.(Random.State.int st.rng st.users.n_in)
  | `Ap when st.aps.n_in = 0 || st.aps.n_in < st.dark_target -> fail st
  | `Ap -> Churn_script.Ap_recover { ap = move_out st.aps st.rng }
  | `Membership | `Burst | `Drift -> membership st

type batch = { bytes : string; events : int; snapshot : bool }

type inputs = {
  scenario_text : string;
  batches : batch array;  (** index = batch timestamp; 0 is unused *)
  first_a : int;  (** warm-up batches are [1, first_a) *)
  first_b : int;
  last : int;
  dark_share : float;  (** mean share of dark APs over the timed batches *)
  kinds : (string * int) list;  (** timed events by kind *)
}

let warm = 1

(* Events per warm-up batch: below serve's queue limit (256), so none is
   force-settled in pieces. *)
let warm_batch = 200

let frame input = P.frame (P.render_input input)
let hello = frame (P.Hello { version = P.version })

let batch_of_events ~snapshot ~time events =
  let inputs =
    match
      Mcast_serve.Adapter.inputs_of_events
        (List.map (fun event -> { Churn_script.time; event }) events)
    with
    | Ok inputs -> inputs
    | Error e -> failwith (Mcast_serve.Adapter.error_message e)
  in
  {
    bytes =
      String.concat ""
        (List.map frame inputs
        @ [ frame P.Flush ]
        @ if snapshot then [ frame P.Snapshot ] else []);
    events = List.length inputs;
    snapshot;
  }

let kind_name : Churn_script.event -> string = function
  | Join _ -> "join"
  | Leave _ -> "leave"
  | Ap_fail _ -> "ap-fail"
  | Ap_recover _ -> "ap-recover"
  | Drift _ -> "drift"
  | Burst _ -> "burst"

let generate spec ~seed =
  let sc =
    Scenario_gen.generate
      ~rng:(Scenario_gen.scenario_rng ~seed 0)
      {
        Scenario_gen.paper_default with
        n_aps = spec.n_aps;
        n_users = spec.n_users;
        area_w = spec.area_m;
        area_h = spec.area_m;
      }
  in
  let st =
    {
      rng = Scenario_gen.scenario_rng ~seed 1;
      users = split spec.n_users;
      aps = split spec.n_aps;
      up = Array.make spec.n_users true;
      present_target =
        int_of_float (Float.round (present_share *. float_of_int spec.n_users));
      dark_target =
        int_of_float (Float.round (spec.mix.dark_share *. float_of_int spec.n_aps));
    }
  in
  (* warm-up: the steady state the timed events then hold *)
  let warm_events =
    List.init st.present_target (fun _ -> join st)
    @ List.init st.dark_target (fun _ -> fail st)
    @ List.concat
        (List.init spec.n_users (fun user -> [ drift st user; drift st user ]))
  in
  let first_a = warm + ((List.length warm_events + warm_batch - 1) / warm_batch) in
  let n = spec.n_a + spec.n_b in
  let dark = ref 0 and kinds = Hashtbl.create 8 in
  let timed =
    Array.init n (fun _ ->
        let events = List.init spec.events_per_batch (fun _ -> next_event spec.mix st) in
        dark := !dark + st.aps.n_in;
        List.iter
          (fun e ->
            let k = kind_name e in
            Hashtbl.replace kinds k (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k)))
          events;
        events)
  in
  let batches =
    Array.init (first_a + n) (fun k ->
        let time = float_of_int k in
        if k = 0 then { bytes = ""; events = 0; snapshot = false }
        else if k < first_a then
          batch_of_events ~snapshot:false ~time
            (List.filteri (fun i _ -> i / warm_batch = k - warm) warm_events)
        else
          let i = k - first_a in
          let snapshot =
            match spec.snapshot_every with
            | Some every -> i < spec.n_a && (i + 1) mod every = 0
            | None -> false
          in
          batch_of_events ~snapshot ~time timed.(i))
  in
  {
    scenario_text = Scenario_io.to_string sc;
    batches;
    first_a;
    first_b = first_a + spec.n_a;
    last = first_a + n - 1;
    dark_share = float_of_int !dark /. float_of_int (n * spec.n_aps);
    kinds = List.sort compare (List.of_seq (Hashtbl.to_seq kinds));
  }

(* The daemon's own session header for a scenario (serve's defaults:
   objective mnu, sequential settles, 200 rounds, queue limit 256). *)
let config (sc : Scenario.t) text =
  {
    Mcast_serve.Replay_log.objective = Mcast_core.Distributed.Min_total_load;
    obj_label = "mnu";
    mode = `Sequential;
    max_rounds = 200;
    queue_limit = 256;
    tiers = Rate_model.tier_rates sc.model;
    scenario_digest = Some (Digest.to_hex (Digest.string text));
  }

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

type replies = {
  seen : int array;  (** [settled] frames per batch timestamp *)
  events_ok : bool array;  (** every [settled] carried the sent count *)
  arrived : float array;  (** arrival of the batch's [settled] *)
  mutable settled : int;
  mutable deltas : int;
  mutable states : int;
  mutable digest : string;
  mutable hello_ok : bool;
  mutable unexpected : string list;  (** errors and unknown frames *)
}

let new_replies inputs =
  let n = Array.length inputs.batches in
  {
    seen = Array.make n 0;
    events_ok = Array.make n true;
    arrived = Array.make n 0.;
    settled = 0;
    deltas = 0;
    states = 0;
    digest = "";
    hello_ok = false;
    unexpected = [];
  }

let on_reply inputs r ~now payload =
  let odd () = r.unexpected <- payload :: r.unexpected in
  match String.split_on_char ' ' payload with
  | "settled" :: t :: "events" :: n :: _ -> (
      match (float_of_string_opt t, int_of_string_opt n) with
      | Some t, Some n
        when Float.is_integer t && t >= 1.
             && t < float_of_int (Array.length r.seen) ->
          let k = int_of_float t in
          if r.seen.(k) = 0 then begin
            r.settled <- r.settled + 1;
            r.arrived.(k) <- now
          end;
          r.seen.(k) <- r.seen.(k) + 1;
          if n <> inputs.batches.(k).events then r.events_ok.(k) <- false
      | _ -> odd ())
  | "delta" :: _ -> r.deltas <- r.deltas + 1
  | "state" :: rest ->
      r.states <- r.states + 1;
      r.digest <- List.nth rest (List.length rest - 1)
  | "ok" :: _ -> r.hello_ok <- true
  | _ -> odd ()

(* One operation per batch (exactly one [settled], with the events
   sent) and per expected [state] reply; every error frame fails one. *)
let check_replies ops inputs r ~states =
  for k = warm to inputs.last do
    check ops
      (r.seen.(k) = 1 && r.events_ok.(k))
      (Printf.sprintf "batch %d: %d settled frames%s" k r.seen.(k)
         (if r.events_ok.(k) then "" else ", wrong event count"))
  done;
  check ops (r.states = states)
    (Printf.sprintf "%d state replies for %d snapshots" r.states states);
  List.iter (fun p -> check ops false ("unexpected reply: " ^ p)) r.unexpected

let snapshots inputs =
  1
  + Array.fold_left (fun acc b -> if b.snapshot then acc + 1 else acc) 0
      inputs.batches

(* ------------------------------------------------------------------ *)
(* In-process replay: the daemon's per-frame path without the socket   *)
(* ------------------------------------------------------------------ *)

(* Wall seconds spent in one kind of call, and the items it handled. *)
type cost = { mutable s : float; mutable n : int }

let cost () = { s = 0.; n = 0 }

let charge c f =
  let r, dt = time f in
  c.s <- c.s +. dt;
  r

type replay = {
  digest : string;
  log_bytes : int;
  events : int;
  settles : float list;  (** [handle_input] on each [flush] *)
  decode : cost;  (** [n] = frames decoded *)
  encode : cost;  (** [n] = reply frames encoded *)
  event : cost;
  snapshot : cost;
}

(* Decode, handle and encode every byte the client sends, exactly as
   the daemon's socket loop does; each step is a traced library call. *)
let replay ?(on_payload = fun _ -> ()) inputs ~text =
  let sc =
    Tracer.call "wlan_model.Scenario_io.of_string" (fun () ->
        Scenario_io.of_string text)
  in
  let p =
    Tracer.call "wlan_model.Scenario.to_problem" (fun () ->
        Scenario.to_problem sc)
  in
  let config = config sc text in
  let server =
    Tracer.call "mcast_serve.Server.create" (fun () ->
        Mcast_serve.Server.create ~config p)
  in
  let dec = P.Decoder.create () in
  let wire = Buffer.create 4096 in
  let decode = cost () and encode = cost () and event = cost ()
  and snapshot = cost () in
  let settles = ref [] in
  let rec drain () =
    let next =
      charge decode (fun () ->
          Tracer.call "mcast_serve.Protocol.decode" (fun () ->
              match P.Decoder.next dec with
              | None -> None
              | Some (P.Decoder.Frame s) -> Some (P.parse_input s)
              | Some (P.Decoder.Corrupt (code, detail)) ->
                  Some (Error (code, detail))))
    in
    match next with
    | None -> ()
    | Some (Error (_, detail)) ->
        on_payload ("error " ^ detail);
        drain ()
    | Some (Ok input) ->
        decode.n <- decode.n + 1;
        let name =
          match input with
          | P.Flush -> "mcast_serve.Server.handle_input:flush"
          | P.Snapshot -> "mcast_serve.Server.handle_input:snapshot"
          | P.Event _ -> "mcast_serve.Server.handle_input:event"
          | P.Hello _ | P.Bye -> "mcast_serve.Server.handle_input:session"
        in
        let outs, dt =
          time (fun () ->
              Tracer.call name (fun () ->
                  Mcast_serve.Server.handle_input server input))
        in
        (match input with
        | P.Flush -> settles := dt :: !settles
        | P.Snapshot ->
            snapshot.s <- snapshot.s +. dt;
            snapshot.n <- snapshot.n + 1
        | P.Event _ ->
            event.s <- event.s +. dt;
            event.n <- event.n + 1
        | P.Hello _ | P.Bye -> ());
        (match outs with
        | [] -> ()
        | _ ->
            encode.n <- encode.n + List.length outs;
            List.iter on_payload
              (charge encode (fun () ->
                   Tracer.call "mcast_serve.Protocol.encode" (fun () ->
                       Buffer.clear wire;
                       List.map
                         (fun o ->
                           let s = P.render_output o in
                           P.frame_into wire s;
                           s)
                         outs))));
        drain ()
  in
  let feed bytes =
    charge decode (fun () ->
        Tracer.call "mcast_serve.Protocol.Decoder.feed" (fun () ->
            P.Decoder.feed dec bytes));
    drain ()
  in
  feed hello;
  Array.iter (fun b -> feed b.bytes) inputs.batches;
  feed (frame P.Snapshot);
  {
    digest = Mcast_serve.Server.state_digest server;
    log_bytes = String.length (Mcast_serve.Server.log_contents server);
    events = (Mcast_serve.Server.stats server).events;
    settles = !settles;
    decode;
    encode;
    event;
    snapshot;
  }

(* ------------------------------------------------------------------ *)
(* The socket client                                                   *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  dec : P.Decoder.t;
  rbuf : Bytes.t;
  mutable out : Bytes.t;  (** unsent bytes are [o_start, o_stop) *)
  mutable o_start : int;
  mutable o_stop : int;
  mutable eof : bool;
}

let pending c = c.o_stop - c.o_start

let enqueue c s =
  let len = String.length s in
  if c.o_stop + len > Bytes.length c.out then begin
    let live = pending c in
    let cap = Int.max (Bytes.length c.out) (2 * (live + len)) in
    let nb = if cap > Bytes.length c.out then Bytes.create cap else c.out in
    Bytes.blit c.out c.o_start nb 0 live;
    c.out <- nb;
    c.o_start <- 0;
    c.o_stop <- live
  end;
  Bytes.blit_string s 0 c.out c.o_stop len;
  c.o_stop <- c.o_stop + len

let retry_io = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true
  | _ -> false

(* One round of duplex IO: wait up to [timeout] for the socket to take
   bytes or deliver some, then write what it takes and decode what it
   delivered. Writing never blocks, so a daemon busy replying can never
   deadlock against us. *)
let pump c ~timeout ~on_frame =
  let want_write = if pending c > 0 then [ c.fd ] else [] in
  match Unix.select [ c.fd ] want_write [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, writable, _ ->
      (match writable with
      | [] -> ()
      | _ -> (
          match Unix.single_write c.fd c.out c.o_start (pending c) with
          | n -> c.o_start <- c.o_start + n
          | exception Unix.Unix_error (e, _, _) when retry_io e -> ()));
      (match readable with
      | [] -> ()
      | _ -> (
          match Unix.read c.fd c.rbuf 0 (Bytes.length c.rbuf) with
          | 0 -> c.eof <- true
          | n -> P.Decoder.feed c.dec (Bytes.sub_string c.rbuf 0 n)
          | exception Unix.Unix_error (e, _, _) when retry_io e -> ()));
      let rec drain () =
        match P.Decoder.next c.dec with
        | None -> ()
        | Some (P.Decoder.Frame payload) ->
            on_frame payload;
            drain ()
        | Some (P.Decoder.Corrupt (_, detail)) ->
            on_frame ("corrupt " ^ detail);
            drain ()
      in
      drain ()

(* Pump until [done_ ()] holds, failing after [limit] seconds. [done_]
   may enqueue; [timeout] is read after it, so an open loop can sleep
   exactly until its next batch is due. *)
let pump_until ?(timeout = fun () -> 0.05) c ~on_frame ~limit ~what done_ =
  let deadline = now_s () +. limit in
  while not (done_ ()) do
    if c.eof then failwith ("daemon closed the connection while " ^ what);
    if now_s () > deadline then failwith ("timed out while " ^ what);
    pump c ~timeout:(timeout ()) ~on_frame
  done

type daemon = { pid : int; mutable status : Unix.process_status option }

let reap d =
  match d.status with
  | Some _ -> ()
  | None -> (
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _, st -> d.status <- Some st)

(* Stop the daemon if it still runs, and always wait for it. *)
let kill d =
  reap d;
  if Option.is_none d.status then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let _, st = Unix.waitpid [] d.pid in
    d.status <- Some st
  end

let spawn ~server ~scenario_file ~sock ~log =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close devnull;
      Unix.close err)
    (fun () ->
      {
        pid =
          Unix.create_process server
            [|
              server; "serve"; "--scenario"; scenario_file; "--socket"; sock;
              "--objective"; "mnu"; "--mode"; "sequential"; "--jobs"; "1";
            |]
            devnull devnull err;
        status = None;
      })

(* Connect once the daemon listens: bounded retry, failing early if it
   exits first. *)
let connect d ~sock =
  let deadline = now_s () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        Unix.set_nonblock fd;
        {
          fd;
          dec = P.Decoder.create ();
          rbuf = Bytes.create 65536;
          out = Bytes.create 65536;
          o_start = 0;
          o_stop = 0;
          eof = false;
        }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        reap d;
        if Option.is_some d.status then failwith "daemon exited before listening";
        if now_s () > deadline then failwith "daemon never listened";
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

(* A session's end: [bye], the daemon closes the connection and exits
   0 on its own. *)
let finish d c ~on_frame =
  enqueue c (frame P.Bye);
  let deadline = now_s () +. 30. in
  while (not c.eof) && now_s () < deadline do
    pump c ~timeout:0.05 ~on_frame
  done;
  while Option.is_none d.status && now_s () < deadline do
    reap d;
    if Option.is_none d.status then Unix.sleepf 0.001
  done;
  kill d;
  d.status = Some (Unix.WEXITED 0)

(* [count] batches from [first] as [parts] consecutive [lo, hi) ranges. *)
let ranges ~first ~count ~parts =
  List.init parts (fun j ->
      (first + (j * count / parts), first + ((j + 1) * count / parts)))

let run ~server ~work_dir ~seed ~setup_reps ~parts ~smoke spec =
  let ops = new_ops () in
  let inputs = generate spec ~seed in
  mkdir_p work_dir;
  let scenario_file =
    Filename.concat work_dir (Printf.sprintf "%s-%d.scn" spec.workload seed)
  in
  write_file scenario_file inputs.scenario_text;
  let sock =
    Filename.concat work_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))
  in
  let log = Filename.concat work_dir (spec.workload ^ "-daemon.log") in
  let r = new_replies inputs in
  let on_frame payload = on_reply inputs r ~now:(now_s ()) payload in
  let daemons = ref [] and conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        !conns;
      List.iter kill !daemons;
      try Unix.unlink sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* The host is probed while the daemon idles, between segments. *)
  let host = start_host ~smoke in
  (* set-up: spawn → [ok] to [hello], scenario parse and dense compile
     included; the last daemon serves the load *)
  let start () =
    r.hello_ok <- false;
    let t0 = now_s () in
    let d = spawn ~server ~scenario_file ~sock ~log in
    daemons := d :: !daemons;
    let c = connect d ~sock in
    conns := c :: !conns;
    enqueue c hello;
    pump_until c ~on_frame ~limit:60. ~what:"awaiting ok" (fun () -> r.hello_ok);
    (d, c, now_s () -. t0)
  in
  (* Every daemon but the last is killed once it has answered: a [bye]
     would add the daemon's exit path to the run (~0.35 s a daemon at
     500×2000). The last daemon's [finish] checks that path. *)
  let reps, setup =
    segment host (fun () ->
        Array.init setup_reps (fun i ->
            let d, c, dt = start () in
            if i < setup_reps - 1 then begin
              Unix.close c.fd;
              conns := List.tl !conns;
              kill d
            end;
            dt))
  in
  let d, c = (List.hd !daemons, List.hd !conns) in
  ignore
    (segment host (fun () ->
         for k = warm to inputs.first_a - 1 do
           enqueue c inputs.batches.(k).bytes
         done;
         pump_until c ~on_frame ~limit:60. ~what:"warming up" (fun () ->
             r.settled >= inputs.first_a - warm)));
  let states = ref 0 in
  let expect_states lo hi =
    for k = lo to hi - 1 do
      if inputs.batches.(k).snapshot then incr states
    done
  in
  (* phase A: open loop at [spec.rate], restarted in each segment *)
  let late = ref 0. in
  let phase_a =
    List.map
      (fun (lo, hi) ->
        expect_states lo hi;
        let due, t =
          segment host (fun () ->
              let t0 = now_s () in
              let due k = t0 +. (float_of_int (k - lo) /. spec.rate) in
              let next = ref lo in
              pump_until c ~on_frame
                ~limit:(120. +. (float_of_int (hi - lo) /. spec.rate))
                ~what:"in phase A"
                ~timeout:(fun () ->
                  if !next < hi then Float.max 0. (due !next -. now_s ())
                  else 0.05)
                (fun () ->
                  let now = now_s () in
                  while !next < hi && due !next <= now do
                    enqueue c inputs.batches.(!next).bytes;
                    late := Float.max !late (now -. due !next);
                    incr next
                  done;
                  r.settled >= hi - warm && r.states >= !states);
              due)
        in
        List.init (hi - lo) (fun i ->
            { t with wall = 1e3 *. (r.arrived.(lo + i) -. due (lo + i)) }))
      (ranges ~first:inputs.first_a ~count:spec.n_a ~parts)
  in
  (* phase B: saturation, one burst per segment *)
  let phase_b =
    List.map
      (fun (lo, hi) ->
        snd
          (segment host (fun () ->
               let next = ref lo in
               pump_until c ~on_frame ~limit:150. ~what:"in phase B" (fun () ->
                   while !next < hi && pending c < 65536 do
                     enqueue c inputs.batches.(!next).bytes;
                     incr next
                   done;
                   r.settled >= hi - warm))))
      (ranges ~first:inputs.first_b ~count:spec.n_b ~parts)
  in
  let events_b = ref 0 in
  for k = inputs.first_b to inputs.last do
    events_b := !events_b + inputs.batches.(k).events
  done;
  enqueue c (frame P.Snapshot);
  incr states;
  pump_until c ~on_frame ~limit:60. ~what:"awaiting the final snapshot"
    (fun () -> r.states >= !states);
  let peak = vm_hwm_mb (string_of_int d.pid) in
  check ops (finish d c ~on_frame) "daemon did not exit 0";
  check_replies ops inputs r ~states:!states;
  let local, replay_s = time (fun () -> replay inputs ~text:inputs.scenario_text) in
  check ops
    (String.equal local.digest r.digest)
    "daemon state digest differs from the in-process Server";
  let latencies = List.concat phase_a in
  let q p = quantile p (Array.of_list (List.map (fun t -> t.wall) latencies)) in
  let wall_b = List.fold_left (fun a t -> a +. t.wall) 0. phase_b in
  let metrics, detail =
    e2e_metrics host
      ~setup:{ setup with wall = median reps }
      ~work:phase_b ~latencies_ms:latencies ~peak_mem_mb:peak
  in
  {
    workload = spec.workload;
    seed;
    ops;
    metrics =
      metrics
      @ [
          m Diag "serve.sat_eps" "1/s" (ratio (float_of_int !events_b) wall_b);
          m Diag "serve.p99_ms" "ms" (q 0.99);
          m Diag "serve.p999_ms" "ms" (q 0.999);
          m Diag "serve.gen_late_ms" "ms" (1e3 *. !late);
          m Diag "serve.samples" "count" (float_of_int spec.n_a);
          m Diag "serve.deltas_per_batch" "count"
            (ratio (float_of_int r.deltas) (float_of_int (inputs.last - warm + 1)));
          m Diag "serve.offered_rate" "1/s" spec.rate;
          m Diag "serve.dark_ap_share" "ratio" inputs.dark_share;
          m Diag "serve.inprocess_replay_s" "s" replay_s;
        ];
    extra =
      [
        ("phase_a_batches", Int spec.n_a);
        ("phase_b_batches", Int spec.n_b);
        ("events_per_batch", Int spec.events_per_batch);
        ("timed_events", Obj (List.map (fun (k, n) -> (k, Int n)) inputs.kinds));
      ]
      @ detail;
  }

(* ------------------------------------------------------------------ *)
(* Traced run: the same bytes through the in-process replay            *)
(* ------------------------------------------------------------------ *)

let pipeline inputs ops () =
  let r = new_replies inputs in
  let x =
    replay ~on_payload:(on_reply inputs r ~now:0.) inputs
      ~text:inputs.scenario_text
  in
  check_replies ops inputs r ~states:(snapshots inputs);
  check ops (String.equal x.digest r.digest)
    "final snapshot digest differs from the live state";
  let per c scale = ratio (scale *. c.s) (float_of_int c.n) in
  [
    m Layer "serve.log_bytes_per_event" "B"
      (ratio (float_of_int x.log_bytes) (float_of_int x.events));
    m Layer "online.settle_us" "us" (1e6 *. median (Array.of_list x.settles));
    m Layer "proto.decode_us_per_frame" "us" (per x.decode 1e6);
    m Layer "proto.encode_us_per_frame" "us" (per x.encode 1e6);
    m Layer "server.event_us" "us" (per x.event 1e6);
    m Layer "server.snapshot_ms" "ms" (per x.snapshot 1e3);
  ]
