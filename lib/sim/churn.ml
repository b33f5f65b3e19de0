(** The churn engine: replay a declarative {!Wlan_model.Churn_script}
    against a live network and measure the disruption.

    The script's steps (same-timestamp event groups) are compiled into
    the discrete-event {!Engine}; each step fires as one closure that
    applies every delta atomically through {!Mcast_core.Distributed.Online}
    and then settles to quiescence once, recording a {!step} of
    disruption metrics — users re-associated, sessions forcibly
    interrupted, rounds to quiescence, and (optionally) the load
    overshoot against a fresh static solve of the instance the network
    now embodies.

    Determinism: the engine draws no randomness and iterates everything
    in ascending index order, so a run is a pure function of
    (problem, script, objective, mode, init). The event queue breaks
    timestamp ties FIFO, and a script step is a single event, so even
    same-time steps keep script order. *)

open Wlan_model
open Mcast_core

let src = Logs.Src.create "sim.churn" ~doc:"Churn replay"

module Log = (val Logs.src_log src : Logs.LOG)

(* Deterministic event counters (DESIGN.md §4.9): a replay is a pure
   function of (problem, script, objective, mode, init), so so are these. *)
let c_runs = Wlan_obs.Counters.make "churn.runs"
let c_steps = Wlan_obs.Counters.make "churn.steps"
let c_events = Wlan_obs.Counters.make "churn.events"
let c_interrupted = Wlan_obs.Counters.make "churn.interrupted"
let c_baseline_solves = Wlan_obs.Counters.make "churn.baseline_solves"

(** Disruption record of one quiescence: the initial convergence
    ([events = 0]) or one script step. *)
type step = {
  time : float;
  events : int;  (** script events applied in this step *)
  reassociated : int;  (** users whose serving AP changed while settling *)
  interrupted : int;
      (** sessions forcibly cut by this step's deltas: members detached
          by AP failures plus serving links lost to rate drift *)
  rounds : int;  (** decision rounds to quiescence *)
  moves : int;
  converged : bool;
  oscillated : bool;
  total_load : float;  (** network load at quiescence *)
  max_load : float;  (** peak AP load at quiescence *)
  opt_total_load : float;
      (** total load of a fresh sequential solve of the effective static
          instance; [nan] when the baseline is disabled *)
  opt_max_load : float;  (** peak load of the fresh solve; [nan] if off *)
}

(** Overshoot of the online state against the fresh static solve — can
    be negative when churn history happens to find a better point than
    the greedy static rule. [nan] when the baseline was disabled. *)
let total_overshoot s = s.total_load -. s.opt_total_load

let peak_overshoot s = s.max_load -. s.opt_max_load

type outcome = {
  steps : step list;  (** chronological; head is the initial convergence *)
  assoc : Association.t;  (** final association (a copy) *)
  loads : float array;
      (** final per-AP loads as the incremental tracker cached them — the
          quiescence oracle pins these bit-for-bit to a fresh recompute *)
  effective : Problem.t;  (** final effective static instance *)
  trace : Trace.t;
  total_rounds : int;
  total_moves : int;
  total_reassociated : int;
  total_interrupted : int;
  oscillated : bool;  (** any settle oscillated *)
}

let run ?init ?(mode = `Sequential) ?(max_rounds = 200) ?trace
    ?(baseline = true) ?tiers ~objective ~script p =
  Wlan_obs.Counters.incr c_runs;
  let n_aps, n_users = Problem.dims p in
  let script = Churn_script.validate ~n_aps ~n_users script in
  let tiers =
    match tiers with
    | Some ts ->
        List.iter
          (fun r ->
            if not (Float.is_finite r) || r <= 0. then
              invalid_arg
                (Fmt.str "Churn.run: rate tier %g (tiers must be finite and \
                          positive)" r))
          ts;
        List.sort (fun a b -> Float.compare b a) ts
    (* default to the ladder the instance actually uses — the same
       derivation the serve daemon's config uses — rather than
       hard-wiring 802.11a, which silently mis-stepped drift on
       802.11b or power-scaled instances *)
    | None -> Problem.distinct_rates p
  in
  let trace = match trace with Some t -> t | None -> Trace.create () in
  let net = Distributed.Online.create ?init ~objective p in
  let eng = Engine.create () in
  let steps_acc = ref [] in
  (* Settle once and record the disruption metrics of this quiescence. *)
  let settle_step ~time ~events ~interrupted =
    Wlan_obs.Counters.incr c_steps;
    Wlan_obs.Counters.add c_events events;
    Wlan_obs.Counters.add c_interrupted interrupted;
    let stats = Distributed.Online.settle ~max_rounds ~mode net in
    Trace.log trace ~time
      (Trace.Settle
         {
           rounds = stats.Distributed.Online.rounds;
           moves = stats.moves;
           reassociated = stats.reassociated;
           oscillated = stats.oscillated;
         });
    let opt_total, opt_max =
      if not baseline then (Float.nan, Float.nan)
      else begin
        Wlan_obs.Counters.incr c_baseline_solves;
        let eff = Distributed.Online.effective_problem net in
        let o =
          Distributed.run ~max_rounds ~scheduler:Distributed.Sequential
            ~objective eff
        in
        (Loads.total_load eff o.Distributed.assoc,
         Loads.max_load eff o.Distributed.assoc)
      end
    in
    steps_acc :=
      {
        time;
        events;
        reassociated = stats.Distributed.Online.reassociated;
        interrupted;
        rounds = stats.rounds;
        moves = stats.moves;
        converged = stats.converged;
        oscillated = stats.oscillated;
        total_load = Distributed.Online.total_load net;
        max_load = Distributed.Online.max_load net;
        opt_total_load = opt_total;
        opt_max_load = opt_max;
      }
      :: !steps_acc
  in
  (* One delta: apply through the online layer, trace what happened,
     return the number of sessions it forcibly interrupted. *)
  let apply_event ~time event =
    let join u =
      if Distributed.Online.arrive net ~user:u then
        Trace.log trace ~time (Trace.Arrive { user = u })
    in
    match event with
    | Churn_script.Join { user } ->
        join user;
        0
    | Churn_script.Burst { users } ->
        List.iter join users;
        0
    | Churn_script.Leave { user } -> (
        match Distributed.Online.depart net ~user with
        | `Absent -> 0
        | `Unserved ->
            Trace.log trace ~time
              (Trace.Depart { user; ap = Association.none });
            0
        | `Served ap ->
            Trace.log trace ~time (Trace.Depart { user; ap });
            0)
    | Churn_script.Ap_fail { ap } -> (
        match Distributed.Online.fail_ap net ~ap with
        | `Dead -> 0
        | `Failed detached ->
            let n = List.length detached in
            Trace.log trace ~time (Trace.Ap_down { ap; detached = n });
            n)
    | Churn_script.Ap_recover { ap } ->
        if Distributed.Online.recover_ap net ~ap then
          Trace.log trace ~time (Trace.Ap_up { ap });
        0
    | Churn_script.Drift { user; steps } -> (
        match Distributed.Online.drift net ~user ~tiers ~steps with
        | `Unchanged -> 0
        | `Drifted cut ->
            Trace.log trace ~time (Trace.Rate_drift { user; steps });
            cut)
  in
  (* The network converges once before any churn: the static solve. *)
  settle_step ~time:0. ~events:0 ~interrupted:0;
  List.iter
    (fun (time, events) ->
      Engine.schedule eng ~at:time (fun () ->
          let interrupted =
            List.fold_left (fun acc e -> acc + apply_event ~time e) 0 events
          in
          settle_step ~time ~events:(List.length events) ~interrupted))
    (Churn_script.steps script);
  let (_ : float) = Engine.run eng in
  let steps = List.rev !steps_acc in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 steps in
  let outcome =
    {
      steps;
      assoc = Association.copy (Distributed.Online.assoc net);
      loads = Array.copy (Distributed.Online.loads net);
      effective = Distributed.Online.effective_problem net;
      trace;
      total_rounds = sum (fun s -> s.rounds);
      total_moves = sum (fun s -> s.moves);
      total_reassociated = sum (fun s -> s.reassociated);
      total_interrupted = sum (fun s -> s.interrupted);
      oscillated = List.exists (fun (s : step) -> s.oscillated) steps;
    }
  in
  Log.debug (fun m ->
      m "churn: %d steps, %d rounds, %d moves, %d interrupted, oscillated %b"
        (List.length outcome.steps) outcome.total_rounds outcome.total_moves
        outcome.total_interrupted outcome.oscillated);
  outcome
