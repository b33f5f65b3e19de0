(** The churn engine: replay a declarative {!Wlan_model.Churn_script}
    against a live network and measure the disruption.

    The script's steps (same-timestamp event groups) run in order. Each
    step's deltas go through {!Mcast_core.Distributed.Online.apply}
    atomically, then the network settles to quiescence once, recording
    a {!step} of disruption metrics — users re-associated, sessions
    forcibly interrupted, rounds to quiescence, and (optionally) the
    load overshoot against a fresh static solve of the instance the
    network now embodies.

    Determinism: the engine draws no randomness and iterates everything
    in ascending index order, so a run is a pure function of
    (problem, script, objective, mode, init). *)

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

type step = {
  time : float;
  events : int;
  reassociated : int;
  interrupted : int;
  rounds : int;
  moves : int;
  converged : bool;
  oscillated : bool;
  total_load : float;
  max_load : float;
  opt_total_load : float;
  opt_max_load : float;
}

let total_overshoot s = s.total_load -. s.opt_total_load
let peak_overshoot s = s.max_load -. s.opt_max_load

type outcome = {
  steps : step list;
  assoc : Association.t;
  loads : float array;
  effective : Problem.t;
  trace : Trace.t;
  total_rounds : int;
  total_moves : int;
  total_reassociated : int;
  total_interrupted : int;
  oscillated : bool;
}

let run ?init ?(mode = `Sequential) ?(max_rounds = 200)
    ?(baseline = true) ?tiers ~objective ~script p =
  Wlan_obs.Counters.incr c_runs;
  let n_aps, n_users = Problem.dims p in
  let script = Churn_script.validate ~n_aps ~n_users script in
  (* default to the ladder the instance actually uses — the same
     derivation the serve daemon's config uses — rather than hard-wiring
     802.11a, which silently mis-stepped drift on 802.11b or
     power-scaled instances *)
  let tiers =
    Churn_script.ladder ~who:"Churn.run"
      (match tiers with
      | Some ts -> List.sort (fun a b -> Float.compare b a) ts
      | None -> Problem.distinct_rates p)
  in
  let trace = Trace.create () in
  let net = Distributed.Online.create ?init ~objective p in
  let steps_acc = ref [] in
  (* Settle once and record the disruption metrics of this quiescence. *)
  let settle_step ~time ~events ~interrupted =
    Wlan_obs.Counters.incr c_steps;
    Wlan_obs.Counters.add c_events events;
    Wlan_obs.Counters.add c_interrupted interrupted;
    let s = Distributed.Online.settle ~max_rounds ~mode net in
    Trace.log trace ~time
      (Trace.Settle
         {
           rounds = s.rounds;
           moves = s.moves;
           reassociated = s.reassociated;
           oscillated = s.oscillated;
         });
    let opt_total_load, opt_max_load =
      if not baseline then (Float.nan, Float.nan)
      else begin
        Wlan_obs.Counters.incr c_baseline_solves;
        Distributed.baseline ~max_rounds ~objective
          (Distributed.Online.effective_problem net)
      end
    in
    steps_acc :=
      {
        time;
        events;
        reassociated = s.reassociated;
        interrupted;
        rounds = s.rounds;
        moves = s.moves;
        converged = s.converged;
        oscillated = s.oscillated;
        total_load = s.total_load;
        max_load = s.max_load;
        opt_total_load;
        opt_max_load;
      }
      :: !steps_acc
  in
  (* One delta through the applier; trace what it did and return the
     sessions it forcibly interrupted. *)
  let apply ~time delta =
    let applied = Distributed.Online.apply net ~tiers delta in
    (match applied with
    | Arrived { user } -> Trace.log trace ~time (Trace.Arrive { user })
    | Departed { user; ap } -> Trace.log trace ~time (Trace.Depart { user; ap })
    | Failed { ap; detached } ->
        Trace.log trace ~time
          (Trace.Ap_down { ap; detached = List.length detached })
    | Recovered { ap } -> Trace.log trace ~time (Trace.Ap_up { ap })
    | Drifted { user; steps; _ } ->
        Trace.log trace ~time (Trace.Rate_drift { user; steps })
    | Unchanged | Rate_set _ -> ());
    Distributed.Online.interrupted applied
  in
  (* The network converges once before any churn: the static solve. *)
  settle_step ~time:0. ~events:0 ~interrupted:0;
  (* [validate] checked the time order, so the steps are chronological *)
  List.iter
    (fun (time, events) ->
      let interrupted =
        List.fold_left
          (fun acc delta -> acc + apply ~time delta)
          0
          (List.concat_map Distributed.Online.deltas_of_event events)
      in
      settle_step ~time ~events:(List.length events) ~interrupted)
    (Churn_script.steps script);
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
