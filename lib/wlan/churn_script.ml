(** Declarative churn & fault-injection scripts.

    A script is a time-ordered list of network dynamics — users arriving
    and departing, APs failing and recovering, link quality drifting
    between 802.11a rate tiers, and burst arrivals — that the simulator's
    churn engine ([Wlan_sim.Churn]) replays step by step. The
    script itself is pure data: it names {e what} happens and {e when},
    never how the online association layer reacts, so the same script can
    be replayed against every algorithm variant and the outputs diffed.

    Events at the same timestamp form one {e step}: the engine applies
    all their deltas atomically and re-converges once, which is how
    Fig. 4-style simultaneous moves are scripted. Within a step, events
    apply in script order. *)

type event =
  | Join of { user : int }  (** an absent user arrives (no-op if present) *)
  | Leave of { user : int }  (** a present user departs (no-op if absent) *)
  | Ap_fail of { ap : int }
      (** the AP goes dark: members are detached, it answers no queries *)
  | Ap_recover of { ap : int }  (** the AP comes back with no members *)
  | Drift of { user : int; steps : int }
      (** every link of [user] shifts [steps] rate tiers ([> 0] = faster);
          a link pushed below the lowest tier is lost (rate 0) *)
  | Burst of { users : int list }
      (** simultaneous arrivals, equivalent to one [Join] per user within
          the same step *)

type timed = { time : float; event : event }

(** Events in nondecreasing time order (the constructors guarantee it). *)
type t = { events : timed list }

let events t = t.events
let length t = List.length t.events

(* A tier ladder as [drifted_rate] reads it, built once per replay or
   session. Shared by the churn engine and the serve daemon, so both
   refuse the same ladders. *)
let ladder ~who tiers =
  let arr = Array.of_list tiers in
  Array.iteri
    (fun i r ->
      if not (Float.is_finite r) || r <= 0. then
        Fmt.kstr invalid_arg
          "%s: rate tier %g (tiers must be finite and positive)" who r;
      if i > 0 && not (arr.(i - 1) >= r) then
        Fmt.kstr invalid_arg "%s: tiers must be sorted descending" who)
    arr;
  arr

(* Map a live rate to its position on the tier ladder (descending): the
   nearest tier, ties toward the faster one — scenario-built instances
   sit exactly on a tier, hand-written ones snap to the closest. Shared
   by the churn engine and the serve daemon so a [Drift] event means the
   same thing in both. *)
let drifted_rate ~tiers rate steps =
  let n = Array.length tiers in
  if n = 0 || rate <= 0. then rate
  else begin
    let best = ref 0 in
    for i = 1 to n - 1 do
      if Float.abs (tiers.(i) -. rate) < Float.abs (tiers.(!best) -. rate)
      then best := i
    done;
    (* steps > 0 = faster = smaller index; clamp at the top tier, fall
       off the bottom to 0 (link lost). Compared, never subtracted:
       [!best - steps] wraps around for steps near [min_int]. *)
    if steps > !best then tiers.(0)
    else if steps <= !best - n then 0.
    else tiers.(!best - steps)
  end

(** [make events] sorts stably by time (script order is preserved among
    same-time events, which is also their application order).
    @raise Invalid_argument on negative or non-finite times. *)
let make events =
  List.iter
    (fun { time; _ } ->
      if not (Float.is_finite time) || time < 0. then
        Fmt.kstr invalid_arg "Churn_script.make: bad event time %g" time)
    events;
  { events = List.stable_sort (fun a b -> Float.compare a.time b.time) events }

(** [validate ~n_aps ~n_users t] checks every index against the topology
    dimensions and the time order. @raise Invalid_argument on
    out-of-range users or APs or out-of-order events. *)
let validate ~n_aps ~n_users t =
  let fail fmt = Fmt.kstr invalid_arg ("Churn_script.validate: " ^^ fmt) in
  let user u = if u < 0 || u >= n_users then fail "unknown user %d" u in
  let ap a = if a < 0 || a >= n_aps then fail "unknown AP %d" a in
  List.iter
    (fun { event; _ } ->
      match event with
      | Join { user = u } | Leave { user = u } -> user u
      | Ap_fail { ap = a } | Ap_recover { ap = a } -> ap a
      | Drift { user = u; _ } -> user u
      | Burst { users } -> List.iter user users)
    t.events;
  (* the record is concrete: a hand-built list may bypass [make]'s sort *)
  ignore
    (List.fold_left
       (fun prev { time; _ } ->
         if time < prev then fail "event at t=%g precedes t=%g" time prev;
         time)
       0. t.events);
  t

(** Last event time, [0.] for an empty script. *)
let duration t =
  List.fold_left (fun acc { time; _ } -> Float.max acc time) 0. t.events

(** Steps: events grouped by exactly equal timestamps, chronological,
    script order within a step. This is the unit the engine applies
    atomically before re-converging. One pass over contiguous equal-time
    runs: the events are in time order ({!make} sorts them, {!validate}
    refuses a list that is not), so equal times are adjacent. *)
let steps t =
  let close time group acc = (time, List.rev group) :: acc in
  let rec go acc time group = function
    | [] -> List.rev (close time group acc)
    | e :: rest when Float.equal e.time time -> go acc time (e.event :: group) rest
    | e :: rest -> go (close time group acc) e.time [ e.event ] rest
  in
  match t.events with [] -> [] | e :: rest -> go [] e.time [ e.event ] rest

(** {1 Random scripts}

    A seeded generator for fuzzing and the churn experiment driver. All
    draws come from the caller's [rng] (the PR-1 split discipline: split a
    per-run state from the master seed before dispatch, never share a
    stream across pool jobs). *)

type gen_config = {
  n_events : int;
  duration : float;  (** events drawn uniformly over [0, duration] *)
  join_weight : int;
  leave_weight : int;
  fail_weight : int;
  recover_weight : int;
  drift_weight : int;
  burst_weight : int;
  max_burst : int;  (** users per burst, >= 1 *)
}

let default_gen =
  {
    n_events = 20;
    duration = 60.;
    join_weight = 4;
    leave_weight = 4;
    fail_weight = 1;
    recover_weight = 1;
    drift_weight = 2;
    burst_weight = 1;
    max_burst = 4;
  }

(** [random ~rng ~n_aps ~n_users cfg] draws [cfg.n_events] events with the
    configured kind weights. Purely random: the script may contain no-op
    events (joining a present user, failing a dead AP) — the engine treats
    those as no-ops, so every generated script is replayable. *)
let random ~rng ~n_aps ~n_users (cfg : gen_config) =
  if n_users <= 0 then make []
  else begin
    let weights =
      [
        (cfg.join_weight, `Join);
        (cfg.leave_weight, `Leave);
        ((if n_aps > 0 then cfg.fail_weight else 0), `Fail);
        ((if n_aps > 0 then cfg.recover_weight else 0), `Recover);
        (cfg.drift_weight, `Drift);
        (cfg.burst_weight, `Burst);
      ]
      |> List.filter (fun (w, _) -> w > 0)
    in
    let total = List.fold_left (fun acc (w, _) -> acc + w) 0 weights in
    let pick_kind () =
      let x = Random.State.int rng (Int.max 1 total) in
      let rec go acc = function
        | [] -> `Join
        | (w, k) :: rest -> if x < acc + w then k else go (acc + w) rest
      in
      go 0 weights
    in
    let user () = Random.State.int rng n_users in
    let event () =
      match pick_kind () with
      | `Join -> Join { user = user () }
      | `Leave -> Leave { user = user () }
      | `Fail -> Ap_fail { ap = Random.State.int rng n_aps }
      | `Recover -> Ap_recover { ap = Random.State.int rng n_aps }
      | `Drift ->
          (* uniform over -2, -1, +1, +2: an unbiased walk *)
          let k = Random.State.int rng 4 in
          Drift { user = user (); steps = (if k < 2 then k - 2 else k - 1) }
      | `Burst ->
          let k = 1 + Random.State.int rng (Int.max 1 cfg.max_burst) in
          Burst { users = List.init k (fun _ -> user ()) }
    in
    make
      (List.init cfg.n_events (fun _ ->
           { time = Random.State.float rng cfg.duration; event = event () }))
  end
