(** Declarative churn & fault-injection scripts (pure data).

    A script is a time-ordered list of network dynamics — arrivals,
    departures, AP failures/recoveries, rate drift, burst arrivals — that
    the simulator's churn engine replays step by step. Events at
    the same timestamp form one {e step} applied atomically before the
    online layer re-converges; within a step, events apply in script
    order. *)

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
      (** simultaneous arrivals: one [Join] per user within the step *)

type timed = { time : float; event : event }

(** Events in nondecreasing time order (the constructors guarantee it). *)
type t = { events : timed list }

(** [make events] sorts stably by time (script order is preserved among
    same-time events, which is also their application order).
    @raise Invalid_argument on negative or non-finite times. *)
val make : timed list -> t

(** [validate ~n_aps ~n_users t] checks every index against the topology
    dimensions and the time order, and returns [t].
    @raise Invalid_argument on out-of-range users or APs, or on events
    out of time order (a list that bypassed {!make}). *)
val validate : n_aps:int -> n_users:int -> t -> t

val events : t -> timed list
val length : t -> int

(** Last event time, [0.] for an empty script. *)
val duration : t -> float

(** Events grouped by exactly equal timestamps, chronological, script
    order within a step — the unit the engine applies atomically.
    Linear: it groups contiguous equal-time runs, so [t]'s events must be
    in time order, as {!make} builds them and {!validate} checks. *)
val steps : t -> (float * event list) list

(** [ladder ~who tiers] is [tiers] as the array {!drifted_rate} reads.
    @raise Invalid_argument, its message prefixed by [who], unless every
    tier is finite and positive and the list is sorted descending. *)
val ladder : who:string -> float list -> float array

(** [drifted_rate ~tiers rate steps] shifts [rate] by [steps] positions
    on the tier ladder ([tiers], a {!ladder}): [rate] snaps to the
    nearest tier (ties toward the faster one), [steps > 0] moves toward
    faster tiers (clamped at the top), and falling off the bottom loses
    the link (rate [0.]). Zero and negative rates pass through. This is
    the one semantics of a {!Drift} event, shared by the churn engine
    and the serve daemon. *)
val drifted_rate : tiers:float array -> float -> int -> float

(** {1 Random scripts} *)

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

val default_gen : gen_config

(** [random ~rng ~n_aps ~n_users cfg] draws [cfg.n_events] weighted
    events from [rng] (PR-1 split discipline: give each run its own
    state). Drift steps are uniform over [-2, -1, +1, +2], an unbiased
    walk. Generated scripts may contain no-op events — the engine
    treats them as such, so every script is replayable. *)
val random :
  rng:Random.State.t -> n_aps:int -> n_users:int -> gen_config -> t
