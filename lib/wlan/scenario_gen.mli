(** Seeded random scenario generation matching the paper's setup (§7),
    with two workload generalizations for the extension studies:
    clustered user placement and Zipf-skewed session popularity (both
    default to the paper's uniform behaviour). *)

(** How users are placed in the deployment area. *)
type placement =
  | Uniform
  | Clustered of { hotspots : int; sigma_m : float }
      (** users pick one of [hotspots] uniformly-placed centers and land a
          Gaussian [sigma_m]-meter offset away (clamped to the area) *)

(** How users pick their multicast session. *)
type popularity =
  | Uniform_pop
  | Zipf of float  (** rank [k] (1-based) drawn with weight [1 / k^alpha] *)

type config = {
  area_w : float;
  area_h : float;
  n_aps : int;
  n_users : int;
  n_sessions : int;
  session_rate_mbps : float;
  budget : float;
  rate_table : Rate_table.t;
  rate_model : Rate_model.t option;
      (** link-rate model; [None] means [Rate_model.Table rate_table]
          (the paper's Table 1 compile path) *)
  ensure_coverage : bool;
      (** resample user positions until every user has an AP in range,
          by the model's link predicate *)
  max_resample : int;
  placement : placement;
  popularity : popularity;
}

(** The paper's large-scale setup: 1.2 km² area, 200 APs, 400 users,
    5 sessions at 1 Mbps, budget 0.9, uniform everything. *)
val paper_default : config

(** The paper's small-scale optimality setup (Fig. 12): 600 m side,
    30 APs. *)
val paper_small : config

(** One random scenario drawn from [rng]. *)
val generate : rng:Random.State.t -> config -> Scenario.t

(** RNG for scenario [index] of the batch keyed by [seed]: a deterministic
    split, so scenario [i] can be generated without (and concurrently
    with) the scenarios before it. *)
val scenario_rng : seed:int -> int -> Random.State.t

(** [nth_problem ~seed ~index cfg] is [List.nth (problems ~seed ~n cfg) index]
    for any [n > index], computed directly from {!scenario_rng}. *)
val nth_problem : seed:int -> index:int -> config -> Problem.t

(** [problems ~seed ~n cfg]: [n] independent problem instances from one
    master seed (the paper averages over 40 such scenarios). Instance [i]
    depends only on [(seed, i)] — see {!scenario_rng}. *)
val problems : seed:int -> n:int -> config -> Problem.t list

(** {1 City-scale scenarios} — a grid of paper-style districts separated
    by streets; the workload the sparse representation and geometric
    sharding exist for. *)

type city_config = {
  districts_x : int;
  districts_y : int;
  district : config;  (** per-district generation config *)
  gap_m : float;
      (** street width between districts; keep [> 2 ×] the rate table's
          range for district-independent sharding *)
}

(** 2000 APs × 40000 users: 5 × 4 districts of 100 APs / 2000 users
    (paper AP density), 450 m streets (> 2 × the 200 m 802.11a range). *)
val city_default : city_config

(** Deterministic city generation: district [i] (row-major) draws from
    its own split stream keyed by [(seed, i)], positions offset to the
    district's corner. APs and users are indexed in district order.
    [Scenario.to_problem] compiles it through the bucket grid; an
    (AP × user) matrix of a city would not fit. *)
val city : seed:int -> city_config -> Scenario.t
