(** An abstract association-control problem instance — the canonical input
    to every algorithm in [Mcast_core].

    The link structure is one {!Sparse.t}: per-user candidate-AP lists
    and per-AP member lists in CSR form over a shared rate plane. Every
    rule in the paper reads only these neighbourhoods, so the form
    scales from the paper's 200×400 experiments to city-size
    (2000×40000+) instances without an (AP × user) matrix. Hand-written
    instances are given as matrices to {!make}, which lowers them.

    Conventions:
    - APs and users are dense integer indices;
    - a link rate is the maximum data rate (Mbps) from AP to user; an
      absent or lost slot means out of range and reads as [0.];
    - signal ranks strength for the SSA baseline (higher is stronger;
      geometric scenarios install [-. distance]);
    - [budget] is the per-AP multicast airtime limit in [0, 1].

    The record is exposed read-only by convention: build instances with
    {!make} / {!make_sparse} (which validate), never mutate the arrays
    (churn goes through {!copy_for_mutation} + {!set_link_rate}). *)

type t = {
  n_aps : int;
  n_users : int;
  session_rates : float array;  (** session index -> stream rate (Mbps) *)
  user_session : int array;  (** user index -> session index *)
  links : Sparse.t;  (** the link structure *)
  budget : float;  (** uniform per-AP multicast airtime limit in [0, 1] *)
  ap_budgets : float array option;
      (** optional heterogeneous per-AP budgets overriding [budget] *)
  allow_uncovered : bool;
      (** accept users with an empty candidate list (geometric paths) *)
}

val dims : t -> int * int
val n_sessions : t -> int
val session_rate : t -> int -> float
val user_session : t -> int -> int

(** Link rate, [0.] when the pair was never in range or the link is
    lost. *)
val link_rate : t -> ap:int -> user:int -> float

(** Signal metric of a pair (higher = stronger). Pairs never in range
    answer [neg_infinity] (they can never win a signal comparison). *)
val signal : t -> ap:int -> user:int -> float

val in_range : t -> ap:int -> user:int -> bool
val budget : t -> float

(** The budget of one AP: its [ap_budgets] entry when heterogeneous
    budgets are installed, [budget] otherwise. *)
val ap_budget : t -> int -> float

(** [iter_candidates t u f] calls [f ap rate signal] for every AP in
    range of user [u], ascending AP order. O(candidates). *)
val iter_candidates : t -> int -> (int -> float -> float -> unit) -> unit

(** [iter_members t a f] calls [f user rate] for every user in range of
    AP [a], ascending user order. O(members). *)
(* lint: allow export-reachability — the test references build cover sets from member lists *)
val iter_members : t -> int -> (int -> float -> unit) -> unit

(** A fresh dense rate matrix equal to the link structure (always a
    copy). Allocates O(APs × users) — test/debug helper. *)
(* lint: allow export-reachability — the dense view tests compare compiled instances by *)
val rates_matrix : t -> float array array

(** Build and validate an instance written down as an (AP × user) rate
    matrix, [0.] = out of range. [signal] defaults to the rate matrix
    (highest rate = strongest signal). [allow_uncovered] defaults to
    [false]: a user no AP can reach is rejected. The matrices are checked
    (row arity, finite non-negative rates, signal arity) and lowered to
    one slot per positive-rate pair; nothing else keeps them.
    @raise Invalid_argument on malformed input. *)
val make :
  ?signal:float array array ->
  ?ap_budgets:float array ->
  ?allow_uncovered:bool ->
  session_rates:float array ->
  user_session:int array ->
  rates:float array array ->
  budget:float ->
  unit ->
  t

(** Build and validate an instance around an existing link structure
    (see {!Sparse.of_geometry} and [Scenario.to_problem]). *)
val make_sparse :
  ?ap_budgets:float array ->
  ?allow_uncovered:bool ->
  session_rates:float array ->
  user_session:int array ->
  sparse:Sparse.t ->
  budget:float ->
  unit ->
  t

(** A copy whose link rates may be mutated through {!set_link_rate}
    without affecting the original (signal and structure are shared). *)
val copy_for_mutation : t -> t

(** In-place link rate update, the churn primitive. The pair must have
    been in range at build time (absent + [0.] is a no-op).
    @raise Invalid_argument when growing a link that was never in
    range. *)
val set_link_rate : t -> ap:int -> user:int -> float -> unit

(** A copy with dead APs' and absent users' links zeroed — the effective
    instance mid-churn. Not validated (masking legitimately strands
    users). *)
val masked : t -> ap_alive:bool array -> user_present:bool array -> t

(** APs within range of a user, in ascending index order. *)
val neighbor_aps : t -> int -> int list

(** The strongest-signal AP (ties by lower index), or [None] if no AP
    covers the user. *)
val strongest_ap : t -> int -> int option

(** Users covered by at least one AP. *)
val coverable_users : t -> int list

(** Users of [session] reachable from [ap] at link rate at least
    [min_rate] (which must be positive), ascending. *)
(* lint: allow export-reachability — tests compare dense and sparse compiles through it *)
val receivers : t -> ap:int -> session:int -> min_rate:float -> int list

(** The distinct positive link rates in the instance, highest first — the
    only transmission rates an algorithm ever needs to consider. *)
val distinct_rates : t -> float list

(** Replace every positive link rate by the lowest one — stock 802.11
    broadcast behaviour (multicast always at the basic rate, §3.1). *)
val restrict_to_basic_rate : t -> t

(** Uniform budget override; clears heterogeneous budgets. *)
val with_budget : t -> float -> t

(** Install heterogeneous per-AP budgets.
    @raise Invalid_argument on arity or negative entries. *)
(* lint: allow export-reachability — builds the heterogeneous-budget test instances *)
val with_ap_budgets : t -> float array -> t
val pp : Format.formatter -> t -> unit
