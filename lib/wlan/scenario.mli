(** Geometric WLAN deployments: AP/user positions, per-user session
    choice, stream rates, the link-rate model and the per-AP multicast
    budget. {!to_problem} compiles a scenario into the abstract
    {!Problem} instance the algorithms consume. *)

type t = {
  area_w : float;  (** deployment area width (m) *)
  area_h : float;  (** deployment area height (m) *)
  ap_pos : Point.t array;
  user_pos : Point.t array;
  user_session : int array;
  sessions : Session.t array;
  rate_table : Rate_table.t;
      (** the Table 1 ladder; for a {!Rate_model.Table} model this IS
          the model's table ([make] keeps them coherent) *)
  model : Rate_model.t;
  budget : float;
}

val n_aps : t -> int
val n_users : t -> int

(** [model] defaults to [Rate_model.Table rate_table] — the paper's
    compile path. Passing [~model:(Table tbl)] overrides [rate_table]
    with [tbl] so the two fields never diverge; a [Path_loss] model
    leaves [rate_table] as given (the simulator's MAC timing still
    consumes it).
    @raise Invalid_argument on user/session arity or index errors, a
    non-finite AP or user coordinate, or an ill-formed model. *)
val make :
  area_w:float ->
  area_h:float ->
  ap_pos:Point.t array ->
  user_pos:Point.t array ->
  user_session:int array ->
  sessions:Session.t array ->
  ?rate_table:Rate_table.t ->
  ?model:Rate_model.t ->
  budget:float ->
  unit ->
  t

(** The model's radio range ({!Rate_model.max_range}): the radius beyond
    which no link exists. *)
val range : t -> float

(** AP-major distance matrix (meters). *)
val distances : t -> float array array

(** Compile into the abstract problem through the model's
    {!Rate_model.link} predicate; for the default [Table] model this
    installs [-. distance] as the signal metric (nearest AP =
    strongest), for [Path_loss] models the received power in dBm. A
    spatial bucket grid over the AP positions (cell = the model's
    [max_range]) finds each user's candidates, so no (AP × user) matrix
    is ever allocated: O(APs + users · candidates). The grid has no
    false negatives, which [test/test_sparse.ml] pins against a
    brute-force all-pairs compile for every model family. The instance
    allows uncovered users (random placement can strand one);
    {!uncovered_users} reports them. *)
val to_problem : t -> Problem.t

(** Alias of {!to_problem}. *)
val to_problem_sparse : t -> Problem.t

(** Users no AP can serve, by the same link predicate the compile
    uses — so this agrees exactly with the compiled problem's empty
    candidate sets. *)
(* lint: allow export-reachability — checker the compile tests assert coverage with *)
val uncovered_users : t -> int list

val pp : Format.formatter -> t -> unit
