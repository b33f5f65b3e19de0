(** Distributed association control (§4.2, §5.2, §6.2): users query their
    neighbor APs and re-associate greedily.

    - [Min_total_load] (MNU and MLA): join the feasible neighbor that
      minimizes the neighborhood's total load.
    - [Min_load_vector] (BLA): minimize the neighborhood's non-increasing
      load vector, compared lexicographically (footnote 5).

    Schedulers: [Sequential] decisions always converge (Lemmas 1–2);
    [Simultaneous] decisions can oscillate (Fig. 4) — revisited states are
    detected and reported; [Locked] implements the paper's §8 future-work
    fix (lock the neighborhood APs before deciding), restoring convergence
    under concurrency. *)

open Wlan_model

type objective = Min_total_load | Min_load_vector
type scheduler = Sequential | Simultaneous | Locked

type outcome = {
  assoc : Association.t;
  rounds : int;  (** decision rounds executed *)
  moves : int;  (** (re)associations applied *)
  converged : bool;  (** the last round made no move *)
  oscillated : bool;  (** a previously seen state recurred (Simultaneous) *)
}

(** The local rule on one neighborhood, given as planes over its [d]
    slots: [aps.(k)] the neighbor APs in ascending order, [signals.(k)]
    their signals, [budgets.(k)] their budgets, [joins.(k)] each AP's
    load if the user joins it (at the serving AP, its live load), and
    [base] the no-move plane — the serving AP at its load without the
    user, every other AP at its live load. [serving] is the serving
    AP's slot, [-1] for an unserved user.

    Returns [Some ap] to (re)associate, [None] to stay. A neighbor is a
    candidate when it is the serving AP or its join load fits its
    budget (within [1e-12]). Among candidates the smaller objective
    wins — the neighborhood's total load, or its non-increasing load
    vector compared lexicographically. Ties (within the decision eps of
    {!Loads.compare_load_prefixes_eps}) go to a signal stronger by more
    than [1e-12], else to the lower slot. An unserved user joins the
    best candidate outright; a served user moves only on a strict
    improvement over staying. {!run} and {!Online} apply this rule to
    planes filled from the live loads; the simulator's message-level
    protocol fills them from query answers.
    @raise Invalid_argument when the planes differ in length or
    [serving] is not a slot or [-1]. *)
val choose :
  objective:objective ->
  serving:int ->
  aps:int array ->
  joins:float array ->
  base:float array ->
  budgets:float array ->
  signals:float array ->
  int option

(** Run rounds of local decisions from [init] (default: all unserved)
    until a fixpoint, oscillation, or [max_rounds] (default 200): an
    all-dirty {!Online} network on [p] itself, drained once. A round
    re-decides only the users some move touched (the rest would stay),
    by {!choose}'s rule in preallocated arena scratch planes. *)
val run :
  ?init:Association.t ->
  ?max_rounds:int ->
  scheduler:scheduler ->
  objective:objective ->
  Problem.t ->
  outcome

(** {1 Online re-association under churn}

    A running network that absorbs membership and topology deltas and
    re-converges incrementally: each delta marks only the users whose
    decision inputs it touched (an AP's in-range members), and
    {!Online.settle} re-runs the local rule for exactly those users. Its
    drain is {!run}'s: a settle from an all-dirty start executes the
    identical move sequence, in the same rounds and with identical
    floats, as {!run} with the same scheduler on
    {!Online.effective_problem}; at quiescence the association is a Nash
    point of the rule on the final static topology. All operations are
    deterministic (ascending index order, no randomness). *)
module Online : sig
  type t

  (** [create ~objective p] copies [p]'s rate plane (drift mutates the
      copy, never the caller's instance) and starts with every AP alive
      and — unless [present] says otherwise — every user present and
      dirty. [init] seeds the association (absent users are forced
      unserved). Raises [Invalid_argument] if [init] serves a user over
      a zero-rate link. *)
  val create :
    ?init:Association.t ->
    ?present:bool array ->
    objective:objective ->
    Problem.t ->
    t

  (** The live association — shared, not a copy. *)
  val assoc : t -> Association.t

  (** The live per-AP loads (the tracker's array, read-only). *)
  val loads : t -> float array

  val total_load : t -> float
  val max_load : t -> float
  val is_present : t -> int -> bool
  val ap_alive : t -> int -> bool

  (** Users currently marked for re-decision. *)
  val dirty_count : t -> int

  (** The live link rate — reads the working copy that rate deltas
      mutate, not the instance [create] was given. *)
  val link_rate : t -> ap:int -> user:int -> float

  (** {2 The batch applier}

      The one path from a churn event to the network, shared by the
      churn engine and the serve daemon: expand the event into deltas,
      {!apply} each, sum their {!interrupted} sessions, then {!settle}
      the batch once. *)

  type delta =
    | Arrive of { user : int }  (** an absent user enters, unserved *)
    | Depart of { user : int }  (** a present user leaves *)
    | Ap_fail of { ap : int }
        (** the AP goes dark; its members are detached *)
    | Ap_recover of { ap : int }  (** the AP comes back empty *)
    | Set_rate of { user : int; ap : int; rate : float }
        (** a new link rate; negative clamps to [0.] (out of range) *)
    | Drift of { user : int; steps : int }
        (** every in-range link of [user] moves [steps] positions along
            the ladder ({!Churn_script.drifted_rate}), ascending AP *)

  (** The deltas of one script event, in application order: a [Burst]
      is one [Arrive] per user. *)
  val deltas_of_event : Churn_script.event -> delta list

  (** What one delta did: [Unchanged] for a no-op (arriving twice,
      failing a dead AP, a rate already in place). *)
  type applied =
    | Unchanged
    | Arrived of { user : int }
    | Departed of { user : int; ap : int }
        (** [ap] served it, [Association.none] if unserved *)
    | Failed of { ap : int; detached : int list }
        (** the members detached, ascending *)
    | Recovered of { ap : int }
    | Rate_set of { lost : bool }  (** [lost]: the serving link went to 0 *)
    | Drifted of { user : int; steps : int; lost : int }
        (** [lost] serving links went to 0 *)

  (** [apply t ~tiers d] applies [d], marking the users whose options it
      changed; [tiers] is the {!Churn_script.ladder} a [Drift] moves
      along.
      @raise Invalid_argument when a [Set_rate] rate is nan, or positive
      on a pair never in range (the link structure cannot grow). *)
  val apply : t -> tiers:float array -> delta -> applied

  (** Sessions a delta forcibly cut: members detached by an AP failure
      plus serving links lost to a rate change or drift. *)
  val interrupted : applied -> int

  (** {2 Re-convergence} *)

  type settle_stats = {
    rounds : int;  (** scan rounds that evaluated at least one user *)
    moves : int;  (** (re)associations applied *)
    reassociated : int;  (** distinct users whose serving AP changed *)
    changed : (int * int * int) list;
        (** the settle's net association deltas, ascending user:
            [(user, old_ap, new_ap)] with [Association.none] = unserved —
            what a serving layer broadcasts to clients.
            [reassociated = List.length changed] *)
    converged : bool;
    oscillated : bool;  (** a seen state recurred ([`Simultaneous] only) *)
    total_load : float;  (** network load at the end of the settle *)
    max_load : float;  (** peak AP load at the end of the settle *)
  }

  (** Drain the dirty set (default [`Sequential], [max_rounds] 200);
      [converged] when it is empty at the end, the last allowed round
      included. [`Sequential] applies moves immediately and always
      converges on a static network; [`Simultaneous] decides each round
      on one snapshot and may oscillate (Fig. 4) — detected and
      reported. Quiescent states return with [rounds = 0]. *)
  val settle :
    ?max_rounds:int ->
    ?mode:[ `Sequential | `Simultaneous ] ->
    t ->
    settle_stats

  (** The static instance the network currently embodies (dead-AP rows
      and absent-user columns zeroed): ground truth for the quiescence
      oracle and the fresh-optimum disruption baselines. *)
  val effective_problem : t -> Problem.t
end

(** [baseline ~max_rounds ~objective p] is the total and peak load of a
    fresh sequential {!run} on [p] from the empty association: the
    static solve a churned network's {!Online.effective_problem} is
    compared with. *)
val baseline :
  max_rounds:int -> objective:objective -> Problem.t -> float * float

(** {1 The paper's three distributed algorithms} (default scheduler:
    [Sequential]). MLA shares MNU's rule (§6.2). *)

val mnu :
  ?init:Association.t ->
  ?max_rounds:int ->
  ?scheduler:scheduler ->
  Problem.t ->
  Solution.t * outcome

val mla :
  ?init:Association.t ->
  ?max_rounds:int ->
  ?scheduler:scheduler ->
  Problem.t ->
  Solution.t * outcome

val bla :
  ?init:Association.t ->
  ?max_rounds:int ->
  ?scheduler:scheduler ->
  Problem.t ->
  Solution.t * outcome
