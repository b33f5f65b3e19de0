(** Maximum Coverage with Group Budgets (MCG), cost version — the engine
    of the paper's Centralized MNU (Fig. 3), after Chekuri–Kumar
    (APPROX'04).

    Sets are partitioned into groups (one per AP), each with a budget.
    The greedy loop picks the most cost-effective set among groups whose
    spent budget is below their limit. In [`Soft] mode (the paper's) a
    selection may overshoot its group's budget and the H1/H2 split repairs
    feasibility, giving the 8-approximation of Theorem 2; in [`Hard] mode
    sets that do not fit the remaining budget are simply not selectable
    (no guarantee, empirically tighter). *)

type result = {
  kept : int list;
      (** the returned solution's set ids, in selection order: replayed
          in order against the universe, each covers what it newly
          covered *)
  (* the eager-rescan differentials compare the whole selection
     sequence, not only the kept half — lint: allow field-reachability *)
  raw_order : int list;  (** greedy's H before the split *)
  covered : Bitset.t;  (** covered by [kept] *)
  group_cost : float array;  (** per-group cost of [kept]; <= budgets *)
}

(** [greedy inst ~budgets ?universe ()] — [budgets.(g)] is group [g]'s
    budget ([Invalid_argument] if the length differs from the group
    count). Only elements of [universe] (default: everything coverable)
    count as coverage; [element_weights] (non-negative, default all-1)
    makes coverage a weighted sum — the revenue-weighted MNU
    generalization. Sets costing more than their group's budget are never
    picked.

    Candidates come from per-group lazy max-heaps with bound-based group
    skipping: each round, groups whose stored score bound cannot beat the
    best validated score are not re-scored. Equal scores resolve toward
    the lower set index, so the selection sequence is a pure function of
    the instance — the same one a full rescan of every set each round
    would produce, and, per interaction component, the projection of the
    unsharded run (what the sharded centralized drivers rely on).

    The heap bank and per-round candidate planes are flat SoA arrays
    (DESIGN.md §4.12). [greedy] is the first round of a fresh [`Soft]
    {!session}. *)
val greedy :
  ?element_weights:float array ->
  'a Cover_instance.t ->
  budgets:float array ->
  ?universe:Bitset.t ->
  unit ->
  result

(** {1 SCG sessions} *)

type 'a session

(** [session inst ~budgets] prepares cross-round state for the SCG
    iteration (DESIGN.md §4.12): because SCG's remaining set only
    shrinks, a set's last exactly-computed score upper-bounds its score
    in every later round, so successive {!session_round} calls seed each
    round's heap bank from the stored bound plane with {e zero} gain
    evaluations and re-score only the sets the previous round
    revalidated. [mode] defaults to [`Soft]. [arena] lets repeated
    solves reuse the heap bank and candidate planes instead of
    re-allocating; it never changes the result, and must not be shared
    across pool domains. Coverage is unweighted.
    @raise Invalid_argument on a [budgets] arity mismatch. *)
val session :
  ?mode:[ `Soft | `Hard ] ->
  ?arena:Arena.t ->
  'a Cover_instance.t ->
  budgets:float array ->
  'a session

(** One greedy round against [remaining], split and keep decision
    included — [remaining] must be a subset of every earlier round's (the
    SCG driver's shrinking uncovered set). Selections are identical to a
    fresh [greedy ~universe:remaining]. *)
(* lint: allow export-reachability — Scg_ref's reference grid drives sessions round by round *)
val session_round : 'a session -> remaining:Bitset.t -> result

(** Per-group cost of one round's kept sets, summed in selection order
    from [0.] — a {!result}'s [group_cost]. *)
val kept_group_cost : 'a Cover_instance.t -> int list -> float array

(** {1 Split for sharded drivers} *)

type split = {
  h1 : int list;  (** within-budget sets, in selection order *)
  h2 : int list;  (** overshooting sets, in selection order *)
  cov1 : Bitset.t;
  cov2 : Bitset.t;
  w1 : float;  (** weight of [cov1], as {!greedy} would score it *)
  w2 : float;
}

(** The same round as {!session_round}, returning both halves of the
    H1/H2 repair instead of the kept one. The keep decision is global — a
    sharded driver sums the halves' weights across shards and keeps the
    same half everywhere, reproducing the unsharded choice. A half keeps
    set ids only: replaying them in order against the round's remaining
    set gives each one's newly covered elements ({!result}'s [kept]). *)
val session_round_split : 'a session -> remaining:Bitset.t -> split

(** [keep_h1 splits] is the keep decision over one round's splits (one
    per shard): [w1] and [w2] each summed in sequence order from [0.],
    and H1 kept when [w1 >= w2]. {!session_round} keeps through it on
    its own split; sharded drivers pass every shard's, in shard
    order. *)
val keep_h1 : split Seq.t -> bool

(** The session's budget witness: the largest final raw spend of any
    group in any round so far and, in [`Hard] mode, the largest
    [cost + spent] of any passing fit check. If every budget equals [B],
    and [b <= B] satisfies [max (witness, max set cost) <= b - 1e-9],
    the same rounds at uniform budget [b] are identical — same raw
    orders, splits, covers and costs: no budget ever bound. The SCG grid
    drivers reuse the top probe at every such [b]. *)
val session_witness : 'a session -> float

(** {1 Prefix resumption} *)

(** What a session's first round computed: its refresh bound plane
    (scored against the round's [x0]) and its raw picks, each with the
    running witness — the largest [cost + spent(g)] over every candidate
    the sweeps had returned up to that pick, in both modes. Immutable:
    sessions on other domains may share it. *)
type 'a first_round

(** The session's first round, once it has run; [None] for a resumed
    session, which records nothing. *)
val first_round : 'a session -> 'a first_round option

(** The running witness at each raw pick, in pick order. *)
(* lint: allow export-reachability — tests check resume's prefix against it *)
val witnesses : 'a first_round -> float array

(** [resume s f] makes [s]'s first round start from [f] instead of a
    refresh: the recorded plane, filtered by [s]'s admissibility test,
    seeds the heap bank (a fresh refresh would compute exactly it), and
    the longest prefix of recorded picks whose witness is at most
    [b - 1e-9], for [b] the smallest budget of [s], is applied without a
    sweep ([mcg.resumed_picks] counts these picks; [mcg.selections]
    counts them too). The round's selections are those of a fresh
    session (DESIGN.md §4.5).
    @raise Invalid_argument if [s] has started, differs from [f]'s
    session in instance or mode, or has a budget above [f]'s; its first
    round raises it on another remaining set. *)
val resume : 'a session -> 'a first_round -> unit

(** Number of elements the solution covers. *)
(* lint: allow export-reachability — checker the MCG batteries assert with *)
val coverage : result -> int

(** Check the budget constraint of a result. *)
(* lint: allow export-reachability — checker the MCG batteries assert with *)
val within_budgets : result -> budgets:float array -> bool
