(** Multicast load accounting (Definition 1 of the paper): an AP serving a
    session transmits at the lowest max link rate among its receivers of
    that session, costing [session_rate / tx_rate] of its airtime; an AP's
    load is the sum over its sessions, the network's total load the sum
    over APs. *)

(** [tx_rates p assoc].(a).(s) is the rate AP [a] must use for session
    [s] (the min link rate among its associated receivers of [s]), or [0.]
    when unserved. *)
val tx_rates : Problem.t -> Association.t -> float array array

(** [join_load srates tx ~s ~rate]: Definition 1 on one AP's
    per-session transmission-rate row [tx] (session rates [srates]) once
    a receiver of session [s] at link rate [rate > 0.] joins — [tx.(s)]
    lowered to [rate], or set to it when unserved. Every AP load this
    module computes is the same row sum: [srates.(s) /. tx.(s)] over the
    served sessions, in session order from [0.]. *)
val join_load : float array -> float array -> s:int -> rate:float -> float

(** The network total of per-AP loads, summed in AP order from [0.]: the
    one fold behind {!total_load}, {!Tracker.total_load} and
    [Solution.t]'s [total_load]. *)
val network_total : float array -> float

(** Multicast load of every AP. *)
val ap_loads : Problem.t -> Association.t -> float array

(** The MLA objective: sum of all AP loads. *)
val total_load : Problem.t -> Association.t -> float

(** The BLA objective: maximum AP load. *)
val max_load : Problem.t -> Association.t -> float

(** Lexicographic comparison of the length-[len] prefixes of two
    non-increasing load vectors (footnote 5), as the decision rules
    compare them: a difference within [1e-9] at the first differing
    entry makes the vectors compare equal, so float summation-order
    noise can never flip a strict-improvement test. Exactly equal
    entries are skipped, so the induced strict order (common exact
    prefix, then a gap > [1e-9]) is transitive. Both buffers are at
    least [len] long — the flat decision kernel keeps its vectors in
    reused arena buffers, where capacity exceeds the logical
    neighborhood size. The scan starts at [from <= len]; the caller
    guarantees the buffers are bit-identical below it, so the result
    equals a scan from [0]. *)
val compare_load_prefixes_eps :
  from:int -> len:int -> float array -> float array -> int

(** {2 Gated total-load comparison}

    Decides comparisons of replaced-entry sums from O(1) estimates where
    that provably matches the exact folds (bound: DESIGN.md §4.12). *)

(** [replaced_sum e d k x]: the exact fold [0. +. e.(0) +. ...] of
    [e.(0..d-1)], in index order, with entry [k] replaced by [x]. *)
val replaced_sum : float array -> int -> int -> float -> float

(** [replaced_sum_estimates e xs d ~est ~margin] writes, for each
    [k < d], an estimate of [replaced_sum e d k xs.(k)] into [est.(k)]
    and an error margin into [margin.(k)]: together the two
    margins bound the distance between the estimates' gap and the exact
    sums' gap. O(d), allocates nothing. *)
val replaced_sum_estimates :
  float array ->
  float array ->
  int ->
  est:float array ->
  margin:float array ->
  unit

(** What {!gate_replaced_sums} returns when the estimates cannot decide. *)
val undecided : int

(** [gate_replaced_sums ~est ~margin i j] is [c] in [{-1, 0, 1}] when the
    estimates decide the comparison of exact sums [i] and [j] — then [c]
    is {!compare_load_prefixes_eps} on those two sums —
    and {!undecided} otherwise. Pure; allocates nothing. *)
val gate_replaced_sums :
  est:float array -> margin:float array -> int -> int -> int

(** In-place non-increasing sort of the prefix [a.(0..n-1)], applying
    the same permutation to [ord.(0..n-1)], remembering where each entry
    came from. *)
val sort_prefix_desc : float array -> int array -> int -> unit

(** [replace_sorted_prefix base n i x dst] writes into [dst.(0..n-1)] the
    non-increasing [base.(0..n-1)] with entry [i] replaced by [x], kept
    sorted by one O(n) insertion pass: the same value sequence a full
    descending sort of that multiset gives. Returns the first index at
    which [dst] may differ from [base]; below it [dst] is a bit-identical
    copy. *)
val replace_sorted_prefix :
  float array -> int -> int -> float -> float array -> int

(** Every AP within the per-AP multicast budget (tolerance [1e-9]). *)
val respects_budget : Problem.t -> Association.t -> bool

(** The load AP [ap] would carry if [user] joined it (its current load
    if [user] is already there); does not mutate the association. *)
(* lint: allow export-reachability — eager definition the tracker's hypotheticals are checked against *)
val load_if_joins : Problem.t -> Association.t -> user:int -> ap:int -> float

val pp_loads : Format.formatter -> float array -> unit

(** Incremental load tracking: a mirror of an association that keeps
    per-(AP, session) link-rate multisets so joins and leaves cost
    O(log members + n_sessions) instead of a full user scan, with O(1)
    [ap_load]/[max_load] reads. Every returned value is bit-identical to
    what the eager functions above compute for the same association:
    cached min rates are exact (min is order-insensitive) and cached
    loads are always recomputed by the same row sum as {!join_load}, and
    the total by {!network_total}. *)
module Tracker : sig
  type t

  (** [create p assoc] replays the current association. [assoc] is
      {e shared}: the tracker updates it on {!move}, and all further
      mutation must go through the tracker. Raises [Invalid_argument] if
      some user is associated to an AP with non-positive link rate. *)
  val create : Problem.t -> Association.t -> t

  (** [move t ~user ~ap] re-associates [user] to [ap] (which may be
      [Association.none]), updating the shared association array and the
      affected APs' cached loads. *)
  val move : t -> user:int -> ap:int -> unit

  (** [unserve t ~user] is [move t ~user ~ap:Association.none]. *)
  val unserve : t -> user:int -> unit

  (** O(1) cached load of one AP. *)
  (* lint: allow export-reachability — the tracker battery reads loads through it *)
  val ap_load : t -> int -> float

  (** The live per-AP load array — shared, not a copy; treat as
      read-only. *)
  val loads : t -> float array

  (** A copy of AP [a]'s per-session transmission-rate row ([0.] for a
      session it does not serve), as {!tx_rates} would give it. *)
  val tx_row : t -> int -> float array

  (** Exact network load (index-order re-fold, cached until the next
      move). *)
  val total_load : t -> float

  (** O(1) maximum AP load. *)
  val max_load : t -> float

  (** Hypothetical loads in O(log members + n_sessions):
      [load_if_joins] as {!Loads.load_if_joins}; [load_if_leaves t ~user
      ~ap] is [ap]'s load without [user] (its live load if [user] is not
      there). *)

  (* lint: allow export-reachability — the tracker battery checks it against the eager scan *)
  val load_if_joins : t -> user:int -> ap:int -> float
  val load_if_leaves : t -> user:int -> ap:int -> float

  (** Batched {!load_if_joins} over a neighborhood plane, for the flat
      decision kernel: [load_if_joins_into t ~user ~rates ~nbr ~d ~into]
      writes the hypothetical load of [nbr.(k)] into [into.(k)] for
      [k < d] — each the identical float of the per-query call, with the
      per-batch lookups hoisted. [rates.(k)] must be the link rate of
      [nbr.(k)] ({!Problem.link_rate}). *)
  val load_if_joins_into :
    t ->
    user:int ->
    rates:float array ->
    nbr:int array ->
    d:int ->
    into:float array ->
    unit
end
