(** Weighted Set Cover solvers.

    - {!greedy} — the [CostSC] algorithm (paper Fig. 8, after Vazirani):
      a [(ln n + 1)]-approximation.
    - {!layered} and {!lp_rounding} — the classic f-approximations
      ([f] = maximum element frequency), the alternatives the paper
      mentions in §6.1.
    - {!exact} — branch and bound, for optimality studies on small
      instances.

    Every solver restricts attention to the optional [universe] (default:
    every coverable element) and returns the chosen sets in selection
    order: replayed in that order against the universe, each covers what
    it newly covered — exactly what the WLAN reductions need to derive
    user→AP associations. *)

type result = {
  chosen : int list;  (** set indices, in selection order *)
  total_cost : float;
}

(** Greedy weighted set cover: repeatedly pick the set maximizing
    [|S ∩ X'| / c(S)]. *)
val greedy : ?universe:Bitset.t -> 'a Cover_instance.t -> result

(** Maximum element frequency over the (optional) universe: the largest
    number of sets any single element belongs to. *)
(* lint: allow export-reachability — the f the f-approximation property checks against *)
val max_frequency : ?universe:Bitset.t -> 'a Cover_instance.t -> int

(** Layering (local-ratio) f-approximation. *)
val layered : ?universe:Bitset.t -> 'a Cover_instance.t -> result

(** LP-relaxation rounding f-approximation (keeps sets with
    [x >= 1/f]); solves a dense LP, intended for small/medium instances.
    [None] only if the LP solver fails. *)
val lp_rounding : ?universe:Bitset.t -> 'a Cover_instance.t -> result option

type exact_result = { sets : int list; proved_optimal : bool }

(** Exact weighted set cover by branch and bound (greedy incumbent,
    pruning by an admissible lower bound that charges each uncovered
    element its cheapest per-element share, branching on the most
    constrained element).
    [None] when some universe element is in no set. If [node_limit] is
    exhausted the incumbent is returned with [proved_optimal = false]. *)
val exact :
  ?node_limit:int ->
  ?universe:Bitset.t ->
  'a Cover_instance.t ->
  exact_result option
