(** Centralized BLA — Balance the Load among APs (§5.1): Set Cover with
    Group Budgets via Theorem 3; iterated MCG over a grid of guessed
    bounds B*, a [(log_{8/7} n + 1)]-approximation (Theorem 4).

    [mode] selects the MCG inner loop: [`Soft] is the paper's
    overshoot-and-split greedy (carries the guarantee), [`Hard] never
    overshoots a group's budget (no guarantee, empirically tighter — what
    the figure harness labels "BLA-centralized"). Among feasible B*
    guesses the run with the smallest {e realized} maximum AP load wins. *)

(** [None] when no [B* <= 1] covers every coverable user.

    {!Shard.solve_bla} on the instance's interaction components
    ({!Shard.plan}), relabelled {!name}: the largest guess runs first
    and every guess at which no AP budget could bind reuses it exactly.
    @raise Invalid_argument when [n_guesses < 1]; one guess is [B* = 1]. *)
(* lint: allow export-reachability — tests pin its None, which run_exn raises on *)
val run :
  ?mode:[ `Soft | `Hard ] ->
  ?n_guesses:int ->
  Wlan_model.Problem.t ->
  Solution.t option

(** @raise Failure when {!run} returns [None]. *)
val run_exn :
  ?mode:[ `Soft | `Hard ] ->
  ?n_guesses:int ->
  Wlan_model.Problem.t ->
  Solution.t
