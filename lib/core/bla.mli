(** Centralized BLA — Balance the Load among APs (§5.1): Set Cover with
    Group Budgets via Theorem 3; iterated MCG over a grid of guessed
    bounds B*, a [(log_{8/7} n + 1)]-approximation (Theorem 4).

    [mode] selects the MCG inner loop: [`Soft] is the paper's
    overshoot-and-split greedy (carries the guarantee), [`Hard] never
    overshoots a group's budget (no guarantee, empirically tighter — what
    the figure harness labels "BLA-centralized"). Among feasible B*
    guesses the run with the smallest {e realized} maximum AP load wins. *)

val name : string

(** [None] when no [B* <= 1] covers every coverable user.

    [strategy] and [fanout] pass through to {!Optkit.Scg.solve_grid}:
    [fanout] (e.g. [Harness.Pool.run pool]) parallelizes the [B*] grid
    with a bit-identical result; [`Bisect] prunes the grid to O(log)
    evaluations, ranking realized loads over only those runs. *)
val run :
  ?mode:[ `Soft | `Hard ] ->
  ?strategy:[ `Exhaustive | `Bisect ] ->
  ?fanout:
    ((unit -> Optkit.Scg.result) list -> Optkit.Scg.result list) ->
  ?n_guesses:int ->
  Wlan_model.Problem.t ->
  Solution.t option

(** @raise Failure when {!run} returns [None]. *)
val run_exn :
  ?mode:[ `Soft | `Hard ] ->
  ?strategy:[ `Exhaustive | `Bisect ] ->
  ?fanout:
    ((unit -> Optkit.Scg.result) list -> Optkit.Scg.result list) ->
  ?n_guesses:int ->
  Wlan_model.Problem.t ->
  Solution.t
