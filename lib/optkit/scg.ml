(** Set Cover with Group Budgets (SCG) — the engine of the paper's
    Centralized BLA (Fig. 6).

    For a guessed bound [B*], give every group budget [B*] and run the MCG
    greedy; each round covers at least 1/8 of the remaining elements, so
    iterating [log_{8/7} n + 1] rounds covers everything (when [B*] is
    feasible), with per-group total cost at most [(log_{8/7} n + 1) B*]
    (Theorem 4). The driver tries a grid of [B*] values between the
    smallest possibly-feasible bound and 1 (a tightening of the paper's
    "try several values of B* between c_max and 1" — see {!default_grid})
    and keeps the feasible solution minimizing the realized maximum group
    cost. *)

(* Deterministic event counters (DESIGN.md §4.9). Grid probes may run on
   pool domains, but the probe set is jobs-independent, so totals are too. *)
let c_solves = Wlan_obs.Counters.make "scg.solves"
let c_rounds = Wlan_obs.Counters.make "scg.rounds"
let c_grid_probes = Wlan_obs.Counters.make "scg.grid_probes"

type result = {
  bstar : float;
  rounds : Mcg.result list;  (** one MCG result per iteration *)
  feasible : bool;  (** all elements of the universe covered *)
  group_cost : float array;  (** summed over rounds *)
}

let max_rounds_for n =
  if n <= 1 then 1
  else int_of_float (ceil (log (float_of_int n) /. log (8. /. 7.))) + 1

(** All selections of a result, flattened in selection order. The [newly]
    attributions of different rounds are disjoint by construction. *)
let selections r = List.concat_map (fun (m : Mcg.result) -> m.kept) r.rounds

let max_group_cost r = Array.fold_left Float.max 0. r.group_cost

(** One SCG run for a fixed [B*]. When [universe] is given explicitly it is
    taken literally: elements of it that no set contains make the run
    infeasible (the default universe is everything coverable). The
    rounds run through one {!Mcg.session}, so set-score bounds persist
    across the shrinking remaining set (no per-round seed pass). [arena]
    backs each round's heap and candidate planes; it must not be shared
    across pool domains. *)
let solve_for ?(mode = `Soft) ?arena inst ~bstar ?universe () =
  Wlan_obs.Counters.incr c_solves;
  let x0 =
    match universe with
    | Some u -> Bitset.copy u
    | None -> Cover_instance.coverable inst
  in
  let n = Bitset.cardinal x0 in
  let n_groups = Cover_instance.n_groups inst in
  let budgets = Array.make n_groups bstar in
  let remaining = Bitset.copy x0 in
  let rounds = ref [] in
  let group_cost = Array.make n_groups 0. in
  let k = max_rounds_for n in
  let session = Mcg.session ~mode ?arena inst ~budgets in
  (try
     for _ = 1 to k do
       if Bitset.is_empty remaining then raise Exit;
       Wlan_obs.Counters.incr c_rounds;
       let r = Mcg.session_round session ~remaining in
       if Bitset.is_empty r.covered then raise Exit (* no progress: infeasible *);
       rounds := r :: !rounds;
       Array.iteri (fun g c -> group_cost.(g) <- group_cost.(g) +. c) r.group_cost;
       Bitset.diff_inplace remaining r.covered
     done
   with Exit -> ());
  {
    bstar;
    rounds = List.rev !rounds;
    feasible = Bitset.is_empty remaining;
    group_cost;
  }

(** Default grid of [B*] guesses: [n_guesses] points geometrically spaced
    between the smallest [B*] that can possibly be feasible and 1.

    The paper suggests guessing between [c_max] and 1, but [c_max] over
    {e all} sets is needlessly coarse: a group never has to afford its most
    expensive set, only {e some} set covering each element. The tight lower
    end is [max_e min_{S ∋ e} c(S)] — below it some element of the universe
    cannot be covered at all (MCG refuses sets costing more than the group
    budget). *)
let grid_lo ?universe inst =
  let u =
    match universe with
    | Some u -> u
    | None -> Cover_instance.coverable inst
  in
  let n = Cover_instance.n_elements inst in
  let min_cost = Array.make n infinity in
  for j = 0 to Cover_instance.n_sets inst - 1 do
    let c = Cover_instance.cost inst j in
    Bitset.iter
      (fun e -> if c < min_cost.(e) then min_cost.(e) <- c)
      (Cover_instance.set inst j)
  done;
  let lo =
    Bitset.fold
      (fun e acc ->
        if (min_cost.(e) = infinity) [@lint.allow float_eq] then acc
        else Float.max acc min_cost.(e))
      u 0.
  in
  Float.max (Float.min lo 1.) 1e-6

let grid_points ?(n_guesses = 12) lo =
  if lo >= 1. then [ 1. ]
  else
    List.init n_guesses (fun i ->
        let t = float_of_int i /. float_of_int (n_guesses - 1) in
        lo *. ((1. /. lo) ** t))

let default_grid ?n_guesses ?universe inst =
  grid_points ?n_guesses (grid_lo ?universe inst)

(** Try the [B*] guesses of [grid] and return all feasible runs computed,
    best (smallest realized max group cost) first.

    [fanout] evaluates the per-guess thunks; the default runs them
    sequentially in list order. Injecting a multicore evaluator (e.g.
    [Harness.Pool.run pool], which returns results in submission order)
    parallelizes the grid with a result identical to the sequential one —
    each guess's run is independent and this layer cannot depend on the
    harness, so the pool is passed in rather than created here.

    [strategy] selects grid coverage:
    - [`Exhaustive] (default): evaluate every grid point.
    - [`Bisect]: exploit monotonicity of feasibility in [B*] (a larger
      per-group budget never hurts the MCG rounds) to binary-search the
      ascending grid for the smallest feasible guess — O(log |grid|)
      evaluations. Only the runs actually evaluated are returned (always
      including the smallest feasible guess), so a caller ranking by
      {e realized} cost sees a subset of [`Exhaustive]'s candidates.
      [fanout] is unused: each probe depends on the previous verdict.

    [arena] lets successive probes reuse their scratch planes — pass it
    only with the default sequential [fanout] (or [`Bisect], which is
    always sequential): an arena must never be shared across pool
    domains. *)
let solve_grid ?mode ?arena ?(strategy = `Exhaustive)
    ?(fanout = List.map (fun f -> f ())) inst ?universe ~grid () =
  let run bstar =
    Wlan_obs.Counters.incr c_grid_probes;
    solve_for ?mode ?arena inst ~bstar ?universe ()
  in
  let results =
    match strategy with
    | `Exhaustive -> fanout (List.map (fun bstar () -> run bstar) grid)
    | `Bisect ->
        let arr = Array.of_list grid in
        let n = Array.length arr in
        let cache = Hashtbl.create 8 in
        let eval i =
          match Hashtbl.find_opt cache i with
          | Some r -> r
          | None ->
              let r = run arr.(i) in
              Hashtbl.replace cache i r;
              r
        in
        if n = 0 then []
        else begin
          (if (eval (n - 1)).feasible then begin
             let lo = ref 0 and hi = ref (n - 1) in
             while !lo < !hi do
               let mid = (!lo + !hi) / 2 in
               if (eval mid).feasible then hi := mid else lo := mid + 1
             done
           end);
          Hashtbl.fold (fun i r acc -> (i, r) :: acc) cache []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.map snd
        end
  in
  List.filter (fun r -> r.feasible) results
  |> List.sort (fun a b -> Float.compare (max_group_cost a) (max_group_cost b))

(** Best feasible solution over the default grid, if any. *)
let solve ?mode ?arena ?strategy ?fanout ?n_guesses inst ?universe () =
  match
    solve_grid ?mode ?arena ?strategy ?fanout inst ?universe
      ~grid:(default_grid ?n_guesses ?universe inst)
      ()
  with
  | [] -> None
  | best :: _ -> Some best
