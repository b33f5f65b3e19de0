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
let c_grid_reuses = Wlan_obs.Counters.make "scg.grid_reuses"

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
    across pool domains. The run comes with its session's
    {!Mcg.session_witness}. *)
let solve_witnessed ?(mode = `Soft) ?arena inst ~bstar ?universe () =
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
  ( {
      bstar;
      rounds = List.rev !rounds;
      feasible = Bitset.is_empty remaining;
      group_cost;
    },
    Mcg.session_witness session )

let solve_for ?mode ?arena inst ~bstar ?universe () =
  fst (solve_witnessed ?mode ?arena inst ~bstar ?universe ())

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
  if n_guesses < 1 then invalid_arg "Scg.grid_points: n_guesses < 1";
  if lo >= 1. || n_guesses = 1 then [ 1. ]
  else
    List.init n_guesses (fun i ->
        let t = float_of_int i /. float_of_int (n_guesses - 1) in
        lo *. ((1. /. lo) ** t))

let default_grid ?n_guesses ?universe inst =
  grid_points ?n_guesses (grid_lo ?universe inst)

(** A run whose {e reuse bound} — its {!Mcg.session_witness} joined
    with every set cost — is [bound] replays exactly at any uniform
    budget [b] with [bound <= b - 1e-9]: no budget read can take another
    branch there (see {!Mcg.session_witness}). *)
let replays ~bound b = bound <= b -. 1e-9

(** Exact B* probe reuse over a grid, for both grid drivers (this one
    and the sharded lockstep probe). [probe top b] runs the guess [b] and
    returns its result with a record [w] of the run; [bound w] is the
    run's reuse bound over all of the driver's sessions (see
    {!replays}). The largest guess [B_top] runs first, on its own, as
    [probe None B_top]; every guess [b] at which that run {!replays}, and
    every copy of [B_top], yields [reuse top b]. The remaining guesses go
    through [fanout] as [probe (Some w) b], sharing [w] read-only.
    Results come back in grid order. *)
let reuse_grid ~fanout ~bound ~probe ~reuse grid =
  match grid with
  | [] -> []
  | b0 :: _ ->
      let b_top = List.fold_left Float.max b0 grid in
      let top, w = probe None b_top in
      let bound = bound w in
      let from_top b = b >= b_top || replays ~bound b in
      let thunks =
        List.filter_map
          (fun b ->
            if from_top b then None
            else Some (fun () -> fst (probe (Some w) b)))
          grid
      in
      Wlan_obs.Counters.add c_grid_probes (1 + List.length thunks);
      Wlan_obs.Counters.add c_grid_reuses
        (List.length grid - 1 - List.length thunks);
      let rec merge grid fresh =
        match (grid, fresh) with
        | [], _ -> []
        | b :: grid, _ when from_top b -> reuse top b :: merge grid fresh
        | _ :: grid, r :: fresh -> r :: merge grid fresh
        | _ :: _, [] -> invalid_arg "Scg.reuse_grid: fanout lost a result"
      in
      merge grid (fanout thunks)

(** Try the [B*] guesses of [grid] and return all feasible runs computed,
    best (smallest realized max group cost) first.

    Guesses go through {!reuse_grid}: a reused guess is
    [{ top with bstar }], sharing [top]'s rounds and cost arrays (nothing
    downstream mutates a result), so each result is exactly {!solve_for}
    at its guess and the ranking is unchanged.

    [fanout] evaluates the per-guess thunks; the default runs them
    sequentially in list order. Injecting a multicore evaluator (e.g.
    [Harness.Pool.run pool], which returns results in submission order)
    parallelizes the grid with a result identical to the sequential one —
    each guess's run is independent and this layer cannot depend on the
    harness, so the pool is passed in rather than created here.

    [arena] lets successive probes reuse their scratch planes — pass it
    only with the default sequential [fanout]: an arena must never be
    shared across pool domains. *)
let solve_grid ?mode ?arena ?(fanout = List.map (fun f -> f ())) inst
    ?universe ~grid () =
  let probe _ bstar = solve_witnessed ?mode ?arena inst ~bstar ?universe () in
  reuse_grid ~fanout
    ~bound:(Float.max (Cover_instance.max_cost inst))
    ~probe ~reuse:(fun top bstar -> { top with bstar })
    grid
  |> List.filter (fun r -> r.feasible)
  |> List.sort (fun a b -> Float.compare (max_group_cost a) (max_group_cost b))

(** Best feasible solution over the default grid, if any. *)
let solve ?mode ?arena ?fanout ?n_guesses inst ?universe () =
  match
    solve_grid ?mode ?arena ?fanout inst ?universe
      ~grid:(default_grid ?n_guesses ?universe inst)
      ()
  with
  | [] -> None
  | best :: _ -> Some best
