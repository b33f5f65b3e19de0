(** Set Cover with Group Budgets (SCG) — the engine of the paper's
    Centralized BLA (Fig. 6).

    For a guessed bound [B*], give every group budget [B*] and run the MCG
    greedy; each round covers at least 1/8 of the remaining elements, so
    iterating [log_{8/7} n + 1] rounds covers everything (when [B*] is
    feasible), with per-group total cost at most [(log_{8/7} n + 1) B*]
    (Theorem 4). The driver tries a grid of [B*] values between the
    smallest possibly-feasible bound and 1 (a tightening of the paper's
    "try several values of B* between c_max and 1" — see {!grid_lo}) and
    returns the feasible runs by realized maximum group cost.

    The instance comes as an array of shards — interaction components
    whose sets and elements are disjoint — and every probe runs all of
    them in lockstep, one global round at a time (DESIGN.md §4.5). A
    single-shard array is the unsharded solve. *)

(* Deterministic event counters (DESIGN.md §4.9). Grid probes may run on
   pool domains, but the probe set is jobs-independent, so totals are too. *)
let c_solves = Wlan_obs.Counters.make "scg.solves"
let c_rounds = Wlan_obs.Counters.make "scg.rounds"
let c_grid_probes = Wlan_obs.Counters.make "scg.grid_probes"
let c_grid_reuses = Wlan_obs.Counters.make "scg.grid_reuses"
let c_shard_reuses = Wlan_obs.Counters.make "scg.shard_reuses"

type result = {
  bstar : float;
  feasible : bool;  (** every shard's universe covered *)
  selections : int array array;  (** per shard, set ids in selection order *)
  group_cost : float array array;  (** per shard, summed over rounds *)
}

let max_rounds_for n =
  if n <= 1 then 1
  else int_of_float (ceil (log (float_of_int n) /. log (8. /. 7.))) + 1

let max_group_cost r =
  Array.fold_left (Array.fold_left Float.max) 0. r.group_cost

(* Every driver sums a run's cost round by round through this, so sums —
   and the ranking of near-tied probes — agree to the ulp. *)
let add_round_cost acc round =
  Array.iteri (fun g c -> acc.(g) <- acc.(g) +. c) round

(** The grid's lower end. The paper suggests guessing between [c_max]
    and 1, but [c_max] over {e all} sets is needlessly coarse: a group
    never has to afford its most expensive set, only {e some} set
    covering each element. The tight lower end is
    [max_e min_{S ∋ e} c(S)] — below it some element of the universe
    cannot be covered at all (MCG refuses sets costing more than the
    group budget). *)
let grid_lo ~universe inst =
  let { Cover_instance.members; lo; hi; costs; n_elements; _ } = inst in
  let min_cost = Array.make n_elements infinity in
  for j = 0 to Array.length costs - 1 do
    for i = lo.(j) to hi.(j) - 1 do
      let e = members.(i) in
      if costs.(j) < min_cost.(e) then min_cost.(e) <- costs.(j)
    done
  done;
  (* a float cell, not a boxed fold accumulator *)
  let lo = [| 0. |] in
  Bitset.iter
    (fun e ->
      let c = min_cost.(e) in
      if c > lo.(0) && not ((c = infinity) [@lint.allow float_eq]) then
        lo.(0) <- c)
    universe;
  Float.max (Float.min lo.(0) 1.) 1e-6

let grid_points ?(n_guesses = 12) lo =
  if n_guesses < 1 then invalid_arg "Scg.grid_points: n_guesses < 1";
  if lo >= 1. || n_guesses = 1 then [ 1. ]
  else
    List.init n_guesses (fun i ->
        let t = float_of_int i /. float_of_int (n_guesses - 1) in
        lo *. ((1. /. lo) ** t))

(* A run whose reuse bound — its {!Mcg.session_witness} joined with
   every set cost — is [bound] replays exactly at any uniform budget [b]
   with [bound <= b - 1e-9]: no budget read can take another branch
   there (see {!Mcg.session_witness}). *)
let replays ~bound b = bound <= b -. 1e-9

(** Exact B* probe reuse over a grid. [probe top b] prepares the guess
    [b]; applied to [()], it runs and returns its result with a record
    [w] of the run; [bound w] is the run's reuse bound over all of its
    sessions (see {!replays}). The largest guess [B_top] runs first, on
    its own, as [probe None B_top ()]; every guess [b] at which that run
    {!replays}, and every copy of [B_top], yields [reuse top b]. The
    remaining guesses are prepared as [probe (Some w) b], all before
    [fanout] runs them, so no thunk holds [w] itself. Results come back
    in grid order. *)
let reuse_grid ~fanout ~bound ~probe ~reuse grid =
  match grid with
  | [] -> []
  | b0 :: _ ->
      let b_top = List.fold_left Float.max b0 grid in
      let top, w = probe None b_top () in
      let bound = bound w in
      let from_top b = b >= b_top || replays ~bound b in
      let thunks =
        List.filter_map
          (fun b ->
            if from_top b then None
            else
              let run = probe (Some w) b in
              Some (fun () -> fst (run ())))
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

(* What a probe keeps of one shard's run, for per-shard reuse at the
   lower guesses (DESIGN.md §4.5): its reuse bound, whether its
   remaining set emptied, the splits of the rounds that kept H1, in
   order, and its session's first round, which a binding shard resumes.
   Only the top probe's is read; immutable, so probes on other domains
   share it read-only. *)
type 'a shard_run = {
  bound : float;
  emptied : bool;
  kept_h1 : Mcg.split list;
  first : 'a Mcg.first_round option;
}

(* Where a probe takes a shard's splits from: its own session, or the
   top run (its reuse bound and the kept-H1 splits still to replay). *)
type 'a source =
  | Solve of 'a Mcg.session
  | Replay of float * Mcg.split list

(** [solve_grid shards ~grid] — each probe runs every shard's SCG rounds
    in lockstep through {!Mcg.session}s, making the per-round H1/H2
    decision on the weights summed over shards, and is feasible when
    every shard's universe empties within the global round cap
    [max_rounds_for] (total universe size). The greedy's lower-index tie
    order makes each shard's selections the projection of one run over
    the shards' disjoint union.

    The largest guess probes first; a guess at which no shard's budget
    could bind reuses it whole ({!reuse_grid}, on the witness and max set
    cost over all shards). At the other guesses, a shard that emptied at
    the top and whose own witness and max set cost clear the guess by
    1e-9 opens no session: it replays its top kept-H1 splits, one per
    H1 round — the splits a fresh session would return. Only the binding
    shards re-solve, each resuming its first round from the top's
    ({!Mcg.resume}). A prepared probe holds only the parts of the top
    record it reads, so a shard's first-round record is dropped once no
    pending probe resumes it. Every probe gets its own arena, shared by
    its shards' sessions, and keeps only its set ids per shard. *)
let solve_grid ?(mode = `Soft) ?(fanout = List.map (fun f -> f ())) shards
    ~grid =
  let ns = Array.length shards in
  let k =
    max_rounds_for
      (Array.fold_left (fun acc (_, u) -> acc + Bitset.cardinal u) 0 shards)
  in
  let max_costs = Array.map (fun (inst, _) -> Cover_instance.max_cost inst) shards in
  (* per shard, the top's splits to replay or the first round to resume *)
  let prepare top bstar =
    let reusable t = t.emptied && replays ~bound:t.bound bstar in
    Array.init ns (fun i ->
        match top with
        | Some t when reusable t.(i) -> Either.Left (t.(i).bound, t.(i).kept_h1)
        | Some t -> Either.Right t.(i).first
        | None -> Either.Right None)
  in
  let run plans bstar =
    Wlan_obs.Counters.incr c_solves;
    let arena = Arena.create () in
    let sources =
      Array.mapi
        (fun i plan ->
          match plan with
          | Either.Left (b, splits) -> Replay (b, splits)
          | Either.Right first ->
              let inst = fst shards.(i) in
              let session =
                Mcg.session ~mode ~arena inst
                  ~budgets:(Array.make (Cover_instance.n_groups inst) bstar)
              in
              Option.iter (Mcg.resume session) first;
              Solve session)
        plans
    in
    Wlan_obs.Counters.add c_shard_reuses
      (Array.fold_left
         (fun acc -> function Replay _ -> acc + 1 | Solve _ -> acc)
         0 sources);
    let remaining = Array.map (fun (_, u) -> Bitset.copy u) shards in
    let sels = Array.make ns [] (* set ids per shard, reversed *) in
    let kept_h1 = Array.make ns [] (* kept-H1 splits per shard, reversed *) in
    let group_cost =
      Array.map
        (fun (inst, _) -> Array.make (Cover_instance.n_groups inst) 0.)
        shards
    in
    let all_covered () = Array.for_all Bitset.is_empty remaining in
    (try
       for _ = 1 to k do
         if all_covered () then raise Exit;
         Wlan_obs.Counters.incr c_rounds;
         let splits =
           Array.mapi
             (fun i source ->
               if Bitset.is_empty remaining.(i) then None
               else
                 match source with
                 | Solve session ->
                     Some (Mcg.session_round_split session ~remaining:remaining.(i))
                 | Replay (_, pending) -> Some (List.hd pending))
             sources
         in
         let keep_h1 =
           Mcg.keep_h1 (Seq.filter_map Fun.id (Array.to_seq splits))
         in
         let progress = ref 0 in
         Array.iter
           (Option.iter (fun (sp : Mcg.split) ->
                progress :=
                  !progress + Bitset.cardinal (if keep_h1 then sp.cov1 else sp.cov2)))
           splits;
         if !progress = 0 then raise Exit (* no progress: infeasible *);
         Array.iteri
           (fun i ->
             Option.iter (fun (sp : Mcg.split) ->
                 let half, cov =
                   if keep_h1 then (sp.h1, sp.cov1) else (sp.h2, sp.cov2)
                 in
                 add_round_cost group_cost.(i)
                   (Mcg.kept_group_cost (fst shards.(i)) half);
                 sels.(i) <- List.rev_append half sels.(i);
                 Bitset.diff_inplace remaining.(i) cov;
                 (* a replayed shard's H2 is empty: only H1 rounds move
                    it on to its next split *)
                 if keep_h1 then begin
                   kept_h1.(i) <- sp :: kept_h1.(i);
                   match sources.(i) with
                   | Replay (b, pending) ->
                       sources.(i) <- Replay (b, List.tl pending)
                   | Solve _ -> ()
                 end))
           splits
       done
     with Exit -> ());
    let record =
      Array.mapi
        (fun i source ->
          {
            bound =
              (match source with
              | Solve session ->
                  Float.max (Mcg.session_witness session) max_costs.(i)
              | Replay (b, _) -> b);
            emptied = Bitset.is_empty remaining.(i);
            kept_h1 = List.rev kept_h1.(i);
            first =
              (match source with
              | Solve session -> Mcg.first_round session
              | Replay _ -> None);
          })
        sources
    in
    ( {
        bstar;
        feasible = all_covered ();
        selections = Array.map (fun l -> Array.of_list (List.rev l)) sels;
        group_cost;
      },
      record )
  in
  (* a reused guess shares the top run's selections and cost arrays:
     results are never mutated *)
  reuse_grid ~fanout
    ~bound:(Array.fold_left (fun acc t -> Float.max acc t.bound) 0.)
    ~probe:(fun top bstar ->
      let plans = prepare top bstar in
      fun () -> run plans bstar)
    ~reuse:(fun top bstar -> { top with bstar })
    grid
  |> List.filter (fun r -> r.feasible)
  |> List.stable_sort (fun a b ->
         Float.compare (max_group_cost a) (max_group_cost b))
