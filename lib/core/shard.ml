(** Geometric sharding of association-control instances (DESIGN.md §4.10).

    The paper's local decision rule only ever couples a user to the APs
    in its radio range, and two APs only ever interact when some user
    hears both — which, ranges being hard (~200 m for 802.11a), requires
    the APs to sit within {e twice the radio range} of each other. A
    city-scale deployment therefore decomposes into {e interaction
    components}: groups of APs connected through shared users, with no
    load or decision flowing between groups. Each component can be
    solved on its own [Harness.Pool] domain and the partial associations
    merged back — and because the sequential distributed dynamics never
    cross a component boundary, the merged association is {e byte
    identical} to the unsharded solve, at any job count (pinned by the
    golden digests in [test/test_sparse.ml]).

    Two planners produce the decomposition:
    - {!plan} unions APs through the instance's actual candidate lists —
      exact, representation-agnostic, needs no geometry;
    - {!plan_geometric} unions APs lying within the interaction radius
      (2 × range) of each other, found through a {!Wlan_model.Sparse.Grid}
      whose probes reach one cell — the {e halo zone} — beyond every cell
      boundary, so cross-shard AP pairs are never missed. Pure geometry,
      O(APs) grid work; a superset of {!plan}'s coupling, hence equally
      exact.

    Equivalence holds whenever the unsharded run converges: a capped
    [max_rounds] is shared globally by an unsharded run but granted
    per-shard here, so truncated runs may legitimately differ. *)

open Wlan_model

(* Deterministic event counters (DESIGN.md §4.9): planning and merging
   iterate APs, users and shards in ascending order, so these totals are
   pure functions of the instance (merge order is submission order even
   on a pool, see Harness.Pool). *)
let c_plans = Wlan_obs.Counters.make "shard.plans"
let c_components = Wlan_obs.Counters.make "shard.components"
let c_halo_reconciles = Wlan_obs.Counters.make "shard.halo_reconciles"

(* Sharded BLA's B* probes: each probe evaluated is one SCG solve (the
   grid driver counts it in [scg.grid_probes]); [scg.shard_reuses] counts
   the (probe, shard) pairs that replayed the top run instead of solving.
   Both are functions of the instance and the grid alone. *)
let c_scg_solves = Wlan_obs.Counters.make "scg.solves"
let c_shard_reuses = Wlan_obs.Counters.make "scg.shard_reuses"

type shard = {
  id : int;  (** dense shard index, ascending by smallest AP index *)
  aps : int array;  (** global AP indices, ascending *)
  users : int array;  (** global user indices, ascending *)
}

type plan = {
  shards : shard list;  (** ascending [id]; every shard has >= 1 user *)
  idle_aps : int array;  (** APs no present user can hear, ascending *)
  uncovered : int array;  (** users with an empty candidate list, ascending *)
}

(* Union-find over AP indices, path compression, smaller root wins —
   the representative of a component is its smallest AP index, which
   makes shard numbering input-order independent. *)
let rec find parent a =
  if parent.(a) = a then a
  else begin
    let r = find parent parent.(a) in
    parent.(a) <- r;
    r
  end

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb

(* Group APs and users by component root. [root_of_user u] must give the
   component of ALL of [u]'s candidates (the planners guarantee it). *)
let plan_of_roots p parent =
  let n_aps, n_users = Problem.dims p in
  let user_root = Array.make n_users (-1) in
  for u = 0 to n_users - 1 do
    Problem.iter_candidates p u (fun a _ _ ->
        let r = find parent a in
        if user_root.(u) = -1 then user_root.(u) <- r
        else if user_root.(u) <> r then
          (* only reachable through a mis-parameterized geometric plan:
             the interaction radius failed to couple two APs one user
             hears — solving such a plan would not be equivalent *)
          Fmt.kstr invalid_arg
            "Shard.plan: user %d hears APs of two different shards \
             (interaction radius too small?)"
            u)
  done;
  (* shard ids in ascending order of component root = smallest AP; only
     components some user hears become shards *)
  let id_of_root = Hashtbl.create 16 in
  let n_shards = ref 0 in
  let live = Array.make n_aps false in
  Array.iter (fun r -> if r >= 0 then live.(r) <- true) user_root;
  for a = 0 to n_aps - 1 do
    let r = find parent a in
    if live.(r) && not (Hashtbl.mem id_of_root r) then begin
      Hashtbl.add id_of_root r !n_shards;
      incr n_shards
    end
  done;
  let ap_acc = Array.make !n_shards []
  and user_acc = Array.make !n_shards []
  and idle = ref []
  and uncov = ref [] in
  for a = n_aps - 1 downto 0 do
    let r = find parent a in
    if live.(r) then
      let id = Hashtbl.find id_of_root r in
      ap_acc.(id) <- a :: ap_acc.(id)
    else idle := a :: !idle
  done;
  for u = n_users - 1 downto 0 do
    if user_root.(u) = -1 then uncov := u :: !uncov
    else
      let id = Hashtbl.find id_of_root user_root.(u) in
      user_acc.(id) <- u :: user_acc.(id)
  done;
  let shards =
    List.init !n_shards (fun id ->
        {
          id;
          aps = Array.of_list ap_acc.(id);
          users = Array.of_list user_acc.(id);
        })
  in
  Wlan_obs.Counters.incr c_plans;
  Wlan_obs.Counters.add c_components !n_shards;
  {
    shards;
    idle_aps = Array.of_list !idle;
    uncovered = Array.of_list !uncov;
  }

(** Interaction components from the instance's candidate lists: two APs
    share a shard iff connected through a chain of users hearing both
    ends of each link. Exact on both representations. *)
let plan p =
  let n_aps, n_users = Problem.dims p in
  let parent = Array.init n_aps Fun.id in
  for u = 0 to n_users - 1 do
    let first = ref (-1) in
    Problem.iter_candidates p u (fun a _ _ ->
        if !first = -1 then first := a else union parent !first a)
  done;
  plan_of_roots p parent

(** Interaction components from pure geometry: APs within
    [interaction_radius] (use 2 × the rate table's range) are coupled.
    The bucket grid's 3×3 probe block is the halo: every cross-cell pair
    within the radius is examined, none missed — including pairs at
    exactly the radius or straddling a cell edge. A superset of {!plan}'s
    coupling (any user hearing APs [a] and [b] places them within
    2 × range of each other by the triangle inequality), hence equally
    exact for solving.
    @raise Invalid_argument if some user's candidates end up in two
    shards — the radius was smaller than twice the effective range. *)
let plan_geometric ~ap_pos ~interaction_radius p =
  let n_aps, _ = Problem.dims p in
  if Array.length ap_pos <> n_aps then
    invalid_arg "Shard.plan_geometric: ap_pos arity mismatch";
  let parent = Array.init n_aps Fun.id in
  if n_aps > 0 && interaction_radius > 0. then begin
    let grid = Sparse.Grid.build ~cell:interaction_radius ap_pos in
    for a = 0 to n_aps - 1 do
      List.iter
        (fun b ->
          if
            b > a
            && Point.dist ap_pos.(a) ap_pos.(b) <= interaction_radius
          then union parent a b)
        (Sparse.Grid.probe grid ap_pos.(a))
    done
  end;
  plan_of_roots p parent

(** The sub-instance a shard solves: the shard's APs and users reindexed
    densely (order-preserving, so every iteration the solvers perform
    happens in the same relative order as in the full instance), the
    {e full} session table (so per-session load sums use identical float
    expressions), and the shard's slice of any per-AP budgets. The links
    are a direct slice of the parent's CSR planes ({!Sparse.restrict});
    the dense matrix is never allocated. *)
let extract p sh =
  let sparse = Sparse.restrict p.Problem.links ~aps:sh.aps ~users:sh.users in
  let user_session = Array.map (Problem.user_session p) sh.users in
  let ap_budgets =
    Option.map
      (fun b -> Array.map (fun a -> b.(a)) sh.aps)
      p.Problem.ap_budgets
  in
  Problem.make_sparse ?ap_budgets
    ~session_rates:(Array.copy p.Problem.session_rates)
    ~user_session ~sparse ~budget:(Problem.budget p) ()

type result = {
  assoc : Association.t;  (** merged global association *)
  rounds : int;  (** max shard rounds (shards run concurrently) *)
  moves : int;  (** total moves across shards *)
  converged : bool;  (** every shard converged *)
  n_shards : int;
}

(** [solve ~objective p] plans (unless given one), solves every shard
    independently with [Distributed.run ~scheduler:Sequential], and
    merges the partial associations in ascending shard order. [fanout]
    runs the per-shard thunks — inject [Harness.Pool.run pool] to spread
    shards over domains; the default runs them in place. Results are
    consumed in submission order either way, so the merged association
    is identical at any job count, and — whenever the runs converge —
    identical to the unsharded sequential solve. Uncovered users stay
    unserved, exactly as they would unsharded. *)
let solve ?plan:pl ?(fanout = List.map (fun f -> f ())) ?max_rounds ~objective
    p =
  let pl = match pl with Some x -> x | None -> plan p in
  let _, n_users = Problem.dims p in
  let outcomes =
    fanout
      (List.map
         (fun sh () ->
           Distributed.run ?max_rounds ~scheduler:Distributed.Sequential
             ~objective (extract p sh))
         pl.shards)
  in
  let assoc = Association.empty ~n_users in
  let rounds = ref 0 and moves = ref 0 and converged = ref true in
  List.iter2
    (fun sh (o : Distributed.outcome) ->
      Wlan_obs.Counters.incr c_halo_reconciles;
      Array.iteri
        (fun lu la ->
          if la <> Association.none then
            assoc.(sh.users.(lu)) <- sh.aps.(la))
        o.Distributed.assoc;
      rounds := Int.max !rounds o.Distributed.rounds;
      moves := !moves + o.Distributed.moves;
      converged := !converged && o.Distributed.converged)
    pl.shards outcomes;
  {
    assoc;
    rounds = !rounds;
    moves = !moves;
    converged = !converged;
    n_shards = List.length pl.shards;
  }

(** {1 Shard-aware centralized reductions}

    The covering reductions decompose over interaction components too:
    a covering set (AP, session, rate) only contains users of its AP's
    shard, so gains, per-group spent budgets and replays never cross
    shards. Two things are global and must be re-made globally:

    - the H1/H2 repair keeps whichever half covers more {e overall} —
      per-shard [Mcg.session_round_split] weights are summed and the same
      half kept everywhere;
    - SCG's per-round keep decision likewise, so the [B*] probes run all
      shards in lockstep, round by round.

    The greedy's lower-index total tie order makes per-shard selection
    sequences exactly the unsharded run's projection, so merged
    associations are byte-identical to the unsharded [Mnu.run] /
    [Bla.run] solves — pinned by the differential suites in
    [test/test_flat.ml]. *)

let mnu_sharded_name = "MNU-centralized-sharded"
let bla_sharded_name = "BLA-centralized-sharded"

(** [solve_mnu p] — sharded Centralized MNU: per-shard budgeted greedy,
    H1/H2 halves recomputed per shard and the keep decision made on the
    summed weights. [fanout] runs the per-shard solves (inject
    [Harness.Pool.run pool]; results are consumed in submission order,
    so the merged association is identical at any job count). *)
let solve_mnu ?plan:pl ?(fanout = List.map (fun f -> f ())) p =
  let pl = match pl with Some x -> x | None -> plan p in
  let _, n_users = Problem.dims p in
  let parts =
    fanout
      (List.map
         (fun sh () ->
           let sub = extract p sh in
           let inst = Reduction.cover_instance ~filter_over_budget:true sub in
           let universe = Reduction.coverable_users sub in
           let budgets =
             Array.init
               (Optkit.Cover_instance.n_groups inst)
               (Problem.ap_budget sub)
           in
           let sp =
             Optkit.Mcg.session_round_split
               (Optkit.Mcg.session inst ~budgets)
               ~remaining:universe
           in
           let local_of sels =
             Reduction.association_of_selections sub inst
               (List.map
                  (fun (s : Optkit.Mcg.selection) -> (s.set, s.newly))
                  sels)
           in
           (sp.Optkit.Mcg.w1, sp.Optkit.Mcg.w2, local_of sp.Optkit.Mcg.h1,
            local_of sp.Optkit.Mcg.h2))
         pl.shards)
  in
  let w1 = List.fold_left (fun acc (w, _, _, _) -> acc +. w) 0. parts in
  let w2 = List.fold_left (fun acc (_, w, _, _) -> acc +. w) 0. parts in
  let keep_h1 = w1 >= w2 in
  let assoc = Association.empty ~n_users in
  List.iter2
    (fun sh (_, _, a1, a2) ->
      Wlan_obs.Counters.incr c_halo_reconciles;
      let local = if keep_h1 then a1 else a2 in
      Array.iteri
        (fun lu la ->
          if la <> Association.none then assoc.(sh.users.(lu)) <- sh.aps.(la))
        local)
    pl.shards parts;
  Solution.make ~algorithm:mnu_sharded_name p assoc

(* What a probe keeps of one shard's run, for per-shard reuse at the
   lower guesses (DESIGN.md §4.5): its reuse bound ({!Optkit.Scg.replays}),
   whether its remaining set emptied, and the splits of the rounds that
   kept H1, in order. Only the top probe's is read; immutable, so probes
   on other domains share it read-only. *)
type shard_run = {
  bound : float;
  emptied : bool;
  kept_h1 : Optkit.Mcg.split list;
}

(* Where a probe takes a shard's splits from: its own session, or the
   top run (its reuse bound and the kept-H1 splits still to replay). *)
type 'a source =
  | Solve of 'a Optkit.Mcg.session
  | Replay of float * Optkit.Mcg.split list

(** [solve_bla p] — sharded Centralized BLA. The [B*] grid is the global
    one ({!Optkit.Scg.grid_lo} decomposes as a max over shards); each
    probe runs every shard's SCG rounds in lockstep, making the
    per-round H1/H2 decision on the summed weights, and is feasible when
    every shard's remaining set empties within the global round cap.
    Feasible probes are ranked exactly as [Bla.run]: smallest
    summed-cover bound first, then the smallest {e realized} max AP load
    wins. [fanout] evaluates the per-probe thunks (submission order, as
    everywhere). The largest guess probes first; a guess at which no
    shard's budget could bind reuses it whole ({!Optkit.Scg.reuse_grid},
    on the witness and max set cost over all shards). At the other
    guesses, a shard that emptied at the top and whose own witness and
    max set cost clear the guess by 1e-9 opens no session: it replays
    its top kept-H1 splits, one per H1 round — the splits a fresh
    session would return (DESIGN.md §4.5). Only the binding shards
    re-solve. [None] when no [B* <= 1] is feasible. *)
let solve_bla ?plan:pl ?(n_guesses = 12) ?(fanout = List.map (fun f -> f ()))
    p =
  let pl = match pl with Some x -> x | None -> plan p in
  let _, n_users = Problem.dims p in
  let subs =
    Array.of_list
      (List.map
         (fun sh ->
           let sub = extract p sh in
           let inst = Reduction.cover_instance sub in
           let universe = Reduction.coverable_users sub in
           (sh, sub, inst, universe))
         pl.shards)
  in
  let ns = Array.length subs in
  let lo =
    Array.fold_left
      (fun acc (_, _, inst, u) ->
        Float.max acc (Optkit.Scg.grid_lo ~universe:u inst))
      1e-6 subs
  in
  let grid = Optkit.Scg.grid_points ~n_guesses lo in
  let n_total =
    Array.fold_left
      (fun acc (_, _, _, u) -> acc + Optkit.Bitset.cardinal u)
      0 subs
  in
  let k = Optkit.Scg.max_rounds_for n_total in
  let max_costs =
    Array.map (fun (_, _, inst, _) -> Optkit.Cover_instance.max_cost inst) subs
  in
  (* one lockstep probe at a fixed B*: per-shard sessions persist score
     bounds across rounds; the arena is probe-local, so probes are safe
     to fan out across domains *)
  let probe top bstar =
    Wlan_obs.Counters.incr c_scg_solves;
    let arena = Optkit.Arena.create () in
    let reusable (t : shard_run) =
      t.emptied && Optkit.Scg.replays ~bound:t.bound bstar
    in
    let sources =
      Array.mapi
        (fun i (_, _, inst, _) ->
          match top with
          | Some t when reusable t.(i) -> Replay (t.(i).bound, t.(i).kept_h1)
          | _ ->
              Solve
                (Optkit.Mcg.session ~arena inst
                   ~budgets:
                     (Array.make (Optkit.Cover_instance.n_groups inst) bstar)))
        subs
    in
    Wlan_obs.Counters.add c_shard_reuses
      (Array.fold_left
         (fun acc -> function Replay _ -> acc + 1 | Solve _ -> acc)
         0 sources);
    let remaining =
      Array.map (fun (_, _, _, u) -> Optkit.Bitset.copy u) subs
    in
    let sels = Array.make ns [] (* selection lists per shard, reversed *) in
    let kept_h1 = Array.make ns [] (* kept-H1 splits per shard, reversed *) in
    let group_cost =
      Array.map
        (fun (_, _, inst, _) ->
          Array.make (Optkit.Cover_instance.n_groups inst) 0.)
        subs
    in
    let all_covered () =
      Array.for_all Optkit.Bitset.is_empty remaining
    in
    (try
       for _ = 1 to k do
         if all_covered () then raise Exit;
         let splits =
           Array.mapi
             (fun i source ->
               if Optkit.Bitset.is_empty remaining.(i) then None
               else
                 match source with
                 | Solve session ->
                     Some
                       (Optkit.Mcg.session_round_split session
                          ~remaining:remaining.(i))
                 | Replay (_, pending) -> Some (List.hd pending))
             sources
         in
         let w1 = ref 0. and w2 = ref 0. in
         Array.iter
           (function
             | None -> ()
             | Some (sp : Optkit.Mcg.split) ->
                 w1 := !w1 +. sp.w1;
                 w2 := !w2 +. sp.w2)
           splits;
         let keep_h1 = !w1 >= !w2 in
         let progress = ref 0 in
         Array.iter
           (function
             | None -> ()
             | Some (sp : Optkit.Mcg.split) ->
                 progress :=
                   !progress
                   + Optkit.Bitset.cardinal
                       (if keep_h1 then sp.cov1 else sp.cov2))
           splits;
         if !progress = 0 then raise Exit (* no progress: infeasible *);
         Array.iteri
           (fun i sp ->
             match sp with
             | None -> ()
             | Some (sp : Optkit.Mcg.split) ->
                 let half = if keep_h1 then sp.h1 else sp.h2 in
                 let cov = if keep_h1 then sp.cov1 else sp.cov2 in
                 let _, _, inst, _ = subs.(i) in
                 List.iter
                   (fun (s : Optkit.Mcg.selection) ->
                     let g = Optkit.Cover_instance.group inst s.set in
                     group_cost.(i).(g) <-
                       group_cost.(i).(g)
                       +. Optkit.Cover_instance.cost inst s.set;
                     sels.(i) <- s :: sels.(i))
                   half;
                 Optkit.Bitset.diff_inplace remaining.(i) cov;
                 (* a replayed shard's H2 is empty: only H1 rounds move
                    it on to its next split *)
                 if keep_h1 then begin
                   kept_h1.(i) <- sp :: kept_h1.(i);
                   match sources.(i) with
                   | Replay (b, pending) ->
                       sources.(i) <- Replay (b, List.tl pending)
                   | Solve _ -> ()
                 end)
           splits
       done
     with Exit -> ());
    let max_gc =
      Array.fold_left
        (fun acc gc -> Array.fold_left Float.max acc gc)
        0. group_cost
    in
    let feasible = all_covered () in
    let assoc = Association.empty ~n_users in
    if feasible then
      Array.iteri
        (fun i shard_sels ->
          let sh, sub, inst, _ = subs.(i) in
          let local =
            Reduction.association_of_selections sub inst
              (List.map
                 (fun (s : Optkit.Mcg.selection) -> (s.set, s.newly))
                 (List.rev shard_sels))
          in
          Array.iteri
            (fun lu la ->
              if la <> Association.none then
                assoc.(sh.users.(lu)) <- sh.aps.(la))
            local)
        sels;
    let record =
      Array.mapi
        (fun i source ->
          {
            bound =
              (match source with
              | Solve session ->
                  Float.max (Optkit.Mcg.session_witness session) max_costs.(i)
              | Replay (b, _) -> b);
            emptied = Optkit.Bitset.is_empty remaining.(i);
            kept_h1 = List.rev kept_h1.(i);
          })
        sources
    in
    ((feasible, max_gc, assoc), record)
  in
  (* a reused probe shares the top probe's association: only the
     winner's becomes a returned solution *)
  let results =
    Optkit.Scg.reuse_grid ~fanout
      ~bound:(Array.fold_left (fun acc t -> Float.max acc t.bound) 0.)
      ~probe
      ~reuse:(fun top _ -> top)
      grid
  in
  let feasible =
    List.filter_map
      (fun (ok, max_gc, assoc) -> if ok then Some (max_gc, assoc) else None)
      results
  in
  match feasible with
  | [] -> None
  | _ ->
      Array.iter
        (fun _ -> Wlan_obs.Counters.incr c_halo_reconciles)
        subs;
      (* rank exactly as the unsharded driver: ascending summed-cover
         bound (stable on ties), then the smallest realized max load
         with a strict 1e-12 improvement *)
      let sorted =
        List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) feasible
      in
      let sols =
        List.map
          (fun (_, assoc) -> Solution.make ~algorithm:bla_sharded_name p assoc)
          sorted
      in
      Some
        (List.fold_left
           (fun (best : Solution.t) (s : Solution.t) ->
             if s.max_load < best.max_load -. 1e-12 then s else best)
           (List.hd sols) (List.tl sols))

let pp_plan ppf pl =
  Fmt.pf ppf "@[<v>%d shards (%d idle APs, %d uncovered users)@,%a@]"
    (List.length pl.shards)
    (Array.length pl.idle_aps)
    (Array.length pl.uncovered)
    Fmt.(
      list ~sep:cut (fun ppf sh ->
          pf ppf "shard %d: %d APs, %d users" sh.id (Array.length sh.aps)
            (Array.length sh.users)))
    pl.shards
