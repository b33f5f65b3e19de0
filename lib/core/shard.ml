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

type shard = {
  aps : int array;  (** global AP indices, ascending *)
  users : int array;  (** global user indices, ascending *)
}

type plan = {
  shards : shard list;
      (** ascending by smallest AP index; every shard has >= 1 user *)
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
  for a = 0 to n_aps - 1 do
    let r = find parent a in
    (* member lists, not candidate lists: no rate is boxed per link *)
    Sparse.iter_member_users p.Problem.links a (fun u ->
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
  and uncov = ref [] in
  for a = n_aps - 1 downto 0 do
    let r = find parent a in
    if live.(r) then
      let id = Hashtbl.find id_of_root r in
      ap_acc.(id) <- a :: ap_acc.(id)
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
          aps = Array.of_list ap_acc.(id);
          users = Array.of_list user_acc.(id);
        })
  in
  Wlan_obs.Counters.incr c_plans;
  Wlan_obs.Counters.add c_components !n_shards;
  { shards; uncovered = Array.of_list !uncov }

(** Interaction components from the instance's links: two APs share a
    shard iff connected through a chain of users hearing both ends of
    each link. The walk is over member lists (no float boxed per link):
    each user's first AP in the walk is united with every later one, the
    same components a walk of its candidate list finds, and the roots —
    the smallest AP index — make the plan identical. *)
let plan p =
  let n_aps, n_users = Problem.dims p in
  let parent = Array.init n_aps Fun.id in
  let first = Array.make n_users (-1) in
  for a = 0 to n_aps - 1 do
    Sparse.iter_member_users p.Problem.links a (fun u ->
        if first.(u) = -1 then first.(u) <- a else union parent first.(u) a)
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
      let (pa : Point.t) = ap_pos.(a) in
      Sparse.Grid.iter_block grid pa (fun b ->
          (* [Point.dist] written out, as [Sparse.of_geometry] does: the
             same bits, no float boxed per pair under [-opaque] *)
          let (pb : Point.t) = ap_pos.(b) in
          let dx = pa.x -. pb.x and dy = pa.y -. pb.y in
          if b > a && sqrt ((dx *. dx) +. (dy *. dy)) <= interaction_radius
          then union parent a b)
    done
  end;
  plan_of_roots p parent

(** The sub-instance a shard solves: the shard's APs and users reindexed
    densely (order-preserving, so every iteration the solvers perform
    happens in the same relative order as in the full instance), the
    {e full} session table (so per-session load sums use identical float
    expressions), and the shard's slice of any per-AP budgets. The links
    are a direct slice of the parent's CSR planes ({!Sparse.restrict});
    the dense matrix is never allocated. A shard holding every AP and
    user of an instance with no lost slot is [p] itself (no build). *)
let extract p sh =
  let n_aps, n_users = Problem.dims p in
  if
    Array.length sh.aps = n_aps
    && Array.length sh.users = n_users
    && not (Sparse.has_lost p.Problem.links)
  then p
  else
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

(* Write a shard's local association into the global one. *)
let merge assoc sh local =
  Array.iteri
    (fun lu la ->
      if la <> Association.none then assoc.(sh.users.(lu)) <- sh.aps.(la))
    local

type result = {
  assoc : Association.t;  (** merged global association *)
  rounds : int;  (** max shard rounds (shards run concurrently) *)
  moves : int;  (** total moves across shards *)
  converged : bool;  (** every shard converged *)
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
      merge assoc sh o.Distributed.assoc;
      rounds := Int.max !rounds o.Distributed.rounds;
      moves := !moves + o.Distributed.moves;
      converged := !converged && o.Distributed.converged)
    pl.shards outcomes;
  {
    assoc;
    rounds = !rounds;
    moves = !moves;
    converged = !converged;
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
      shards in lockstep, round by round ({!Optkit.Scg.solve_grid}).

    The greedy's lower-index total tie order makes per-shard selection
    sequences exactly the unsharded run's projection, so merged
    associations are byte-identical to one solve over the whole
    instance — pinned against the unsharded references in
    [test/test_flat.ml]. These are the only centralized MNU and BLA
    drivers: [Mnu.run] and [Bla.run] call them on {!plan}. *)

let mnu_sharded_name = "MNU-centralized-sharded"
let bla_sharded_name = "BLA-centralized-sharded"

(* Every shard's covering instance, built straight from [p]'s planes
   through one map of users to their shard-local index (DESIGN.md
   §4.10): no sub-problem is extracted. *)
let shard_covers ~filter_over_budget p pl =
  let _, n_users = Problem.dims p in
  let local = Array.make n_users (-1) in
  List.iter (fun sh -> Array.iteri (fun lu u -> local.(u) <- lu) sh.users)
    pl.shards;
  fun sh ->
    Reduction.shard_cover ~filter_over_budget p ~aps:sh.aps ~local
      ~n_local:(Array.length sh.users)

(** [solve_mnu p] — sharded Centralized MNU: per-shard budgeted greedy,
    H1/H2 halves recomputed per shard and the keep decision made on the
    summed weights. [fanout] runs the per-shard solves (inject
    [Harness.Pool.run pool]; results are consumed in submission order,
    so the merged association is identical at any job count). *)
let solve_mnu ?plan:pl ?(fanout = List.map (fun f -> f ())) p =
  let pl = match pl with Some x -> x | None -> plan p in
  let _, n_users = Problem.dims p in
  let cover = shard_covers ~filter_over_budget:true p pl in
  let parts =
    fanout
      (List.map
         (fun sh () ->
           let inst, universe = cover sh in
           let budgets = Array.map (Problem.ap_budget p) sh.aps in
           let sp =
             Optkit.Mcg.session_round_split
               (Optkit.Mcg.session inst ~budgets)
               ~remaining:universe
           in
           let local_of = Reduction.association_of_sets inst ~universe in
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
      merge assoc sh (if keep_h1 then a1 else a2))
    pl.shards parts;
  Solution.make ~algorithm:mnu_sharded_name p assoc

(** [solve_bla p] — sharded Centralized BLA. The [B*] grid is the global
    one ({!Optkit.Scg.grid_lo} decomposes as a max over shards), and
    {!Optkit.Scg.solve_grid} probes it over the shards' cover instances
    in lockstep, with per-shard reuse. Each feasible probe keeps its
    per-shard set ids; replayed, they merge into one association. The
    probes come ranked by summed-cover bound (stable on ties) and the
    smallest {e realized} max AP load wins, by a strict 1e-12
    improvement. Every probe is scored in one reused association
    buffer and only the winner becomes a {!Solution.t}. [None] when no
    [B* <= 1] is feasible. *)
let solve_bla ?plan:pl ?mode ?n_guesses ?fanout p =
  let pl = match pl with Some x -> x | None -> plan p in
  let _, n_users = Problem.dims p in
  let shards = Array.of_list pl.shards in
  let covers =
    Array.map (shard_covers ~filter_over_budget:false p pl) shards
  in
  let lo =
    Array.fold_left
      (fun acc (inst, universe) ->
        Float.max acc (Optkit.Scg.grid_lo ~universe inst))
      1e-6 covers
  in
  match
    Optkit.Scg.solve_grid ?mode ?fanout covers
      ~grid:(Optkit.Scg.grid_points ?n_guesses lo)
  with
  | [] -> None
  | first :: rest ->
      Wlan_obs.Counters.add c_halo_reconciles (Array.length shards);
      (* one association buffer: each shard's set ids replay into it *)
      let assoc = Association.empty ~n_users in
      let fill (r : Optkit.Scg.result) =
        Array.fill assoc 0 n_users Association.none;
        Array.iteri
          (fun i sh ->
            let inst, universe = covers.(i) in
            Reduction.replay_sets inst ~universe ~users:sh.users ~aps:sh.aps
              assoc r.selections.(i))
          shards
      in
      let max_load r =
        fill r;
        Loads.max_load p assoc
      in
      (* a reused guess shares its source's selections, so it can never
         improve on them: each distinct array is scored once, at its
         first position in rank order *)
      let best = ref first and best_load = ref (max_load first) in
      let scored = ref [ first.selections ] in
      List.iter
        (fun (r : Optkit.Scg.result) ->
          if not (List.memq r.selections !scored) then begin
            scored := r.selections :: !scored;
            let l = max_load r in
            if l < !best_load -. 1e-12 then begin
              best := r;
              best_load := l
            end
          end)
        rest;
      fill !best;
      Some (Solution.make ~algorithm:bla_sharded_name p assoc)
