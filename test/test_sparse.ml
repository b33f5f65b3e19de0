(* The grid/shard differential battery (PR 6): the bucket-grid compile
   and the geometric sharding are proven bit-identical to brute-force
   references.

   - Compile equality (qcheck): a scenario compiled by the brute-force
     all-pairs loop ([All_pairs.problem], "dense": every AP-user pair
     through the link predicate into a matrix, lowered by
     [Problem.make]) and by the bucket grid ([Scenario.to_problem],
     "sparse") agree on every accessor: rate matrices, signals, neighbor
     lists, receivers, distinct rates — under every model family, and
     again with the case moved to negative coordinates and split into
     two clusters 1e6 m apart.
   - Compile golden: both CSR planes of a city and of a shadowed
     log-distance scenario, every float printed [%h].
   - Solver differential (qcheck): every solver — SSA, MNU, MLA, BLA,
     Distributed Sequential and Simultaneous, Online settle — produces
     byte-identical associations and load vectors on the two compiles
     of the same instance.
   - Churn replays: a random script replayed through Sim.Churn on both
     compiles yields identical step metrics, final association and
     loads.
   - Grid properties: no false negatives at the exact reach boundary or
     on cell edges, blocks that are exactly the nine cells' points
     (ascending within a cell), position-permutation invariance, and
     co-located pairs at coordinates whose cell keys wrap.
   - Shard slices: [Shard.extract]'s CSR slice equals the list-built
     sub-instance plane for plane (lost links, per-AP budgets,
     single-user shards) and counts the same build; a shard holding
     every AP and user of a loss-free instance is that instance, built
     nothing.
   - Shard/halo: sharded solves equal the unsharded sequential solve on
     random instances and on a fig9a-size scenario at --jobs 1/2/4;
     one 2000x40000 city instance is pinned by a golden j1==j4 digest —
     an instance whose dense matrix (2000*40000 floats) is never
     allocated anywhere in the battery.
   - validate: empty candidate lists are rejected on both construction
     paths ([Problem.make] on a matrix, [Problem.make_sparse] on a link
     structure) unless explicitly allowed. *)

open Wlan_model
open Mcast_core

let digest s = Digest.to_hex (Digest.string s)

let read_golden path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  String.trim line

let check_float_arrays what a b =
  Alcotest.(check int) (what ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Float.equal x b.(i)) then
        Alcotest.failf "%s: index %d differs: %.17g vs %.17g" what i x b.(i))
    a

let fail_if what cond = if cond then Alcotest.failf "%s" what

(* CSR planes from per-user [(ap, rate, signal)] lists, ascending by AP
   — the list builder the library used before it compiled straight into
   the planes, kept as the reference for [Sparse.restrict]. *)
let of_lists ~n_aps ~links =
  let user_off = Array.make (Array.length links + 1) 0 in
  Array.iteri
    (fun u l -> user_off.(u + 1) <- user_off.(u) + List.length l)
    links;
  let slots = Array.of_list (List.concat (Array.to_list links)) in
  Sparse.assemble ~n_aps ~user_off
    ~cand_ap:(Array.map (fun (a, _, _) -> a) slots)
    ~cand_rate:(Array.map (fun (_, r, _) -> r) slots)
    ~cand_signal:(Array.map (fun (_, _, s) -> s) slots)

(* Seed-indexed random geometric case, compiled both ways (all-pairs,
   grid). Coverage is deliberately not ensured (uncovered users must
   behave identically), and placement/popularity/budget vary. [rate_model] swaps the
   link-rate model (default: the Table 1 ladder). *)
let case ?rate_model ~seed () =
  let rng = Random.State.make [| seed; 0x59a25e |] in
  let n_aps = 1 + Random.State.int rng 14 in
  let n_users = 1 + Random.State.int rng 30 in
  let n_sessions = 1 + Random.State.int rng 3 in
  let budget = [| 0.3; 0.9; 2.0 |].(Random.State.int rng 3) in
  let placement =
    if Random.State.bool rng then Scenario_gen.Uniform
    else Scenario_gen.Clustered { hotspots = 2; sigma_m = 80. }
  in
  let cfg =
    {
      Scenario_gen.paper_default with
      area_w = 500.;
      area_h = 500.;
      n_aps;
      n_users;
      n_sessions;
      budget;
      placement;
      rate_model;
      ensure_coverage = false;
    }
  in
  let sc = Scenario_gen.generate ~rng:(Scenario_gen.scenario_rng ~seed 0) cfg in
  (sc, All_pairs.problem sc, Scenario.to_problem sc)

(* ------------------------------------------------------------------ *)
(* Compile equality: grid = all-pairs                                  *)
(* ------------------------------------------------------------------ *)

let planes_agree pd ps =
  fail_if "rate matrices differ"
    (Problem.rates_matrix pd <> Problem.rates_matrix ps);
  let n_aps, n_users = Problem.dims pd in
  fail_if "dims differ" (Problem.dims ps <> (n_aps, n_users));
  for u = 0 to n_users - 1 do
    fail_if "neighbor lists differ"
      (Problem.neighbor_aps pd u <> Problem.neighbor_aps ps u);
    fail_if "signal-ordered neighbors differ"
      (Problem.neighbors_by_signal pd u <> Problem.neighbors_by_signal ps u);
    fail_if "strongest AP differs"
      (Problem.strongest_ap pd u <> Problem.strongest_ap ps u);
    (* signal agrees on every pair (out-of-range pairs answer
       neg_infinity in both) *)
    for a = 0 to n_aps - 1 do
      if
        not
          (Float.equal
             (Problem.signal pd ~ap:a ~user:u)
             (Problem.signal ps ~ap:a ~user:u))
      then Alcotest.failf "signal differs at a%d-u%d" a u
    done
  done;
  fail_if "coverable users differ"
    (Problem.coverable_users pd <> Problem.coverable_users ps);
  fail_if "distinct rates differ"
    (Problem.distinct_rates pd <> Problem.distinct_rates ps);
  for a = 0 to n_aps - 1 do
    for s = 0 to Problem.n_sessions pd - 1 do
      List.iter
        (fun r ->
          fail_if "receivers differ"
            (Problem.receivers pd ~ap:a ~session:s ~min_rate:r
            <> Problem.receivers ps ~ap:a ~session:s ~min_rate:r))
        (Problem.distinct_rates pd)
    done
  done;
  fail_if "basic-rate restrictions differ"
    (Problem.rates_matrix (Problem.restrict_to_basic_rate pd)
    <> Problem.rates_matrix (Problem.restrict_to_basic_rate ps))

(* The same case moved off the first quadrant: the left half of the area
   to around (-1e6, 0) with y mirrored negative, the right half shifted
   down by 500 m — negative cell keys, and two clusters 1e6 m apart whose
   straddling pairs drop out of range on both compiles. *)
let far_apart (sc : Scenario.t) =
  let move (p : Point.t) =
    if p.x < 250. then Point.v (p.x -. 1e6) (-.p.y) else Point.v p.x (p.y -. 500.)
  in
  {
    sc with
    Scenario.ap_pos = Array.map move sc.Scenario.ap_pos;
    user_pos = Array.map move sc.Scenario.user_pos;
  }

let reprs_agree ?rate_model seed =
  let sc, pd, ps = case ?rate_model ~seed () in
  planes_agree pd ps;
  let far = far_apart sc in
  planes_agree (All_pairs.problem far) (Scenario.to_problem far);
  true

let qcheck_reprs_agree =
  QCheck.Test.make
    ~name:"grid compile = brute-force all-pairs compile everywhere"
    ~count:60
    QCheck.(int_range 0 10_000)
    reprs_agree

(* ------------------------------------------------------------------ *)
(* Solver differential                                                 *)
(* ------------------------------------------------------------------ *)

let check_solutions label (a : Solution.t) (b : Solution.t) =
  if not (Association.equal a.Solution.assoc b.Solution.assoc) then
    Alcotest.failf "%s: associations differ" label;
  Alcotest.(check int) (label ^ " satisfied") a.Solution.satisfied
    b.Solution.satisfied;
  check_float_arrays (label ^ " ap_loads") a.Solution.ap_loads
    b.Solution.ap_loads;
  if not (Float.equal a.Solution.total_load b.Solution.total_load) then
    Alcotest.failf "%s: total loads differ" label;
  if not (Float.equal a.Solution.max_load b.Solution.max_load) then
    Alcotest.failf "%s: max loads differ" label

let solver_differential ?rate_model ~label run seed =
  let _, pd, ps = case ?rate_model ~seed () in
  check_solutions label (run pd) (run ps);
  true

let qcheck_solver ~label run =
  QCheck.Test.make
    ~name:(label ^ ": dense = sparse, associations and loads")
    ~count:40
    QCheck.(int_range 0 10_000)
    (solver_differential ~label run)

let qcheck_ssa = qcheck_solver ~label:"SSA" Ssa.run
let qcheck_mnu = qcheck_solver ~label:"MNU" (fun p -> Mnu.run p)
let qcheck_mla = qcheck_solver ~label:"MLA" Mla.run
let qcheck_mla_layered = qcheck_solver ~label:"MLA-layered" Mla.run_layered

let qcheck_bla =
  QCheck.Test.make ~name:"BLA: dense = sparse, associations and loads"
    ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let _, pd, ps = case ~seed () in
      (match (Bla.run pd, Bla.run ps) with
      | None, None -> ()
      | Some a, Some b -> check_solutions "BLA" a b
      | Some _, None -> Alcotest.fail "BLA: dense feasible, sparse not"
      | None, Some _ -> Alcotest.fail "BLA: sparse feasible, dense not");
      true)

let distributed_differential ?rate_model ~scheduler ~objective seed =
  let _, pd, ps = case ?rate_model ~seed () in
  let a = Distributed.run ~max_rounds:300 ~scheduler ~objective pd in
  let b = Distributed.run ~max_rounds:300 ~scheduler ~objective ps in
  if not (Association.equal a.Distributed.assoc b.Distributed.assoc) then
    Alcotest.fail "associations differ";
  Alcotest.(check int) "rounds" a.Distributed.rounds b.Distributed.rounds;
  Alcotest.(check int) "moves" a.Distributed.moves b.Distributed.moves;
  Alcotest.(check bool) "converged" a.Distributed.converged
    b.Distributed.converged;
  Alcotest.(check bool) "oscillated" a.Distributed.oscillated
    b.Distributed.oscillated;
  check_float_arrays "loads"
    (Loads.ap_loads pd a.Distributed.assoc)
    (Loads.ap_loads ps b.Distributed.assoc);
  true

let qcheck_distributed ~label ~scheduler ~objective =
  QCheck.Test.make
    ~name:(label ^ ": dense = sparse, full outcome")
    ~count:40
    QCheck.(int_range 0 10_000)
    (distributed_differential ~scheduler ~objective)

let qcheck_dist_seq_total =
  qcheck_distributed ~label:"Distributed Sequential (total-load)"
    ~scheduler:Distributed.Sequential ~objective:Distributed.Min_total_load

let qcheck_dist_seq_vector =
  qcheck_distributed ~label:"Distributed Sequential (load-vector)"
    ~scheduler:Distributed.Sequential ~objective:Distributed.Min_load_vector

let qcheck_dist_sim =
  qcheck_distributed ~label:"Distributed Simultaneous"
    ~scheduler:Distributed.Simultaneous ~objective:Distributed.Min_total_load

let qcheck_online =
  QCheck.Test.make ~name:"Online settle: dense = sparse" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let _, pd, ps = case ~seed () in
      let run p =
        let net =
          Distributed.Online.create ~objective:Distributed.Min_load_vector p
        in
        let stats = Distributed.Online.settle ~max_rounds:300 net in
        (net, stats)
      in
      let na, sa = run pd and nb, sb = run ps in
      if
        not
          (Association.equal
             (Distributed.Online.assoc na)
             (Distributed.Online.assoc nb))
      then Alcotest.fail "associations differ";
      Alcotest.(check int) "moves" sa.Distributed.Online.moves
        sb.Distributed.Online.moves;
      Alcotest.(check int) "rounds" sa.Distributed.Online.rounds
        sb.Distributed.Online.rounds;
      check_float_arrays "loads"
        (Array.copy (Distributed.Online.loads na))
        (Array.copy (Distributed.Online.loads nb));
      true)

(* ------------------------------------------------------------------ *)
(* Path-loss models: grid = all-pairs under every model family         *)
(* ------------------------------------------------------------------ *)

(* Each Rate_model family, including a low-antenna two-ray whose d⁴
   crossover (≈ 486 m at 5.8 GHz) falls inside the 500 m test area, so
   the ground-reflection branch is actually exercised, and log-distance
   with seeded shadowing (per-link split-RNG draws). The grid compile
   sizes its bucket grid from the model's max_range, so these pin the
   grid against every range the models produce. *)
let phy_models =
  [
    ("friis", Rate_model.friis ());
    ("two-ray", Rate_model.two_ray ());
    ("two-ray-low", Rate_model.two_ray ~ap_height_m:2. ~user_height_m:1. ());
    ("log-distance", Rate_model.log_distance ());
    ( "log-shadow",
      Rate_model.log_distance
        ~shadowing:{ Rate_model.sigma_db = 4.; seed = 7 }
        () );
  ]

let qcheck_model_reprs =
  List.map
    (fun (name, m) ->
      QCheck.Test.make
        ~name:("grid compile = brute-force all-pairs compile under " ^ name)
        ~count:25
        QCheck.(int_range 0 10_000)
        (reprs_agree ~rate_model:m))
    phy_models

let qcheck_model_solvers =
  List.concat_map
    (fun (name, m) ->
      [
        QCheck.Test.make
          ~name:("MLA: dense = sparse under " ^ name)
          ~count:15
          QCheck.(int_range 0 10_000)
          (solver_differential ~rate_model:m ~label:("MLA/" ^ name) Mla.run);
        QCheck.Test.make
          ~name:("MNU: dense = sparse under " ^ name)
          ~count:15
          QCheck.(int_range 0 10_000)
          (solver_differential ~rate_model:m ~label:("MNU/" ^ name) (fun p ->
               Mnu.run p));
        QCheck.Test.make
          ~name:("Distributed: dense = sparse under " ^ name)
          ~count:15
          QCheck.(int_range 0 10_000)
          (distributed_differential ~rate_model:m
             ~scheduler:Distributed.Sequential
             ~objective:Distributed.Min_load_vector);
      ])
    phy_models

(* ------------------------------------------------------------------ *)
(* Churn-script replays                                                *)
(* ------------------------------------------------------------------ *)

let check_steps (a : Wlan_sim.Churn.step list) (b : Wlan_sim.Churn.step list) =
  Alcotest.(check int) "step count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Wlan_sim.Churn.step) (y : Wlan_sim.Churn.step) ->
      let same =
        Float.equal x.time y.time
        && x.events = y.events
        && x.reassociated = y.reassociated
        && x.interrupted = y.interrupted
        && x.rounds = y.rounds && x.moves = y.moves
        && x.converged = y.converged
        && x.oscillated = y.oscillated
        && Float.equal x.total_load y.total_load
        && Float.equal x.max_load y.max_load
        && Float.equal x.opt_total_load y.opt_total_load
        && Float.equal x.opt_max_load y.opt_max_load
      in
      if not same then Alcotest.failf "step at t=%g differs" x.time)
    a b

let churn_differential ~objective seed =
  let _, pd, ps = case ~seed () in
  let n_aps, n_users = Problem.dims pd in
  let rng = Random.State.make [| seed; 0x5c21b7 |] in
  let script =
    Churn_script.random ~rng ~n_aps ~n_users
      { Churn_script.default_gen with n_events = 5 + Random.State.int rng 25 }
  in
  let run p = Wlan_sim.Churn.run ~baseline:true ~objective ~script p in
  let a = run pd and b = run ps in
  if not (Association.equal a.Wlan_sim.Churn.assoc b.Wlan_sim.Churn.assoc)
  then Alcotest.fail "final associations differ";
  check_float_arrays "final loads" a.Wlan_sim.Churn.loads
    b.Wlan_sim.Churn.loads;
  check_steps a.Wlan_sim.Churn.steps b.Wlan_sim.Churn.steps;
  Alcotest.(check int) "total rounds" a.Wlan_sim.Churn.total_rounds
    b.Wlan_sim.Churn.total_rounds;
  Alcotest.(check int) "total moves" a.Wlan_sim.Churn.total_moves
    b.Wlan_sim.Churn.total_moves;
  (* the final effective instances answer identically too *)
  let ea = a.Wlan_sim.Churn.effective and eb = b.Wlan_sim.Churn.effective in
  fail_if "effective rate matrices differ"
    (Problem.rates_matrix ea <> Problem.rates_matrix eb);
  true

let qcheck_churn_mla =
  QCheck.Test.make ~name:"churn replay: dense = sparse (MLA rule)" ~count:30
    QCheck.(int_range 0 10_000)
    (churn_differential ~objective:Distributed.Min_total_load)

let qcheck_churn_bla =
  QCheck.Test.make ~name:"churn replay: dense = sparse (BLA rule)" ~count:30
    QCheck.(int_range 0 10_000)
    (churn_differential ~objective:Distributed.Min_load_vector)

(* ------------------------------------------------------------------ *)
(* Spatial-grid properties                                             *)
(* ------------------------------------------------------------------ *)

(* The hard cases by construction: users exactly at the 802.11a reach
   boundary (200 m), exactly at interior tier thresholds, and exactly
   on grid cell edges (the grid cell is the range, so 200-multiples are
   both). *)
let test_grid_exact_boundaries () =
  let range = Rate_table.range Rate_table.default in
  Alcotest.(check (float 0.)) "802.11a range" 200. range;
  let ap_pos = [| Point.v 0. 0.; Point.v 400. 0.; Point.v 200. 200. |] in
  (* user on a cell corner, exactly [range] from APs 0 and 1, and
     exactly 200 from AP 2 *)
  let user = Point.v 200. 0. in
  let sc =
    Scenario.make ~area_w:400. ~area_h:400. ~ap_pos ~user_pos:[| user |]
      ~user_session:[| 0 |]
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:1.)
      ~budget:0.9 ()
  in
  let ps = Scenario.to_problem sc in
  Alcotest.(check (list int)) "all three boundary APs found" [ 0; 1; 2 ]
    (Problem.neighbor_aps ps 0);
  Alcotest.(check (list int)) "boundary agrees with all-pairs"
    (Problem.neighbor_aps (All_pairs.problem sc) 0)
    (Problem.neighbor_aps ps 0);
  (* the boundary rate is the lowest tier *)
  Alcotest.(check (float 0.)) "boundary rate" 6.
    (Problem.link_rate ps ~ap:0 ~user:0);
  (* one millimeter past the reach: gone, exactly like the all-pairs
     compile *)
  let sc' =
    Scenario.make ~area_w:400. ~area_h:400. ~ap_pos
      ~user_pos:[| Point.v 200.001 0. |] ~user_session:[| 0 |]
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:1.)
      ~budget:0.9 ()
  in
  let pd' = All_pairs.problem sc' and ps' = Scenario.to_problem sc' in
  Alcotest.(check (list int)) "past-reach agrees with all-pairs"
    (Problem.neighbor_aps pd' 0)
    (Problem.neighbor_aps ps' 0)

let arb_points =
  QCheck.make
    QCheck.Gen.(
      let* n = int_range 1 40 in
      let* seed = int_range 0 1_000_000 in
      return
        (let rng = Random.State.make [| seed; 0x9a1d |] in
         Array.init n (fun _ ->
             (* cluster near cell edges: multiples of the 200 m cell are
                overrepresented to stress boundary handling *)
             let coord () =
               if Random.State.bool rng then
                 200. *. float_of_int (Random.State.int rng 5)
               else Random.State.float rng 1000.
             in
             Point.v (coord ()) (coord ()))))

(* The indices [Grid.iter_block] visits around [q], in visit order. *)
let block grid q =
  let acc = ref [] in
  Sparse.Grid.iter_block grid q (fun i -> acc := i :: !acc);
  List.rev !acc

let cell_key v = int_of_float (Float.floor (v /. 200.))

let qcheck_grid_no_false_negatives =
  QCheck.Test.make ~name:"grid probe: every in-range point is returned"
    ~count:200 arb_points (fun pts ->
      let cell = 200. in
      let grid = Sparse.Grid.build ~cell pts in
      Array.for_all
        (fun q ->
          let found = block grid q in
          Array.for_all
            (fun i ->
              Point.dist pts.(i) q > cell || List.mem i found)
            (Array.init (Array.length pts) Fun.id))
        pts)

(* The block is exactly the points of the nine cells around the probe,
   each visited once, cell by cell and ascending within a cell. *)
let qcheck_grid_block_exact =
  QCheck.Test.make
    ~name:"grid block: the nine cells' points, once each, ascending per cell"
    ~count:200 arb_points (fun pts ->
      let grid = Sparse.Grid.build ~cell:200. pts in
      let key (p : Point.t) = (cell_key p.y, cell_key p.x) in
      Array.for_all
        (fun (q : Point.t) ->
          let r0, c0 = key q in
          let near k k0 = k = k0 - 1 || k = k0 || k = k0 + 1 in
          let expected =
            List.filter
              (fun i ->
                let r, c = key pts.(i) in
                near r r0 && near c c0)
              (List.init (Array.length pts) Fun.id)
          in
          let found = block grid q in
          let rec ascending_per_cell = function
            | a :: (b :: _ as rest) ->
                (key pts.(a) <> key pts.(b) || a < b) && ascending_per_cell rest
            | _ -> true
          in
          List.sort Int.compare found = expected && ascending_per_cell found)
        pts)

let qcheck_grid_permutation_invariant =
  QCheck.Test.make
    ~name:"grid build: position-permutation invariant candidate sets"
    ~count:200 arb_points (fun pts ->
      let n = Array.length pts in
      (* deterministic pseudo-shuffle of the indices *)
      let perm = Array.init n Fun.id in
      let rng = Random.State.make [| n; 0x7e21 |] in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let shuffled = Array.map (fun i -> pts.(i)) perm in
      let g1 = Sparse.Grid.build ~cell:200. pts in
      let g2 = Sparse.Grid.build ~cell:200. shuffled in
      Array.for_all
        (fun q ->
          let original = List.sort Int.compare (block g1 q) in
          (* map shuffled indices back to original ones *)
          let mapped =
            List.sort Int.compare (List.map (fun i -> perm.(i)) (block g2 q))
          in
          original = mapped)
        pts)

(* Co-located AP/user pairs at extreme coordinates. At
   ±9.223372036854775808e20 (= 2^63 m) a 200 m cell key is ±2^62, past
   the largest OCaml int, so it wraps and the block's neighbouring keys
   wrap with it; at ±1e300 the key conversion overflows outright. The
   per-cell lookup still finds the pair's own cell, so every pair links
   at distance 0, as in the all-pairs compile. *)
let test_grid_extreme_coordinates () =
  let xs = [ 9.223372036854775808e20; -9.223372036854775808e20; 1e300; -1e300 ] in
  let pts =
    Array.of_list
      (List.concat_map (fun x -> [ Point.v x 0.; Point.v 0. x; Point.v x x ]) xs)
  in
  let sc =
    Scenario.make ~area_w:1. ~area_h:1. ~ap_pos:pts ~user_pos:pts
      ~user_session:(Array.make (Array.length pts) 0)
      ~sessions:(Session.uniform ~n:1 ~rate_mbps:1.)
      ~budget:0.9 ()
  in
  let ps = Scenario.to_problem sc in
  Array.iteri
    (fun u _ ->
      Alcotest.(check (list int))
        (Fmt.str "user %d hears its co-located AP" u)
        [ u ] (Problem.neighbor_aps ps u))
    pts;
  planes_agree (All_pairs.problem sc) ps;
  Alcotest.(check (list int)) "no user uncovered" [] (Scenario.uncovered_users sc)

(* ------------------------------------------------------------------ *)
(* Shard/halo reconciliation                                           *)
(* ------------------------------------------------------------------ *)

let shard_matches_unsharded ~objective seed =
  let sc, pd, ps = case ~seed () in
  let unsharded =
    Distributed.run ~scheduler:Distributed.Sequential ~objective ps
  in
  let check label (r : Shard.result) =
    if not (Association.equal r.Shard.assoc unsharded.Distributed.assoc) then
      Alcotest.failf "%s: association differs from unsharded" label;
    Alcotest.(check int) (label ^ " moves") unsharded.Distributed.moves
      r.Shard.moves;
    check_float_arrays (label ^ " loads")
      (Loads.ap_loads ps unsharded.Distributed.assoc)
      (Loads.ap_loads ps r.Shard.assoc)
  in
  check "candidate plan (grid)" (Shard.solve ~objective ps);
  check "candidate plan (all-pairs)" (Shard.solve ~objective pd);
  let radius = 2. *. Rate_table.range sc.Scenario.rate_table in
  let gplan =
    Shard.plan_geometric ~ap_pos:sc.Scenario.ap_pos
      ~interaction_radius:radius ps
  in
  check "geometric plan" (Shard.solve ~plan:gplan ~objective ps);
  true

let qcheck_shard_total =
  QCheck.Test.make ~name:"sharded solve = unsharded (total-load)" ~count:40
    QCheck.(int_range 0 10_000)
    (shard_matches_unsharded ~objective:Distributed.Min_total_load)

let qcheck_shard_vector =
  QCheck.Test.make ~name:"sharded solve = unsharded (load-vector)" ~count:40
    QCheck.(int_range 0 10_000)
    (shard_matches_unsharded ~objective:Distributed.Min_load_vector)

(* The sub-instance as [Shard.extract] used to assemble it: per-user
   candidate lists, reindexed, through [of_lists]. The CSR slice must
   equal it plane for plane and count the same build. *)
let list_extract p (sh : Shard.shard) =
  let n_aps, _ = Problem.dims p in
  let ap_local = Array.make n_aps (-1) in
  Array.iteri (fun la a -> ap_local.(a) <- la) sh.Shard.aps;
  let links =
    Array.map
      (fun u ->
        let acc = ref [] in
        Problem.iter_candidates p u (fun a r sg ->
            acc := (ap_local.(a), r, sg) :: !acc);
        List.rev !acc)
      sh.Shard.users
  in
  let sparse = of_lists ~n_aps:(Array.length sh.Shard.aps) ~links in
  Problem.make_sparse
    ?ap_budgets:
      (Option.map
         (fun b -> Array.map (fun a -> b.(a)) sh.Shard.aps)
         p.Problem.ap_budgets)
    ~session_rates:(Array.copy p.Problem.session_rates)
    ~user_session:(Array.map (Problem.user_session p) sh.Shard.users)
    ~sparse ~budget:(Problem.budget p) ()

let build_counters =
  List.map Wlan_obs.Counters.make
    [ "sparse.builds"; "sparse.candidate_list_len" ]

let counted f =
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Wlan_obs.Counters.set_enabled false) f
  in
  (r, List.map Wlan_obs.Counters.value build_counters)

(* A shard holding every AP and every user of an instance whose every
   slot is in range is the instance: [Shard.extract] returns it
   physically and builds nothing. Every other shard equals the list
   build plane for plane and counts the same build. *)
let check_slices label p =
  let n_aps, n_users = Problem.dims p in
  let in_range = ref 0 in
  for u = 0 to n_users - 1 do
    Problem.iter_candidates p u (fun _ _ _ -> incr in_range)
  done;
  let no_loss = !in_range = Sparse.n_links p.Problem.links in
  List.iter
    (fun (sh : Shard.shard) ->
      let sliced, c_sliced = counted (fun () -> Shard.extract p sh) in
      if
        no_loss
        && Array.length sh.Shard.aps = n_aps
        && Array.length sh.Shard.users = n_users
      then begin
        if sliced != p then
          Alcotest.failf "%s: the full shard is not the instance itself" label;
        Alcotest.(check (list int))
          (Fmt.str "%s: the full shard builds nothing" label)
          [ 0; 0 ] c_sliced
      end
      else begin
        let listed, c_listed = counted (fun () -> list_extract p sh) in
        if listed <> sliced then
          Alcotest.failf "%s: shard %d slice differs from the list build"
            label sh.Shard.id;
        Alcotest.(check (list int))
          (Fmt.str "%s: shard %d build counters" label sh.Shard.id)
          c_listed c_sliced
      end)
    (Shard.plan p).Shard.shards

(* Random geometric cases with lost links (a fifth of the in-range
   slots zeroed, so some users keep only lost slots and fall out of
   every shard) and, half the time, per-AP budgets. *)
let slice_matches seed =
  let _, _, ps = case ~seed () in
  check_slices "random, no loss" ps;
  let rng = Random.State.make [| seed; 0x511ce |] in
  let n_aps, n_users = Problem.dims ps in
  let p =
    if Random.State.bool rng then
      Problem.with_ap_budgets ps
        (Array.init n_aps (fun _ -> Random.State.float rng 1.))
    else ps
  in
  let p = Problem.copy_for_mutation p in
  for u = 0 to n_users - 1 do
    List.iter
      (fun a ->
        if Random.State.int rng 5 = 0 then
          Problem.set_link_rate p ~ap:a ~user:u 0.)
      (Problem.neighbor_aps p u)
  done;
  check_slices "random" p;
  true

let qcheck_slice =
  QCheck.Test.make ~name:"CSR shard slice = list-built sub-instance"
    ~count:60
    QCheck.(int_range 0 10_000)
    slice_matches

(* Every shard's covering instance, built straight from the parent's
   planes, = the reduction of the extracted sub-instance: the same sets
   (members), costs, groups and payloads in the same order, and the same
   universe, with and without the budget filter — on the cases of
   [slice_matches]: random multi-shard instances with lost links and,
   half the time, per-AP budgets. *)
let check_shard_covers label p =
  let _, n_users = Problem.dims p in
  let pl = Shard.plan p in
  let local = Array.make n_users (-1) in
  List.iter
    (fun (sh : Shard.shard) ->
      Array.iteri (fun lu u -> local.(u) <- lu) sh.Shard.users)
    pl.Shard.shards;
  let module C = Optkit.Cover_instance in
  List.iter
    (fun (sh : Shard.shard) ->
      let sub = Shard.extract p sh in
      List.iter
        (fun filter_over_budget ->
          let what =
            Fmt.str "%s: shard %d, filter %b" label sh.Shard.id
              filter_over_budget
          in
          let a, universe =
            Reduction.shard_cover ~filter_over_budget p ~aps:sh.Shard.aps
              ~local ~n_local:(Array.length sh.Shard.users)
          in
          let b = Reduction.cover_instance ~filter_over_budget sub in
          Alcotest.(check int) (what ^ ": sets") (C.n_sets b) (C.n_sets a);
          Alcotest.(check int) (what ^ ": groups") (C.n_groups b) (C.n_groups a);
          Alcotest.(check int) (what ^ ": elements") (C.n_elements b)
            (C.n_elements a);
          for j = 0 to C.n_sets a - 1 do
            if not (Optkit.Bitset.equal (C.set a j) (C.set b j)) then
              Alcotest.failf "%s: members of set %d differ" what j;
            if not (Float.equal (C.cost a j) (C.cost b j)) then
              Alcotest.failf "%s: cost %d differs" what j;
            if C.group a j <> C.group b j then
              Alcotest.failf "%s: group %d differs" what j;
            let x = C.payload a j and y = C.payload b j in
            if
              x.Reduction.ap <> y.Reduction.ap
              || x.Reduction.session <> y.Reduction.session
              || not (Float.equal x.Reduction.tx_rate y.Reduction.tx_rate)
            then Alcotest.failf "%s: payload %d differs" what j
          done;
          if
            not
              (Optkit.Bitset.equal universe (Reduction.coverable_users sub))
          then Alcotest.failf "%s: universe differs" what)
        [ false; true ])
    pl.Shard.shards

let shard_covers_match seed =
  let _, _, ps = case ~seed () in
  check_shard_covers "random, no loss" ps;
  let rng = Random.State.make [| seed; 0xc0fe |] in
  let n_aps, n_users = Problem.dims ps in
  let p =
    if Random.State.bool rng then
      Problem.with_ap_budgets ps
        (Array.init n_aps (fun _ -> Random.State.float rng 1.))
    else ps
  in
  let p = Problem.copy_for_mutation p in
  for u = 0 to n_users - 1 do
    List.iter
      (fun a ->
        if Random.State.int rng 5 = 0 then
          Problem.set_link_rate p ~ap:a ~user:u 0.)
      (Problem.neighbor_aps p u)
  done;
  check_shard_covers "random" p;
  true

let qcheck_shard_cover =
  QCheck.Test.make ~name:"shard cover from the parent = cover of the extract"
    ~count:60
    QCheck.(int_range 0 10_000)
    shard_covers_match

(* [iter_member_users] walks an AP with no lost slot without reading
   rates, so the per-AP lost counts must follow every rate write: links
   lost and re-armed at random, then masked, rate-mapped to zero and
   copied, each checked against [iter_members]. *)
let member_users_skip_lost seed =
  let _, _, ps = case ~seed () in
  let rng = Random.State.make [| seed; 0x1057 |] in
  let n_aps, n_users = Problem.dims ps in
  let check what (l : Sparse.t) =
    for a = 0 to n_aps - 1 do
      let by_rate = ref [] and users = ref [] in
      Sparse.iter_members l a (fun u _ -> by_rate := u :: !by_rate);
      Sparse.iter_member_users l a (fun u -> users := u :: !users);
      Alcotest.(check (list int)) (Fmt.str "%s AP %d" what a) !by_rate !users
    done
  in
  let p = Problem.copy_for_mutation ps in
  for _ = 1 to 4 * n_users do
    let u = Random.State.int rng n_users in
    match Problem.neighbor_aps ps u with
    | [] -> ()
    | aps ->
        let a = List.nth aps (Random.State.int rng (List.length aps)) in
        Problem.set_link_rate p ~ap:a ~user:u
          [| 0.; 0.; 6.; 54. |].(Random.State.int rng 4)
  done;
  check "mutated" p.Problem.links;
  let copy = Sparse.copy_values p.Problem.links in
  Problem.iter_candidates p 0 (fun a _ _ -> Sparse.set_rate copy ~ap:a ~user:0 0.);
  check "copy" copy;
  check "original after the copy's writes" p.Problem.links;
  let alive = Array.init n_aps (fun _ -> Random.State.bool rng) in
  let present = Array.init n_users (fun _ -> Random.State.bool rng) in
  check "masked"
    (Sparse.masked p.Problem.links ~ap_alive:alive ~user_present:present);
  check "mapped to zero"
    (Sparse.map_rates p.Problem.links (fun r -> if r > 10. then 0. else r));
  true

let qcheck_member_users =
  QCheck.Test.make ~name:"member users skip lost slots" ~count:60
    QCheck.(int_range 0 10_000)
    member_users_skip_lost

(* Three shards: a single-user one (AP 0), one whose user 2 keeps only
   a lost slot to AP 2, and one with a lost slot to a shard-mate; with
   per-AP budgets. A user hearing an AP outside the slice is refused.
   Then a one-shard instance, whole and with a link lost. *)
let test_slice_edge_cases () =
  let rates =
    [|
      [| 6.; 0.; 0.; 0.; 0. |];
      [| 0.; 12.; 0.; 24.; 0. |];
      [| 0.; 54.; 9.; 0.; 0. |];
      [| 0.; 0.; 0.; 0.; 18. |];
      [| 0.; 0.; 0.; 0.; 36. |];
    |]
  in
  let p =
    Problem.make ~allow_uncovered:true ~ap_budgets:[| 0.1; 0.2; 0.3; 0.4; 0.5 |]
      ~session_rates:[| 1.; 2. |] ~user_session:[| 0; 1; 0; 1; 0 |] ~rates
      ~budget:0.9 ()
  in
  let p = Problem.copy_for_mutation p in
  Problem.set_link_rate p ~ap:2 ~user:2 0.;
  Problem.set_link_rate p ~ap:4 ~user:4 0.;
  let pl = Shard.plan p in
  Alcotest.(check (list (list int))) "shard users"
    [ [ 0 ]; [ 1; 3 ]; [ 4 ] ]
    (List.map (fun (sh : Shard.shard) -> Array.to_list sh.Shard.users) pl.Shard.shards);
  check_slices "edge cases" p;
  let sub = Shard.extract p (List.hd pl.Shard.shards) in
  Alcotest.(check (pair int int)) "single-user shard dims" (1, 1) (Problem.dims sub);
  Alcotest.(check (float 0.)) "sliced budget" 0.1 (Problem.ap_budget sub 0);
  Alcotest.check_raises "user outside the slice"
    (Invalid_argument
       "Sparse.restrict: user 1 hears AP 2 outside the restriction")
    (fun () ->
      ignore (Sparse.restrict p.Problem.links ~aps:[| 1 |] ~users:[| 1 |]));
  (* one shard holding everything: the instance itself, until a link
     is lost (user 1 still hears AP 0, so the shard stays full) *)
  let whole =
    Problem.make ~session_rates:[| 1. |] ~user_session:[| 0; 0 |]
      ~rates:[| [| 6.; 12. |]; [| 0.; 24. |] |]
      ~budget:0.9 ()
  in
  let sh = List.hd (Shard.plan whole).Shard.shards in
  Alcotest.(check bool) "whole instance" true (Shard.extract whole sh == whole);
  check_slices "one full shard" whole;
  let lossy = Problem.copy_for_mutation whole in
  Problem.set_link_rate lossy ~ap:1 ~user:1 0.;
  Alcotest.(check int) "still one full shard" 2
    (Array.length (List.hd (Shard.plan lossy).Shard.shards).Shard.users);
  Alcotest.(check bool) "a lost link is sliced away" false
    (Shard.extract lossy sh == lossy);
  check_slices "one full shard, a link lost" lossy

(* fig9a-size: the paper's 200x400 scale, sharded across pool domains. *)
let test_shard_fig9a_jobs () =
  let sc =
    Scenario_gen.generate
      ~rng:(Scenario_gen.scenario_rng ~seed:2007 0)
      Scenario_gen.paper_default
  in
  let ps = Scenario.to_problem sc in
  let objective = Distributed.Min_load_vector in
  let unsharded =
    Distributed.run ~scheduler:Distributed.Sequential ~objective ps
  in
  List.iter
    (fun jobs ->
      let r =
        Harness.Pool.with_pool ~jobs (fun pool ->
            Shard.solve ~fanout:(Harness.Pool.run pool) ~objective ps)
      in
      if not (Association.equal r.Shard.assoc unsharded.Distributed.assoc)
      then Alcotest.failf "jobs=%d: association differs from unsharded" jobs;
      check_float_arrays
        (Fmt.str "jobs=%d loads" jobs)
        (Loads.ap_loads ps unsharded.Distributed.assoc)
        (Loads.ap_loads ps r.Shard.assoc))
    [ 1; 2; 4 ]

(* Same fan-out discipline under a shadowed path-loss model: the
   geometric plan's interaction radius comes from the model's
   max_range (via Scenario.range), and the merged solve is identical
   to the unsharded one at jobs 1, 2 and 4. *)
let test_shard_phy_jobs () =
  let model =
    Rate_model.log_distance
      ~shadowing:{ Rate_model.sigma_db = 4.; seed = 11 }
      ()
  in
  let sc =
    Scenario_gen.generate
      ~rng:(Scenario_gen.scenario_rng ~seed:2008 0)
      {
        Scenario_gen.paper_default with
        n_aps = 60;
        n_users = 200;
        rate_model = Some model;
        ensure_coverage = false;
      }
  in
  let ps = Scenario.to_problem sc in
  let objective = Distributed.Min_load_vector in
  let unsharded =
    Distributed.run ~scheduler:Distributed.Sequential ~objective ps
  in
  let pl =
    Shard.plan_geometric ~ap_pos:sc.Scenario.ap_pos
      ~interaction_radius:(2. *. Scenario.range sc)
      ps
  in
  List.iter
    (fun jobs ->
      let r =
        Harness.Pool.with_pool ~jobs (fun pool ->
            Shard.solve ~plan:pl ~fanout:(Harness.Pool.run pool) ~objective ps)
      in
      if not (Association.equal r.Shard.assoc unsharded.Distributed.assoc)
      then Alcotest.failf "jobs=%d: association differs from unsharded" jobs;
      check_float_arrays
        (Fmt.str "jobs=%d loads" jobs)
        (Loads.ap_loads ps unsharded.Distributed.assoc)
        (Loads.ap_loads ps r.Shard.assoc))
    [ 1; 2; 4 ]

(* The city golden: 2000 APs x 40000 users, never dense anywhere. The
   digest covers the merged association and the shard structure; equal
   at jobs 1 and 4 and pinned to the committed golden. *)
let city_digest ~jobs ps pl =
  let r =
    Harness.Pool.with_pool ~jobs (fun pool ->
        Shard.solve ~plan:pl ~fanout:(Harness.Pool.run pool) ~max_rounds:8
          ~objective:Distributed.Min_load_vector ps)
  in
  let buf = Buffer.create (1 lsl 18) in
  Buffer.add_string buf
    (Fmt.str "city 2000x40000 shards=%d rounds=%d moves=%d@." r.Shard.n_shards
       r.Shard.rounds r.Shard.moves);
  List.iter
    (fun (sh : Shard.shard) ->
      Buffer.add_string buf
        (Fmt.str "shard %d: %d aps %d users@." sh.Shard.id
           (Array.length sh.Shard.aps)
           (Array.length sh.Shard.users)))
    pl.Shard.shards;
  Array.iter (fun a -> Buffer.add_string buf (Fmt.str "%d," a)) r.Shard.assoc;
  digest (Buffer.contents buf)

let test_city_golden () =
  let sc = Scenario_gen.city ~seed:2007 Scenario_gen.city_default in
  let ps = Scenario.to_problem sc in
  let pl =
    Shard.plan_geometric ~ap_pos:sc.Scenario.ap_pos
      ~interaction_radius:(2. *. Rate_table.range sc.Scenario.rate_table)
      ps
  in
  let d1 = city_digest ~jobs:1 ps pl in
  let d4 = city_digest ~jobs:4 ps pl in
  Alcotest.(check string) "j1 = j4" d1 d4;
  Alcotest.(check string) "matches committed golden"
    (read_golden "golden/city_shard.digest")
    d1

(* The compile golden: both CSR planes of a city and of a shadowed
   log-distance scenario, every float printed [%h], so any change to the
   compile (slot order, a dropped or extra link, a rate or signal off by
   one ulp) fails it. Each user's candidate slots and each AP's member
   slots are hashed line by line, and the line hashes are hashed. *)
let compile_digest ps =
  let links = ps.Problem.links in
  let n_aps, n_users = Problem.dims ps in
  let lines = Buffer.create (16 * (n_aps + n_users + 1)) in
  let line s = Buffer.add_string lines (Digest.string s) in
  line (Fmt.str "%d aps %d users %d links" n_aps n_users (Sparse.n_links links));
  for u = 0 to n_users - 1 do
    let b = Buffer.create 256 in
    Buffer.add_string b (Fmt.str "u%d/%d:" u (Sparse.degree links u));
    Sparse.iter_candidates links u (fun a r s ->
        Buffer.add_string b
          (Fmt.str " %d@%d %h %h" a (Sparse.find_slot links ~ap:a ~user:u) r s));
    line (Buffer.contents b)
  done;
  for a = 0 to n_aps - 1 do
    let b = Buffer.create 256 in
    Buffer.add_string b (Fmt.str "a%d:" a);
    Sparse.iter_members links a (fun u r ->
        Buffer.add_string b
          (Fmt.str " %d@%d %h" u (Sparse.find_slot links ~ap:a ~user:u) r));
    line (Buffer.contents b)
  done;
  digest (Buffer.contents lines)

let test_compile_golden () =
  let city = Scenario_gen.city ~seed:2007 Scenario_gen.city_default in
  let shadowed =
    Scenario_gen.generate
      ~rng:(Scenario_gen.scenario_rng ~seed:2009 0)
      {
        Scenario_gen.paper_default with
        n_aps = 120;
        n_users = 1500;
        rate_model =
          Some
            (Rate_model.log_distance
               ~shadowing:{ Rate_model.sigma_db = 6.; seed = 13 }
               ());
        ensure_coverage = false;
      }
  in
  let d =
    Fmt.str "city %s@.log-shadow %s@."
      (compile_digest (Scenario.to_problem city))
      (compile_digest (Scenario.to_problem shadowed))
  in
  Alcotest.(check string) "matches committed golden"
    (read_golden "golden/city_compile.digest")
    (digest d)

(* ------------------------------------------------------------------ *)
(* validate: empty candidate lists                                     *)
(* ------------------------------------------------------------------ *)

let test_validate_rejects_uncovered () =
  let expect_reject what f =
    try
      ignore (f ());
      Alcotest.failf "%s: expected Invalid_argument" what
    with Invalid_argument msg ->
      if not (Astring.String.is_infix ~affix:"empty candidate list" msg) then
        Alcotest.failf "%s: unexpected message %S" what msg
  in
  (* matrix path *)
  expect_reject "dense" (fun () ->
      Problem.make ~session_rates:[| 1. |] ~user_session:[| 0; 0 |]
        ~rates:[| [| 6.; 0. |] |] ~budget:0.9 ());
  (* sparse path: a slot-less user and a user whose only slot is a lost
     link are both uncovered *)
  expect_reject "sparse, no slots" (fun () ->
      Problem.make_sparse ~session_rates:[| 1. |] ~user_session:[| 0; 0 |]
        ~sparse:(of_lists ~n_aps:1 ~links:[| [ (0, 6., 6.) ]; [] |])
        ~budget:0.9 ());
  expect_reject "sparse, lost link" (fun () ->
      Problem.make_sparse ~session_rates:[| 1. |] ~user_session:[| 0; 0 |]
        ~sparse:
          (of_lists ~n_aps:1 ~links:[| [ (0, 6., 6.) ]; [ (0, 0., 6.) ] |])
        ~budget:0.9 ());
  (* the geometric escape hatch accepts both *)
  let pd =
    Problem.make ~allow_uncovered:true ~session_rates:[| 1. |]
      ~user_session:[| 0; 0 |] ~rates:[| [| 6.; 0. |] |] ~budget:0.9 ()
  in
  let ps =
    Problem.make_sparse ~allow_uncovered:true ~session_rates:[| 1. |]
      ~user_session:[| 0; 0 |]
      ~sparse:(of_lists ~n_aps:1 ~links:[| [ (0, 6., 6.) ]; [] |])
      ~budget:0.9 ()
  in
  Alcotest.(check (list int)) "dense coverable" [ 0 ]
    (Problem.coverable_users pd);
  Alcotest.(check (list int)) "sparse coverable" [ 0 ]
    (Problem.coverable_users ps)

let test_sparse_cannot_grow () =
  let s = of_lists ~n_aps:2 ~links:[| [ (0, 6., 6.) ] |] in
  (* re-arming a lost slot and zeroing an absent link are fine *)
  Sparse.set_rate s ~ap:0 ~user:0 0.;
  Sparse.set_rate s ~ap:0 ~user:0 9.;
  Sparse.set_rate s ~ap:1 ~user:0 0.;
  Alcotest.(check (float 0.)) "re-armed" 9. (Sparse.link_rate s ~ap:0 ~user:0);
  (* growing an absent link is not *)
  try
    Sparse.set_rate s ~ap:1 ~user:0 6.;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_reprs_agree;
      qcheck_ssa;
      qcheck_mnu;
      qcheck_mla;
      qcheck_mla_layered;
      qcheck_bla;
      qcheck_dist_seq_total;
      qcheck_dist_seq_vector;
      qcheck_dist_sim;
      qcheck_online;
      qcheck_churn_mla;
      qcheck_churn_bla;
      qcheck_grid_no_false_negatives;
      qcheck_grid_block_exact;
      qcheck_grid_permutation_invariant;
      qcheck_shard_total;
      qcheck_shard_vector;
      qcheck_slice;
      qcheck_shard_cover;
      qcheck_member_users;
    ]

let qcheck_model_cases =
  List.map QCheck_alcotest.to_alcotest
    (qcheck_model_reprs @ qcheck_model_solvers)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sparse"
    [
      ("differential", qcheck_cases);
      ("phy_models", qcheck_model_cases);
      ( "grid",
        [
          tc "exact reach and cell boundaries" test_grid_exact_boundaries;
          tc "co-located pairs at extreme coordinates"
            test_grid_extreme_coordinates;
        ] );
      ( "shard",
        [
          tc "fig9a scale, jobs 1/2/4" test_shard_fig9a_jobs;
          tc "city 2000x40000 golden, j1 = j4" test_city_golden;
          tc "compile planes golden" test_compile_golden;
          tc "path-loss model, jobs 1/2/4" test_shard_phy_jobs;
          tc "CSR slice edge cases" test_slice_edge_cases;
        ] );
      ( "validate",
        [
          tc "empty candidate lists rejected" test_validate_rejects_uncovered;
          tc "sparse slots cannot grow" test_sparse_cannot_grow;
        ] );
    ]
