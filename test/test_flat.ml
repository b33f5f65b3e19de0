(* The flat-kernel differential battery (PR 8): the structure-of-arrays
   greedy cores and the shard-aware centralized reductions are proven
   bit-identical to their reference implementations.

   - Distributed kernel (qcheck): [Distributed.run] (the [Online]
     dirty-set drain over preallocated scratch planes with
     hypothetical-load caching) = the boxed reference loop of boxed.ml,
     which re-decides every user every round through [Boxed.decide]
     (the list-and-array rule over eager load scans), on the all-pairs
     and grid compiles, both objectives,
     Sequential, Simultaneous and Locked — full outcome including float
     loads.
   - Both rules on a tie-heavy family (qcheck): up to 40 APs in a
     300 m square (neighborhoods up to 40 APs), one session (loads are
     sums of 1/tier terms, so equal entries abound) and budgets up to
     2.0 — runs under all three schedulers and [Online] settles under
     churn, against the boxed oracle; and the load-vector
     sorted-base-with-one-entry-replaced step against a full
     descending sort on arrays full of duplicates and zeros.
   - Online kernel (qcheck): a seeded delta script (arrive / depart /
     set_rate / fail_ap / recover_ap, settling after each burst) driven
     through an [Online] network and mirrored on a shadow instance
     stays in lockstep with the boxed loop run on the shadow's
     effective instance: identical associations, loads and settle stats
     after every burst, for both rules and both settle modes.
   - Sharded centralized MNU/BLA (qcheck): [Shard.solve_mnu] (so
     [Mnu.run]) = one budgeted greedy over the whole instance,
     [Shard.solve_bla] on the component plan = the same driver on one
     shard holding the whole instance, and [Bla.run] (= [Shard.solve_bla]
     on the component plan) = the exhaustive single-instance grid of
     scg_ref.ml, each in both budget modes, on the all-pairs and grid
     compiles, including wide-area instances whose plans have several
     shards.
   - Per-shard B* reuse in [Shard.solve_bla]: a heterogeneous
     multi-shard family against a from-scratch grid oracle (reuse is
     partial there), and constructed instances for an H2 round while a
     shard replays, the max-cost and 1e-9 guards, and a shard that never
     emptied at the top probe.
   - Cover build (qcheck): [Reduction.cover_instance]'s flat build = the
     [Set]-based reference of cover_ref.ml on both compiles of the
     random and dense families, with and without the budget filter,
     under uniform and per-AP budgets; and centralized BLA's minor words
     per MCG iteration and per cover build stay under budgets.
   - Pool fanout: fig9a-size sharded centralized solves at --jobs 1/2/4
     equal the sequential [Mnu.run] / [Bla.run].
   - City scale: the sharded centralized MNU and BLA associations on
     the 2000x40000 instance are pinned by golden j1==j4 digests (no
     AP x user matrix is ever allocated).
   - Total-load rule at storm degree: distributed MNU/MLA under all
     three schedulers on a 500x2000 paper-density instance (about 19
     APs per neighborhood) and an [Online] total-load delta stream are
     pinned by a golden digest, counters included. The gate that decides
     total-load comparisons from O(1) estimates is checked against exact
     folds near the 1e-9 boundary, and a storm settle's minor-heap words
     per decision are held under a budget for both rules.

   The optkit-level halves of the battery — MCG and SCG session rounds =
   a test-local eager rescan, arena-backed solves = fresh-allocation
   solves — live in test_optkit.ml next to the instance generators. *)

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

(* Same seed-indexed geometric case family as test_sparse.ml, compiled
   by the brute-force all-pairs loop and by the grid; [wide] spreads the
   same population over a 2 km square so the plan splits into several
   interaction components. *)
let case ?(wide = false) ~seed () =
  let rng = Random.State.make [| seed; 0x59a25e |] in
  let n_aps = 1 + Random.State.int rng 14 in
  let n_users = 1 + Random.State.int rng 30 in
  let n_sessions = 1 + Random.State.int rng 3 in
  let budget = [| 0.3; 0.9; 2.0 |].(Random.State.int rng 3) in
  let placement =
    if Random.State.bool rng then Scenario_gen.Uniform
    else Scenario_gen.Clustered { hotspots = 2; sigma_m = 80. }
  in
  let side = if wide then 2000. else 500. in
  let cfg =
    {
      Scenario_gen.paper_default with
      area_w = side;
      area_h = side;
      n_aps;
      n_users;
      n_sessions;
      budget;
      placement;
      ensure_coverage = false;
    }
  in
  let sc = Scenario_gen.generate ~rng:(Scenario_gen.scenario_rng ~seed 0) cfg in
  (sc, All_pairs.problem sc, Scenario.to_problem sc)

(* The tie-heavy, high-degree family: up to 40 APs in a 300 m square,
   so most users hear most APs, and a single session, so every load is
   a sum of [rate / tier] terms over a handful of Table 1 tiers and
   exactly equal vector entries are the rule. Budgets up to 2.0 leave
   most joins feasible. Compiled by both front ends, like [case]. *)
let dense_case ~seed =
  let rng = Random.State.make [| seed; 0x7e5a11 |] in
  let cfg =
    {
      Scenario_gen.paper_default with
      area_w = 300.;
      area_h = 300.;
      n_aps = 2 + Random.State.int rng 39;
      n_users = 1 + Random.State.int rng 50;
      n_sessions = 1;
      budget = [| 0.5; 1.0; 2.0 |].(Random.State.int rng 3);
      ensure_coverage = false;
    }
  in
  let sc = Scenario_gen.generate ~rng:(Scenario_gen.scenario_rng ~seed 0) cfg in
  (All_pairs.problem sc, Scenario.to_problem sc)

(* ------------------------------------------------------------------ *)
(* Distributed: flat kernel = boxed reference                          *)
(* ------------------------------------------------------------------ *)

let kernels_agree ~problems ~scheduler ~objective seed =
  List.iter
    (fun p ->
      let a = Distributed.run ~max_rounds:300 ~scheduler ~objective p in
      let b =
        Boxed.run ~max_rounds:300 ~scheduler ~objective p
          (Association.empty ~n_users:(snd (Problem.dims p)))
      in
      if not (Association.equal a.Distributed.assoc b.Distributed.assoc) then
        Alcotest.fail "associations differ";
      Alcotest.(check int) "rounds" a.Distributed.rounds b.Distributed.rounds;
      Alcotest.(check int) "moves" a.Distributed.moves b.Distributed.moves;
      Alcotest.(check bool) "converged" a.Distributed.converged
        b.Distributed.converged;
      Alcotest.(check bool) "oscillated" a.Distributed.oscillated
        b.Distributed.oscillated;
      check_float_arrays "loads"
        (Loads.ap_loads p a.Distributed.assoc)
        (Loads.ap_loads p b.Distributed.assoc))
    (problems seed);
  true

let case_problems seed =
  let _, pd, ps = case ~seed () in
  [ pd; ps ]

let dense_problems seed =
  let pd, ps = dense_case ~seed in
  [ pd; ps ]

let qcheck_kernels ?(problems = case_problems) ?(count = 30) ~label ~scheduler
    ~objective () =
  QCheck.Test.make
    ~name:(label ^ ": flat kernel = boxed kernel, full outcome")
    ~count
    QCheck.(int_range 0 10_000)
    (kernels_agree ~problems ~scheduler ~objective)

let qcheck_kernel_seq_total =
  qcheck_kernels ~label:"Distributed Sequential (total-load)"
    ~scheduler:Distributed.Sequential ~objective:Distributed.Min_total_load ()

let qcheck_kernel_seq_vector =
  qcheck_kernels ~label:"Distributed Sequential (load-vector)"
    ~scheduler:Distributed.Sequential ~objective:Distributed.Min_load_vector ()

let qcheck_kernel_sim =
  qcheck_kernels ~label:"Distributed Simultaneous"
    ~scheduler:Distributed.Simultaneous ~objective:Distributed.Min_total_load ()

let qcheck_dense_seq_vector =
  qcheck_kernels ~problems:dense_problems ~count:20
    ~label:"Dense ties, Sequential (load-vector)"
    ~scheduler:Distributed.Sequential ~objective:Distributed.Min_load_vector ()

let qcheck_dense_sim_vector =
  qcheck_kernels ~problems:dense_problems ~count:20
    ~label:"Dense ties, Simultaneous (load-vector)"
    ~scheduler:Distributed.Simultaneous ~objective:Distributed.Min_load_vector
    ()

let qcheck_dense_seq_total =
  qcheck_kernels ~problems:dense_problems ~count:20
    ~label:"Dense ties, Sequential (total-load)"
    ~scheduler:Distributed.Sequential ~objective:Distributed.Min_total_load ()

let qcheck_dense_sim_total =
  qcheck_kernels ~problems:dense_problems ~count:20
    ~label:"Dense ties, Simultaneous (total-load)"
    ~scheduler:Distributed.Simultaneous ~objective:Distributed.Min_total_load ()

(* Locked: the rotating scan origin and the neighborhood locks, on both
   families and both rules. *)
let qcheck_kernel_locked =
  List.concat_map
    (fun (rule, objective) ->
      [
        qcheck_kernels
          ~label:(Fmt.str "Distributed Locked (%s)" rule)
          ~scheduler:Distributed.Locked ~objective ();
        qcheck_kernels ~problems:dense_problems ~count:20
          ~label:(Fmt.str "Dense ties, Locked (%s)" rule)
          ~scheduler:Distributed.Locked ~objective ();
      ])
    [
      ("total-load", Distributed.Min_total_load);
      ("load-vector", Distributed.Min_load_vector);
    ]

(* The load-vector step: a sorted base with one entry replaced, by one
   insertion pass, equals the full descending sort of the same multiset
   (values from a short ladder with zeros, so duplicates abound), and
   agrees with the base below the index it returns. The slot-carrying
   sort matches [Boxed.sorted_load_vector] and returns a permutation. *)
let replace_matches_sort seed =
  let rng = Random.State.make [| seed; 0x5e1ec7 |] in
  let ladder = [| 0.; 0.; 0.125; 0.25; 0.25; 1. /. 3.; 0.5; 1.; 2. |] in
  let pick () = ladder.(Random.State.int rng (Array.length ladder)) in
  let n = 1 + Random.State.int rng 40 in
  let raw = Array.init n (fun _ -> pick ()) in
  let base = Array.copy raw and ord = Array.init n Fun.id in
  Loads.sort_prefix_desc base ord n;
  check_float_arrays "slot-carrying sort" base (Boxed.sorted_load_vector raw);
  Array.iteri
    (fun i k ->
      if not (Float.equal raw.(k) base.(i)) then
        Alcotest.failf "slot %d does not hold sorted entry %d" k i)
    ord;
  Alcotest.(check (list int)) "ord is a permutation" (List.init n Fun.id)
    (List.sort Int.compare (Array.to_list ord));
  for i = 0 to n - 1 do
    let x =
      if Random.State.bool rng then pick ()
      else base.(Random.State.int rng n)
    in
    let dst = Array.make (n + 3) nan in
    let lo = Loads.replace_sorted_prefix base n i x dst in
    let expect =
      Boxed.sorted_load_vector
        (Array.mapi (fun j v -> if j = i then x else v) base)
    in
    check_float_arrays "replaced = resorted" (Array.sub dst 0 n) expect;
    for j = 0 to lo - 1 do
      if not (Float.equal dst.(j) base.(j)) then
        Alcotest.failf "index %d below lo %d differs from the base" j lo
    done
  done;
  true

let qcheck_replace_sorted =
  QCheck.Test.make
    ~name:"sorted base with one entry replaced = full descending sort"
    ~count:300
    QCheck.(int_range 0 100_000)
    replace_matches_sort

(* ------------------------------------------------------------------ *)
(* Online: flat kernel = boxed reference under churn deltas            *)
(* ------------------------------------------------------------------ *)

(* Drive an Online network through a random delta script, mirror every
   delta on a shadow (working rates, presence, liveness, association),
   and check after every settle that the boxed loop on the shadow's
   effective instance makes the same moves in the same rounds. A settle
   with nobody dirty takes no round; the boxed loop then confirms the
   association is already quiescent. *)
let online_kernels_agree ~problem ~objective ~mode seed =
  let ps = problem seed in
  let n_aps, n_users = Problem.dims ps in
  let net = Distributed.Online.create ~objective ps in
  let rng = Random.State.make [| seed; 0x1f7a3d |] in
  let present = Array.make n_users true in
  let alive = Array.make n_aps true in
  let work = Problem.copy_for_mutation ps in
  let assoc = Association.empty ~n_users in
  let rates = [| 0.; 6.; 12.; 24.; 54. |] in
  let apply d =
    ignore (Distributed.Online.apply net ~tiers:[||] d : Distributed.Online.applied)
  in
  let event () =
    match Random.State.int rng 4 with
    | 0 ->
        let u = Random.State.int rng n_users in
        if present.(u) then (
          apply (Depart { user = u });
          present.(u) <- false;
          assoc.(u) <- Association.none)
        else (
          apply (Arrive { user = u });
          present.(u) <- true)
    | 1 ->
        let a = Random.State.int rng n_aps in
        if alive.(a) then (
          apply (Ap_fail { ap = a });
          alive.(a) <- false;
          Array.iteri
            (fun u x -> if x = a then assoc.(u) <- Association.none)
            assoc)
        else (
          apply (Ap_recover { ap = a });
          alive.(a) <- true)
    | _ -> (
        (* perturb an existing link (the slot structure cannot grow) *)
        let u = Random.State.int rng n_users in
        match Problem.neighbor_aps ps u with
        | [] -> ()
        | aps ->
            let a = List.nth aps (Random.State.int rng (List.length aps)) in
            let r = rates.(Random.State.int rng (Array.length rates)) in
            apply (Set_rate { user = u; ap = a; rate = r });
            Problem.set_link_rate work ~ap:a ~user:u r;
            if assoc.(u) = a && not (r > 0.) then
              assoc.(u) <- Association.none)
  in
  for burst = 1 to 3 do
    for _ = 1 to 8 do
      event ()
    done;
    let idle = Distributed.Online.dirty_count net = 0 in
    let sa = Distributed.Online.settle ~max_rounds:300 ~mode net in
    let eff = Problem.masked work ~ap_alive:alive ~user_present:present in
    let sb =
      Boxed.run ~max_rounds:300
        ~scheduler:
          (match mode with
          | `Sequential -> Distributed.Sequential
          | `Simultaneous -> Distributed.Simultaneous)
        ~objective eff assoc
    in
    if not (Association.equal (Distributed.Online.assoc net) assoc) then
      Alcotest.failf "burst %d: associations differ" burst;
    Alcotest.(check int)
      (Fmt.str "burst %d moves" burst)
      sa.Distributed.Online.moves sb.Distributed.moves;
    Alcotest.(check int)
      (Fmt.str "burst %d rounds" burst)
      sa.Distributed.Online.rounds
      (if idle then 0 else sb.Distributed.rounds);
    if idle then
      Alcotest.(check int) "idle settle is quiescent" 0 sb.Distributed.moves;
    check_float_arrays
      (Fmt.str "burst %d loads" burst)
      (Array.copy (Distributed.Online.loads net))
      (Loads.ap_loads eff assoc)
  done;
  true

let case_problem seed =
  let _, _, ps = case ~seed () in
  ps

let dense_problem seed = snd (dense_case ~seed)

let qcheck_online ~name ~problem ~objective ~mode ~count =
  QCheck.Test.make ~name ~count
    QCheck.(int_range 0 10_000)
    (online_kernels_agree ~problem ~objective ~mode)

let qcheck_online_vector =
  let vector = Distributed.Min_load_vector in
  [
    qcheck_online ~count:30 ~problem:case_problem ~objective:vector
      ~mode:`Sequential
      ~name:"Online deltas: flat kernel = boxed kernel (sequential settles)";
    qcheck_online ~count:30 ~problem:case_problem ~objective:vector
      ~mode:`Simultaneous
      ~name:"Online deltas: flat kernel = boxed kernel (simultaneous settles)";
    qcheck_online ~count:20 ~problem:dense_problem ~objective:vector
      ~mode:`Sequential
      ~name:
        "Online deltas, dense ties: flat kernel = boxed kernel (sequential)";
    qcheck_online ~count:20 ~problem:dense_problem ~objective:vector
      ~mode:`Simultaneous
      ~name:
        "Online deltas, dense ties: flat kernel = boxed kernel (simultaneous)";
  ]

let qcheck_online_total =
  let total = Distributed.Min_total_load in
  [
    qcheck_online ~count:30 ~problem:case_problem ~objective:total
      ~mode:`Sequential
      ~name:"Online total-load deltas: flat = boxed (sequential settles)";
    qcheck_online ~count:30 ~problem:case_problem ~objective:total
      ~mode:`Simultaneous
      ~name:"Online total-load deltas: flat = boxed (simultaneous settles)";
    qcheck_online ~count:20 ~problem:dense_problem ~objective:total
      ~mode:`Sequential
      ~name:"Online total-load deltas, dense ties: flat = boxed (sequential)";
    qcheck_online ~count:20 ~problem:dense_problem ~objective:total
      ~mode:`Simultaneous
      ~name:"Online total-load deltas, dense ties: flat = boxed (simultaneous)";
  ]

(* ------------------------------------------------------------------ *)
(* Sharded centralized reductions                                      *)
(* ------------------------------------------------------------------ *)

let check_solutions label (a : Solution.t) (b : Solution.t) =
  if not (Association.equal a.Solution.assoc b.Solution.assoc) then
    Alcotest.failf "%s: associations differ" label;
  Alcotest.(check int) (label ^ " satisfied") a.Solution.satisfied
    b.Solution.satisfied;
  check_float_arrays (label ^ " ap_loads") a.Solution.ap_loads
    b.Solution.ap_loads;
  if not (Float.equal a.Solution.max_load b.Solution.max_load) then
    Alcotest.failf "%s: max loads differ" label

(* Centralized MNU over the whole instance: one budgeted greedy with
   the H1/H2 split on one cover instance, the unsharded reference
   [Shard.solve_mnu] (and so [Mnu.run]) is proven against. *)
let unsharded_mnu p =
  let inst = Reduction.cover_instance ~filter_over_budget:true p in
  let budgets =
    Array.init (Optkit.Cover_instance.n_groups inst) (Problem.ap_budget p)
  in
  let r =
    Optkit.Mcg.greedy inst ~budgets ~universe:(Reduction.coverable_users p) ()
  in
  Cover_ref.association_of_selections p inst
    (List.map (fun (s : Optkit.Mcg.selection) -> (s.set, s.newly)) r.kept)
  |> Solution.make ~algorithm:"MNU-centralized" p

let sharded_mnu_matches ~wide seed =
  let _, pd, ps = case ~wide ~seed () in
  List.iter
    (fun p ->
      check_solutions "sharded MNU" (Shard.solve_mnu p) (unsharded_mnu p))
    [ pd; ps ];
  true

let qcheck_sharded_mnu =
  QCheck.Test.make ~name:"sharded centralized MNU = unsharded MNU"
    ~count:40
    QCheck.(int_range 0 10_000)
    (sharded_mnu_matches ~wide:false)

let qcheck_sharded_mnu_wide =
  QCheck.Test.make
    ~name:"sharded centralized MNU = unsharded MNU (multi-shard)"
    ~count:40
    QCheck.(int_range 0 10_000)
    (sharded_mnu_matches ~wide:true)

let check_optional label a b =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b -> check_solutions label a b
  | Some _, None -> Alcotest.failf "%s: feasible, the oracle is not" label
  | None, Some _ -> Alcotest.failf "%s: infeasible, the oracle is not" label

(* One shard holding every AP some user hears and every user with a
   candidate: [Shard.solve_bla] on it is the unsharded BLA, one cover
   instance through the same grid driver. *)
let whole_plan p =
  let pl = Shard.plan p in
  let outside set n =
    let mark = Array.make n false in
    Array.iter (fun i -> mark.(i) <- true) set;
    Array.of_list (List.filter (fun i -> not mark.(i)) (List.init n Fun.id))
  in
  let users = outside pl.Shard.uncovered p.Problem.n_users in
  let shards =
    if Array.length users = 0 then []
    else
      [ { Shard.id = 0; aps = outside pl.Shard.idle_aps p.Problem.n_aps; users } ]
  in
  { pl with Shard.shards }

let sharded_bla_matches ~wide seed =
  let _, pd, ps = case ~wide ~seed () in
  List.iter
    (fun p ->
      List.iter
        (fun mode ->
          check_optional "sharded BLA" (Shard.solve_bla ~mode p)
            (Shard.solve_bla ~plan:(whole_plan p) ~mode p))
        [ `Soft; `Hard ])
    [ pd; ps ];
  true

let qcheck_sharded_bla =
  QCheck.Test.make ~name:"sharded centralized BLA = unsharded BLA"
    ~count:25
    QCheck.(int_range 0 10_000)
    (sharded_bla_matches ~wide:false)

let qcheck_sharded_bla_wide =
  QCheck.Test.make
    ~name:"sharded centralized BLA = unsharded BLA (multi-shard)"
    ~count:25
    QCheck.(int_range 0 10_000)
    (sharded_bla_matches ~wide:true)

(* Centralized BLA over the whole instance with no B* probe reuse:
   every guess of the default grid solved from scratch on one cover
   instance ([Scg_ref]), ranked as [Shard.solve_bla] ranks (summed-cover
   bound, stable on ties, then a strict 1e-12 realized-load
   improvement). [Bla.run] — the sharded driver on the component plan —
   must match it. *)
let exhaustive_bla ~mode ~n_guesses p =
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  let runs =
    Scg_ref.exhaustive ~mode ~universe inst
      (Scg_ref.default_grid ~n_guesses ~universe inst)
  in
  let solution r =
    Cover_ref.association_of_selections p inst
      (List.map
         (fun (s : Optkit.Mcg.selection) -> (s.set, s.newly))
         (Scg_ref.selections r))
    |> Solution.make
         ~algorithm:
           (match mode with
           | `Hard -> "BLA-centralized"
           | `Soft -> "BLA-centralized-soft")
         p
  in
  match List.map solution runs with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun (best : Solution.t) (s : Solution.t) ->
             if s.max_load < best.max_load -. 1e-12 then s else best)
           first rest)

let grid_drivers_match_oracle ~wide (seed, n_guesses) =
  let _, pd, ps = case ~wide ~seed () in
  List.iter
    (fun p ->
      List.iter
        (fun mode ->
          check_optional "BLA" (Bla.run ~mode ~n_guesses p)
            (exhaustive_bla ~mode ~n_guesses p))
        [ `Soft; `Hard ])
    [ pd; ps ];
  true

let arb_seed_guesses =
  QCheck.(pair (int_range 0 10_000) (oneofl [ 1; 2; 3; 6; 12; 24 ]))

let qcheck_grid_reuse =
  QCheck.Test.make ~name:"BLA grid driver with probe reuse = exhaustive grid"
    ~count:25 arb_seed_guesses
    (grid_drivers_match_oracle ~wide:false)

let qcheck_grid_reuse_wide =
  QCheck.Test.make
    ~name:"BLA grid driver with probe reuse = exhaustive grid (multi-shard)"
    ~count:25 arb_seed_guesses
    (grid_drivers_match_oracle ~wide:true)

(* On paper-scale instances most of the grid's upper guesses reuse the
   top probe; the reused answers still equal the exhaustive grid in both
   modes, and a single guess is B* = 1 (it used to be a NaN grid,
   infeasible). The third instance spreads the same population over a
   2 km square, so its plan has several shards. *)
let test_grid_reuse_paper_scale () =
  let cfg = { Scenario_gen.paper_default with n_aps = 50; n_users = 100 } in
  let wide = Scenario_gen.problems ~seed:15 ~n:1
      { cfg with area_w = 2000.; area_h = 2000.; ensure_coverage = false }
  in
  List.iter
    (fun p ->
      if List.length (Shard.plan p).Shard.shards < 2 then
        Alcotest.fail "the wide instance plans as one shard")
    wide;
  let problems = Scenario_gen.problems ~seed:15 ~n:2 cfg @ wide in
  let reuses = Wlan_obs.Counters.make "scg.grid_reuses" in
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Wlan_obs.Counters.set_enabled false)
    (fun () ->
      List.iter
        (fun p ->
          List.iter
            (fun (mode, n_guesses) ->
              check_optional
                (Fmt.str "BLA n_guesses=%d" n_guesses)
                (Bla.run ~mode ~n_guesses p)
                (exhaustive_bla ~mode ~n_guesses p))
            [ (`Soft, 1); (`Soft, 2); (`Soft, 12); (`Hard, 2); (`Hard, 12) ];
          if Option.is_none (Bla.run ~n_guesses:1 p) then
            Alcotest.fail "one guess (B* = 1) is infeasible")
        problems);
  if Wlan_obs.Counters.value reuses = 0 then
    Alcotest.fail "no grid guess reused the top probe";
  Alcotest.check_raises "no guess"
    (Invalid_argument "Scg.grid_points: n_guesses < 1") (fun () ->
      ignore (Bla.run ~n_guesses:0 (List.hd problems)))

(* ------------------------------------------------------------------ *)
(* Per-shard B* reuse                                                  *)
(* ------------------------------------------------------------------ *)

let c_shard_reuses = Wlan_obs.Counters.make "scg.shard_reuses"
let c_grid_probes = Wlan_obs.Counters.make "scg.grid_probes"

(* [f ()] with the counter plane on and zeroed; returns the result with
   the (probes, shard reuses) it counted. *)
let counting f =
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Wlan_obs.Counters.set_enabled false) f
  in
  ( r,
    Wlan_obs.Counters.value c_grid_probes,
    Wlan_obs.Counters.value c_shard_reuses )

(* A heterogeneous multi-shard family written down as a block-diagonal
   rate matrix: 2-5 clusters that share no user, each with 1-3 APs and
   1-14 users on 1-3 sessions. Lone users barely spend, crowded APs
   spend most of the top guess, so at a lower guess some shards bind
   and others can be reused. *)
let hetero_problem ?(max_users = 14) seed =
  let rng = Random.State.make [| seed; 0x5a4d |] in
  let clusters =
    List.init
      (2 + Random.State.int rng 4)
      (fun _ ->
        (1 + Random.State.int rng 3, 1 + Random.State.int rng max_users))
  in
  let n_aps = List.fold_left (fun acc (a, _) -> acc + a) 0 clusters in
  let n_users = List.fold_left (fun acc (_, u) -> acc + u) 0 clusters in
  let n_sessions = 1 + Random.State.int rng 3 in
  let session_rates =
    Array.init n_sessions (fun _ -> [| 0.5; 1.0; 2.0 |].(Random.State.int rng 3))
  in
  let tiers = [| 6.; 12.; 24.; 54. |] in
  let rates = Array.make_matrix n_aps n_users 0. in
  let user_session = Array.make n_users 0 in
  ignore
    (List.fold_left
       (fun (a0, u0) (na, nu) ->
         for u = u0 to u0 + nu - 1 do
           user_session.(u) <- Random.State.int rng n_sessions;
           let home = a0 + Random.State.int rng na in
           for a = a0 to a0 + na - 1 do
             if a = home || Random.State.bool rng then
               rates.(a).(u) <- tiers.(Random.State.int rng 4)
           done
         done;
         (a0 + na, u0 + nu))
       (0, 0) clusters);
  Problem.make ~session_rates ~user_session ~rates ~budget:1.0 ()

(* Exact against the from-scratch grid, and never more reuse than the
   probes allow: a probe that is not reused whole has at least one
   shard that binds, so at most [n_shards - 1] of its shards replay.
   Returns the shard reuses counted. *)
let hetero_reuses (seed, n_guesses) =
  let p = hetero_problem seed in
  let n_shards = List.length (Shard.plan p).Shard.shards in
  let sharded, probes, reuses =
    counting (fun () -> Shard.solve_bla ~n_guesses p)
  in
  check_optional "sharded BLA (heterogeneous shards)" sharded
    (exhaustive_bla ~mode:`Soft ~n_guesses p);
  if reuses > (probes - 1) * (n_shards - 1) then
    Alcotest.failf "%d shard reuses over %d probes of %d shards" reuses probes
      n_shards;
  reuses

let qcheck_hetero_reuse =
  QCheck.Test.make
    ~name:"sharded BLA with per-shard reuse = exhaustive grid (heterogeneous)"
    ~count:40 arb_seed_guesses
    (fun case -> hetero_reuses case >= 0)

let c_resumed_picks = Wlan_obs.Counters.make "mcg.resumed_picks"

(* Binding shards resume their first round from the top probe's
   (DESIGN.md §4.5). On a crowded variant of the family (up to 40 users
   per cluster, so first rounds run long and more shards bind) the
   sharded grid still equals the from-scratch grid. Returns the picks
   replayed. *)
let crowded_resumed_picks (seed, n_guesses) =
  let p = hetero_problem ~max_users:40 seed in
  let sharded, _, _ = counting (fun () -> Shard.solve_bla ~n_guesses p) in
  check_optional "sharded BLA (crowded shards)" sharded
    (exhaustive_bla ~mode:`Soft ~n_guesses p);
  Wlan_obs.Counters.value c_resumed_picks

let qcheck_crowded_resume =
  QCheck.Test.make
    ~name:"sharded BLA with resumed binding shards = exhaustive grid (crowded)"
    ~count:40 arb_seed_guesses
    (fun case -> crowded_resumed_picks case >= 0)

(* Near-tied probes: on these (seed, n_guesses) cases two probes' max
   costs differ only in the last ulp depending on whether a driver sums
   the cost per selection or per round (1.0046296296296295 vs ...298 at
   seed 135, B* = 0.577), and the stable ranking orders them
   differently. Both drivers now sum per round, so they agree. *)
let test_crowded_near_ties () =
  List.iter
    (fun case -> ignore (crowded_resumed_picks case))
    [ (135, 3); (259, 6); (388, 2); (1043, 2) ]

(* ... and the binding shards do replay picks: at the default grid, in
   most cases some lower probe resumes a non-empty prefix. *)
let test_crowded_resumes () =
  let resuming =
    List.filter
      (fun seed -> crowded_resumed_picks (seed, 12) > 0)
      (List.init 30 Fun.id)
  in
  if List.length resuming < 20 then
    Alcotest.failf "only %d of 30 cases resumed a pick" (List.length resuming)

(* On the same family at the default grid, reuse is partial in most
   cases: some probes replay some shards and re-solve others. *)
let test_hetero_partial_reuse () =
  let partial =
    List.filter (fun seed -> hetero_reuses (seed, 12) > 0) (List.init 30 Fun.id)
  in
  if List.length partial < 20 then
    Alcotest.failf "only %d of 30 cases reused a shard" (List.length partial)

(* Shard A (AP 0) binds below B* = 0.185: three session-0 users at 54
   Mbps (P, cost 1/54) and twenty session-1 users at 6 Mbps (Q, cost
   1/6, which sets the grid's lower end). Shard B (AP 1) covers its two
   users for 1/54. At the lowest guess 1/6, A picks P and then Q, which
   overshoots: H2 = {Q} (20 users) outweighs both shards' H1 (3 + 2), so
   the first global round keeps H2 while B replays its top split. *)
let h2_keep_problem () =
  let rates = Array.make_matrix 2 25 0. in
  let user_session = Array.make 25 0 in
  for u = 0 to 2 do
    rates.(0).(u) <- 54.
  done;
  for u = 3 to 22 do
    rates.(0).(u) <- 6.;
    user_session.(u) <- 1
  done;
  rates.(1).(23) <- 54.;
  rates.(1).(24) <- 54.;
  Problem.make ~session_rates:[| 1.; 1. |] ~user_session ~rates ~budget:1.0 ()

let test_h2_round_with_reused_shard () =
  let p = h2_keep_problem () in
  let sharded, probes, reuses =
    counting (fun () -> Shard.solve_bla ~n_guesses:12 p)
  in
  check_optional "H2 round" sharded (exhaustive_bla ~mode:`Soft ~n_guesses:12 p);
  Alcotest.(check (pair int int)) "the lowest guess probed, B replayed"
    (2, 1) (probes, reuses);
  (* the unsharded run at that guess does keep H2 in its first round,
     with B's selection in the dropped H1 *)
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  let lo = List.hd (Scg_ref.default_grid ~n_guesses:12 ~universe inst) in
  let r = Scg_ref.solve_for inst ~bstar:lo ~universe () in
  match r.Scg_ref.rounds with
  | first :: _ ->
      Alcotest.(check (pair int int)) "first round: 3 picked, H2 kept" (3, 1)
        (List.length first.Optkit.Mcg.raw_order, List.length first.Optkit.Mcg.kept)
  | [] -> Alcotest.fail "no round at the lowest guess"

(* Shard A as above binds at the lowest guess 1/6; three more shards
   do not spend more than 1/6 at the top, and only one may replay:
   - B (APs 1, 2) spends 1/54, but AP 1 also offers a never-picked
     1-Mbps set costing 1.0: its max set cost exceeds the guess;
   - C (AP 3) spends exactly 1/6 on its one set: its witness sits at
     the guess, inside the 1e-9 margin;
   - D (AP 4) spends 1/54 and replays. *)
let guards_problem () =
  let rates = Array.make_matrix 5 27 0. in
  let user_session = Array.make 27 0 in
  for u = 0 to 2 do
    rates.(0).(u) <- 54.
  done;
  for u = 3 to 22 do
    rates.(0).(u) <- 6.;
    user_session.(u) <- 1
  done;
  rates.(1).(23) <- 54.;
  rates.(1).(24) <- 1.;
  rates.(2).(24) <- 54.;
  rates.(3).(25) <- 6.;
  rates.(4).(26) <- 54.;
  Problem.make ~session_rates:[| 1.; 1. |] ~user_session ~rates ~budget:1.0 ()

let test_reuse_guards () =
  let p = guards_problem () in
  let sharded, probes, reuses =
    counting (fun () -> Shard.solve_bla ~n_guesses:2 p)
  in
  check_optional "guards" sharded (exhaustive_bla ~mode:`Soft ~n_guesses:2 p);
  Alcotest.(check (pair int int)) "only D replays at the lowest guess" (2, 1)
    (probes, reuses)

(* A shard that never empties at the top cannot be replayed: its
   recorded splits run out. Shard A's AP serves one session-0 user at 6
   Mbps (P, cost 0.15) and forty more sessions of three users at 1 Mbps
   (cost 0.9 each). Every round A picks P and one 0.9 set, which
   overshoots even B* = 1, and that H2 (3 users) outweighs both shards'
   H1 (P and shard B's lone user), so B's remaining set never shrinks
   and the round cap ends the top run with neither shard empty. At the
   lower guess 0.9, B's witness and cost (0.1) clear the guess, yet B
   must re-solve. Both guesses are infeasible. *)
let never_emptied_problem () =
  let n_users = 1 + (3 * 40) + 1 in
  let rates = Array.make_matrix 2 n_users 0. in
  let user_session = Array.make n_users 0 in
  rates.(0).(0) <- 6.;
  for u = 1 to 3 * 40 do
    rates.(0).(u) <- 1.;
    user_session.(u) <- 1 + ((u - 1) / 3)
  done;
  rates.(1).(n_users - 1) <- 9.;
  Problem.make ~session_rates:(Array.make 41 0.9) ~user_session ~rates
    ~budget:1.0 ()

let test_never_emptied_shard_resolves () =
  let p = never_emptied_problem () in
  let sharded, probes, reuses =
    counting (fun () -> Shard.solve_bla ~n_guesses:2 p)
  in
  check_optional "never emptied" sharded
    (exhaustive_bla ~mode:`Soft ~n_guesses:2 p);
  Alcotest.(check (pair int int)) "both guesses probed, nothing replayed"
    (2, 0) (probes, reuses)

(* fig9a-size sharded centralized solves across pool domains. *)
let test_sharded_centralized_fig9a_jobs () =
  let sc =
    Scenario_gen.generate
      ~rng:(Scenario_gen.scenario_rng ~seed:2007 0)
      Scenario_gen.paper_default
  in
  let ps = Scenario.to_problem sc in
  let mnu = Mnu.run ps in
  let bla = Bla.run ps in
  List.iter
    (fun jobs ->
      Harness.Pool.with_pool ~jobs (fun pool ->
          let fanout thunks = Harness.Pool.run pool thunks in
          check_solutions
            (Fmt.str "MNU jobs=%d" jobs)
            (Shard.solve_mnu ~fanout ps)
            mnu;
          match (Shard.solve_bla ~fanout ps, bla) with
          | Some a, Some b -> check_solutions (Fmt.str "BLA jobs=%d" jobs) a b
          | None, None -> ()
          | _ -> Alcotest.failf "BLA jobs=%d: feasibility differs" jobs))
    [ 1; 2; 4 ]

(* The city golden: sharded centralized MNU on 2000 APs x 40000 users,
   equal at jobs 1 and 4 and pinned to the committed digest. *)
let city_mnu_digest ~jobs ps pl =
  let s =
    Harness.Pool.with_pool ~jobs (fun pool ->
        Shard.solve_mnu ~plan:pl ~fanout:(Harness.Pool.run pool) ps)
  in
  let buf = Buffer.create (1 lsl 18) in
  Buffer.add_string buf
    (Fmt.str "city mnu 2000x40000 shards=%d satisfied=%d max=%.17g@."
       (List.length pl.Shard.shards)
       s.Solution.satisfied s.Solution.max_load);
  Array.iter (fun a -> Buffer.add_string buf (Fmt.str "%d," a)) s.Solution.assoc;
  digest (Buffer.contents buf)

let test_city_mnu_golden () =
  let sc = Scenario_gen.city ~seed:2007 Scenario_gen.city_default in
  let ps = Scenario.to_problem sc in
  let pl =
    Shard.plan_geometric ~ap_pos:sc.Scenario.ap_pos
      ~interaction_radius:(2. *. Rate_table.range sc.Scenario.rate_table)
      ps
  in
  let d1 = city_mnu_digest ~jobs:1 ps pl in
  let d4 = city_mnu_digest ~jobs:4 ps pl in
  Alcotest.(check string) "j1 = j4" d1 d4;
  match read_golden "golden/city_mnu_shard.digest" with
  | golden -> Alcotest.(check string) "matches committed golden" golden d1
  | exception Sys_error _ ->
      Alcotest.failf "golden/city_mnu_shard.digest missing; computed %s" d1

(* The city BLA golden: sharded centralized BLA on the same instance,
   equal at jobs 1 and 4 (counters included, with shards replayed) and
   pinned to the committed digest. *)
let city_bla_digest ~jobs ps pl =
  let s =
    match
      Harness.Pool.with_pool ~jobs (fun pool ->
          Shard.solve_bla ~plan:pl ~fanout:(Harness.Pool.run pool) ps)
    with
    | Some s -> s
    | None -> Alcotest.fail "city BLA infeasible"
  in
  let buf = Buffer.create (1 lsl 18) in
  Buffer.add_string buf
    (Fmt.str "city bla 2000x40000 shards=%d max=%.17g@."
       (List.length pl.Shard.shards)
       s.Solution.max_load);
  Array.iter (fun a -> Buffer.add_string buf (Fmt.str "%d," a)) s.Solution.assoc;
  digest (Buffer.contents buf)

let test_city_bla_golden () =
  let sc = Scenario_gen.city ~seed:2007 Scenario_gen.city_default in
  let ps = Scenario.to_problem sc in
  let pl =
    Shard.plan_geometric ~ap_pos:sc.Scenario.ap_pos
      ~interaction_radius:(2. *. Rate_table.range sc.Scenario.rate_table)
      ps
  in
  let counted jobs =
    let d, _, reuses = counting (fun () -> city_bla_digest ~jobs ps pl) in
    (d, reuses, Wlan_obs.Counters.snapshot ())
  in
  let d1, reuses, c1 = counted 1 in
  let d4, _, c4 = counted 4 in
  Alcotest.(check string) "j1 = j4" d1 d4;
  Alcotest.(check (list (pair string int))) "counters j1 = j4" c1 c4;
  if reuses = 0 then Alcotest.fail "no shard replayed the top probe";
  match read_golden "golden/city_bla_shard.digest" with
  | golden -> Alcotest.(check string) "matches committed golden" golden d1
  | exception Sys_error _ ->
      Alcotest.failf "golden/city_bla_shard.digest missing; computed %s" d1

(* ------------------------------------------------------------------ *)
(* Total-load rule at storm degree                                     *)
(* ------------------------------------------------------------------ *)

(* The paper's AP density (200 APs per 1.2 km²) over 500 APs and 2000
   users: neighborhoods of about 19 APs, the degree the serve-storm
   daemon workload decides at. Built once: [Online] works on its own
   copy and the batch runs never mutate it. *)
let storm_problem =
  lazy
    (let cfg =
       {
         Scenario_gen.paper_default with
         area_w = 1732.;
         area_h = 1732.;
         n_aps = 500;
         n_users = 2000;
       }
     in
     Scenario.to_problem
       (Scenario_gen.generate
          ~rng:(Scenario_gen.scenario_rng ~seed:2007 0)
          cfg))

let add_assoc buf assoc =
  Array.iter (fun a -> Buffer.add_string buf (Fmt.str "%d," a)) assoc;
  Buffer.add_char buf '\n'

(* A seeded stream of about 2000 deltas on live state — AP failures
   (holding at most 25 dark APs) and recoveries, one-tier drifts of
   present users, and joins and leaves holding about 60% of the users
   present — settled every 8 events, every fourth settle simultaneous.
   Every delta outcome, settle stat and the final loads go to [buf]. *)
let storm_stream buf p =
  let n_aps, n_users = Problem.dims p in
  let rng = Random.State.make [| 2007; 0x570a11 |] in
  let present = Array.init n_users (fun _ -> Random.State.float rng 1. < 0.6) in
  let net =
    Distributed.Online.create ~present ~objective:Distributed.Min_total_load p
  in
  let tiers = Array.of_list (Rate_table.rates Rate_table.default) in
  let n_dark = ref 0 and n_present = ref 0 in
  Array.iter (fun pr -> if pr then incr n_present) present;
  (* the first index at or after a random one (cyclically) satisfying [f] *)
  let find n f =
    let start = Random.State.int rng n in
    let rec go i = if f ((start + i) mod n) then (start + i) mod n else go (i + 1) in
    go 0
  in
  let apply = Distributed.Online.apply net ~tiers in
  let event () =
    match Random.State.int rng 8 with
    | 0 | 1 | 2 ->
        let a = Random.State.int rng n_aps in
        if Distributed.Online.ap_alive net a && !n_dark < 25 then begin
          incr n_dark;
          match apply (Ap_fail { ap = a }) with
          | Failed { detached = ds; _ } ->
              Buffer.add_string buf (Fmt.str "F%d:" a);
              List.iter (fun u -> Buffer.add_string buf (Fmt.str "%d," u)) ds
          | _ -> Alcotest.fail "failed a dead AP"
        end
        else begin
          let a = find n_aps (fun a -> not (Distributed.Online.ap_alive net a)) in
          decr n_dark;
          Buffer.add_string buf
            (Fmt.str "R%d:%b" a
               (apply (Ap_recover { ap = a }) <> Distributed.Online.Unchanged))
        end
    | 3 | 4 ->
        let u = find n_users (Distributed.Online.is_present net) in
        let steps = if Random.State.bool rng then 1 else -1 in
        Buffer.add_string buf
          (match apply (Drift { user = u; steps }) with
          | Drifted { lost; _ } -> Fmt.str "D%d:%d" u lost
          | _ -> Fmt.str "D%d:-" u)
    | _ ->
        if !n_present > n_users * 6 / 10 then begin
          let u = find n_users (Distributed.Online.is_present net) in
          decr n_present;
          Buffer.add_string buf
            (match apply (Depart { user = u }) with
            | Departed { ap; _ } when ap = Association.none -> Fmt.str "L%d:-" u
            | Departed { ap; _ } -> Fmt.str "L%d:%d" u ap
            | _ -> Alcotest.fail "departed an absent user")
        end
        else begin
          let u = find n_users (fun u -> not (Distributed.Online.is_present net u)) in
          incr n_present;
          Buffer.add_string buf
            (Fmt.str "J%d:%b" u
               (apply (Arrive { user = u }) <> Distributed.Online.Unchanged))
        end
  in
  let settle mode =
    let s = Distributed.Online.settle ~mode net in
    Buffer.add_string buf
      (Fmt.str "\nS rounds=%d moves=%d reassoc=%d conv=%b osc=%b:"
         s.Distributed.Online.rounds s.Distributed.Online.moves
         s.Distributed.Online.reassociated s.Distributed.Online.converged
         s.Distributed.Online.oscillated);
    List.iter
      (fun (u, a, b) -> Buffer.add_string buf (Fmt.str "%d:%d>%d," u a b))
      s.Distributed.Online.changed;
    Buffer.add_char buf '\n'
  in
  settle `Sequential;
  for batch = 1 to 250 do
    for _ = 1 to 8 do
      event ();
      Buffer.add_char buf ' '
    done;
    settle (if batch mod 4 = 0 then `Simultaneous else `Sequential)
  done;
  add_assoc buf (Distributed.Online.assoc net);
  Array.iter
    (fun l -> Buffer.add_string buf (Fmt.str "%.17g," l))
    (Distributed.Online.loads net);
  Buffer.add_string buf
    (Fmt.str "\ntotal=%.17g max=%.17g\n"
       (Distributed.Online.total_load net)
       (Distributed.Online.max_load net))

let storm_total_digest () =
  let p = Lazy.force storm_problem in
  let buf = Buffer.create (1 lsl 20) in
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Wlan_obs.Counters.set_enabled false)
    (fun () ->
      List.iter
        (fun (name, solve) ->
          List.iter
            (fun (sname, scheduler) ->
              let (s : Solution.t), (o : Distributed.outcome) =
                solve ~scheduler p
              in
              Buffer.add_string buf
                (Fmt.str "%s %s %s rounds=%d moves=%d conv=%b osc=%b sat=%d \
                          total=%.17g max=%.17g\n"
                   name sname s.Solution.algorithm o.Distributed.rounds
                   o.Distributed.moves o.Distributed.converged
                   o.Distributed.oscillated s.Solution.satisfied
                   s.Solution.total_load s.Solution.max_load);
              add_assoc buf s.Solution.assoc)
            [
              ("seq", Distributed.Sequential);
              ("sim", Distributed.Simultaneous);
              ("locked", Distributed.Locked);
            ])
        [
          ("mnu", fun ~scheduler p -> Distributed.mnu ~scheduler p);
          ("mla", fun ~scheduler p -> Distributed.mla ~scheduler p);
        ];
      storm_stream buf p);
  (* the work the rule did, which the kernel must not change either *)
  List.iter
    (fun (name, v) ->
      if
        List.exists
          (fun prefix -> String.starts_with ~prefix name)
          [ "distributed."; "tracker."; "online." ]
      then Buffer.add_string buf (Fmt.str "%s=%d\n" name v))
    (Wlan_obs.Counters.snapshot ());
  digest (Buffer.contents buf)

let test_storm_total_golden () =
  let d = storm_total_digest () in
  match read_golden "golden/storm_total.digest" with
  | golden -> Alcotest.(check string) "matches committed golden" golden d
  | exception Sys_error _ ->
      Alcotest.failf "golden/storm_total.digest missing; computed %s" d

(* The total-load gate against exact folds. A plane of up to 64 entries
   (ladder values with zeros and exact ties, uniform floats, sub-eps
   crumbs) and join loads, some of them steered so that a candidate's
   exact sum lands a few ulps around another's plus -1e-9, 0 or +1e-9.
   Every pair the gate decides must agree with
   [Loads.compare_load_prefixes_eps] on the test's own exact folds;
   returns how many pairs it left undecided. *)
let exact_fold e d k x =
  let acc = ref 0. in
  for j = 0 to d - 1 do
    acc := !acc +. if j = k then x else e.(j)
  done;
  !acc

let gate_case seed =
  let rng = Random.State.make [| seed; 0x6a7e0 |] in
  let d = 1 + Random.State.int rng 64 in
  let ladder = [| 0.; 0.; 1. /. 6.; 1. /. 12.; 0.125; 1. /. 3.; 0.5; 1. |] in
  let pick () =
    match Random.State.int rng 3 with
    | 0 -> ladder.(Random.State.int rng (Array.length ladder))
    | 1 -> Random.State.float rng 1.
    | _ -> Random.State.float rng 1e-9
  in
  let e = Array.init d (fun _ -> pick ()) in
  let xs = Array.init d (fun _ -> pick ()) in
  for _ = 1 to 1 + Random.State.int rng 6 do
    let i = Random.State.int rng d and j = Random.State.int rng d in
    if i <> j then begin
      let ti = exact_fold e d i xs.(i) and tj = exact_fold e d j xs.(j) in
      let side = float_of_int (Random.State.int rng 3 - 1) in
      let ulps = float_of_int (Random.State.int rng 9 - 4) in
      let x =
        xs.(j) +. (ti +. (side *. 1e-9) -. tj)
        +. (ulps *. (Float.succ tj -. tj))
      in
      if x >= 0. then xs.(j) <- x
    end
  done;
  let est = Array.make d nan and margin = Array.make d nan in
  Loads.replaced_sum_estimates e xs d ~est ~margin;
  let t = Array.init d (fun k -> exact_fold e d k xs.(k)) in
  Array.iteri
    (fun k tk ->
      if not (Float.equal tk (Loads.replaced_sum e d k xs.(k))) then
        Alcotest.failf "seed %d: replaced_sum %d differs" seed k)
    t;
  let undecided = ref 0 in
  for i = 0 to d - 1 do
    for j = 0 to d - 1 do
      let g = Loads.gate_replaced_sums ~est ~margin i j in
      if g = Loads.undecided then incr undecided
      else
        let c =
          Loads.compare_load_prefixes_eps ~from:0 ~len:1 [| t.(i) |] [| t.(j) |]
        in
        if g <> c then
          Alcotest.failf
            "seed %d, d %d: gate says %d, exact folds %d (%.17g vs %.17g, gap \
             %.17g)"
            seed d g c t.(i) t.(j) (t.(i) -. t.(j))
    done
  done;
  !undecided

let test_gate_matches_exact () =
  let undecided = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2007 |])
    (QCheck.Test.make ~name:"total-load gate = exact folds" ~count:3000
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         undecided := !undecided + gate_case seed;
         true));
  if !undecided = 0 then Alcotest.fail "the exact fallback was never taken"

(* Minor-heap words per decision over one fixed storm settle on the
   storm instance: converge, fail every 20th AP, drift every 20th user
   one tier, then settle. Allocation is deterministic, so this is a
   budget, not a timing gate. *)
let words_per_decision objective =
  let net = Distributed.Online.create ~objective (Lazy.force storm_problem) in
  ignore (Distributed.Online.settle net : Distributed.Online.settle_stats);
  let tiers = Array.of_list (Rate_table.rates Rate_table.default) in
  let apply d =
    ignore (Distributed.Online.apply net ~tiers d : Distributed.Online.applied)
  in
  for i = 0 to 24 do
    apply (Ap_fail { ap = i * 20 })
  done;
  for i = 0 to 99 do
    apply (Drift { user = i * 20; steps = (if i mod 2 = 0 then 1 else -1) })
  done;
  let decisions = Wlan_obs.Counters.make "distributed.decisions" in
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  let w0 = Gc.minor_words () in
  let s = Distributed.Online.settle net in
  let w1 = Gc.minor_words () in
  Wlan_obs.Counters.set_enabled false;
  let n = Wlan_obs.Counters.value decisions in
  if n < 1000 || s.Distributed.Online.moves = 0 then
    Alcotest.failf "storm settle too small: %d decisions, %d moves" n
      s.Distributed.Online.moves;
  (w1 -. w0) /. float_of_int n

let test_settle_allocation () =
  List.iter
    (fun (name, objective, budget) ->
      let w = words_per_decision objective in
      if w > budget then
        Alcotest.failf "%s: %.1f words per decision, budget %.0f" name w budget)
    [
      ("total-load", Distributed.Min_total_load, 64.);
      ("load-vector", Distributed.Min_load_vector, 96.);
    ]

(* Centralized BLA's kernels allocate per solve, not per step: minor
   words per MCG greedy iteration ([mcg.rounds]) of a whole
   [Bla.run_exn ~mode:`Hard] solve, cover build included, and per
   [Reduction.cover_instance], on one fixed paper_default instance
   (3,328 covering sets). The kernels read the cover and heap planes
   directly and pass priorities through float cells (DESIGN.md §4.12,
   "Hot loops under -opaque"): about 235 words per iteration and 6k
   per build, from the member planes. A kernel that boxes a float per
   step (an accessor call, a float-returning closure) or per member (a
   [Set]-based build) exceeds a budget several times over.
   Deterministic, like the settle budget. *)
let paper_problem =
  lazy
    (Scenario.to_problem
       (Scenario_gen.generate
          ~rng:(Scenario_gen.scenario_rng ~seed:1 0)
          Scenario_gen.paper_default))

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let test_kernel_allocation () =
  let p = Lazy.force paper_problem in
  let rounds = Wlan_obs.Counters.make "mcg.rounds" in
  ignore (Bla.run_exn ~mode:`Hard p);
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  let w = minor_words (fun () -> Bla.run_exn ~mode:`Hard p) in
  Wlan_obs.Counters.set_enabled false;
  let n = Wlan_obs.Counters.value rounds in
  if n < 1000 then Alcotest.failf "BLA solve too small: %d MCG iterations" n;
  let per_iteration = w /. float_of_int n in
  if per_iteration > 700. then
    Alcotest.failf "%.1f words per MCG iteration, budget 700" per_iteration;
  let w = minor_words (fun () -> Reduction.cover_instance p) in
  if w > 160_000. then
    Alcotest.failf "%.0f words per cover build, budget 160000" w

(* Words per cover build, in either heap, per link of the fixed
   paper_default instance (6,914 links, 3,328 sets): the member-plane
   build ({!Wlan_model.Sparse.fill_members}, sets as slices of one
   member plane) allocates about 4.9; a build that boxes a rate per
   link through [iter_members] and a bitset per set, 21. The minor heap
   is emptied before and after, so the promoted count is the build's
   own. *)
let test_cover_build_words () =
  let p = Lazy.force paper_problem in
  ignore (Reduction.cover_instance p);
  Gc.minor ();
  let mi, pr, ma = Gc.counters () in
  ignore (Sys.opaque_identity (Reduction.cover_instance p));
  Gc.minor ();
  let mi', pr', ma' = Gc.counters () in
  let words = mi' -. mi +. (ma' -. ma) -. (pr' -. pr) in
  let per_link = words /. float_of_int (Sparse.n_links p.Problem.links) in
  if per_link > 8. then
    Alcotest.failf "%.1f words per link per cover build, budget 8" per_link

(* Centralized MNU and BLA stream their shards (DESIGN.md §4.10): each
   shard's covering instance comes straight from the parent's member
   planes, so neither solve builds a sub-instance ([sparse.builds] stays
   0), and an instance costs a word per member slot plus a few per set
   (§4.12) — one bitset per set costs a word per 62 shard users per set,
   2.5 times the bound on a 2-district city. Deterministic: counters and
   heap words, not timings. *)
let test_shard_streaming_memory () =
  let sc =
    Scenario_gen.city ~seed:2007
      { Scenario_gen.city_default with districts_x = 2; districts_y = 1 }
  in
  let p = Scenario.to_problem_sparse sc in
  let pl =
    Shard.plan_geometric ~ap_pos:sc.Scenario.ap_pos
      ~interaction_radius:(2. *. Scenario.range sc)
      p
  in
  if List.length pl.Shard.shards < 2 then
    Alcotest.fail "the 2-district city is one shard";
  let builds = Wlan_obs.Counters.make "sparse.builds" in
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  ignore (Shard.solve_mnu ~plan:pl (Problem.with_budget p 0.05));
  ignore (Shard.solve_bla ~plan:pl p);
  Wlan_obs.Counters.set_enabled false;
  Alcotest.(check int) "sub-instances built" 0
    (Wlan_obs.Counters.value builds);
  let _, n_users = Problem.dims p in
  let local = Array.make n_users (-1) in
  List.iter
    (fun (sh : Shard.shard) ->
      Array.iteri (fun lu u -> local.(u) <- lu) sh.Shard.users)
    pl.Shard.shards;
  List.iter
    (fun (sh : Shard.shard) ->
      let inst, _ =
        Reduction.shard_cover ~filter_over_budget:false p ~aps:sh.Shard.aps
          ~local ~n_local:(Array.length sh.Shard.users)
      in
      let links = ref 0 in
      Array.iter
        (fun a -> Problem.iter_members p a (fun _ _ -> incr links))
        sh.Shard.aps;
      let sets = Optkit.Cover_instance.n_sets inst in
      let words = Obj.reachable_words (Obj.repr inst) in
      (* about 52k words for 33k links and 3.2k sets; a bitset per
         set, 150k *)
      let bound = !links + (8 * sets) + 256 in
      if words > bound then
        Alcotest.failf "shard %d: %d words for %d links and %d sets (bound %d)"
          sh.Shard.id words !links sets bound)
    pl.Shard.shards

(* The flat cover build = the [Set]-based reference of cover_ref.ml:
   the same sets, costs, groups and payloads, in order, on both compiles
   of the random and dense families, with and without the budget filter,
   under the uniform budget and random per-AP budgets. *)
let check_cover what (a : Reduction.tx Optkit.Cover_instance.t)
    (b : Reduction.tx Optkit.Cover_instance.t) =
  let module C = Optkit.Cover_instance in
  Alcotest.(check int) (what ^ ": sets") (C.n_sets b) (C.n_sets a);
  Alcotest.(check int) (what ^ ": groups") (C.n_groups b) (C.n_groups a);
  Alcotest.(check int) (what ^ ": elements") (C.n_elements b) (C.n_elements a);
  for j = 0 to C.n_sets a - 1 do
    if not (Optkit.Bitset.equal (C.set a j) (C.set b j)) then
      Alcotest.failf "%s: set %d differs" what j;
    if not (Float.equal (C.cost a j) (C.cost b j)) then
      Alcotest.failf "%s: cost %d differs" what j;
    if C.group a j <> C.group b j then
      Alcotest.failf "%s: group %d differs" what j;
    let x = C.payload a j and y = C.payload b j in
    if
      x.ap <> y.ap || x.session <> y.session
      || not (Float.equal x.tx_rate y.tx_rate)
    then Alcotest.failf "%s: payload %d differs" what j
  done

let cover_matches seed =
  let rng = Random.State.make [| seed; 0xc0e7 |] in
  List.iter
    (fun (family, p) ->
      let n_aps, _ = Problem.dims p in
      let per_ap =
        Problem.with_ap_budgets p
          (Array.init n_aps (fun _ -> Random.State.float rng 1.5))
      in
      List.iter
        (fun (budgets, p) ->
          List.iter
            (fun filter_over_budget ->
              check_cover
                (Fmt.str "%s, %s budgets, filter %b" family budgets
                   filter_over_budget)
                (Reduction.cover_instance ~filter_over_budget p)
                (Cover_ref.cover_instance ~filter_over_budget p))
            [ false; true ])
        [ ("uniform", p); ("per-AP", per_ap) ])
    (List.map (fun p -> ("random", p)) (case_problems seed)
    @ List.map (fun p -> ("dense", p)) (dense_problems seed));
  true

let qcheck_cover_build =
  QCheck.Test.make ~name:"flat cover build = Set-based reference" ~count:60
    QCheck.(int_range 0 10_000)
    cover_matches

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    ([
       qcheck_kernel_seq_total;
       qcheck_kernel_seq_vector;
       qcheck_kernel_sim;
       qcheck_dense_seq_vector;
       qcheck_dense_sim_vector;
       qcheck_replace_sorted;
     ]
    @ qcheck_online_vector
    @ [
        qcheck_sharded_mnu;
        qcheck_sharded_mnu_wide;
        qcheck_sharded_bla;
        qcheck_sharded_bla_wide;
        qcheck_grid_reuse;
        qcheck_grid_reuse_wide;
        qcheck_hetero_reuse;
        qcheck_crowded_resume;
        qcheck_dense_seq_total;
        qcheck_dense_sim_total;
        qcheck_cover_build;
      ]
    @ qcheck_online_total @ qcheck_kernel_locked)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flat"
    [
      ("differential", qcheck_cases);
      ( "sharded-centralized",
        [
          tc "fig9a scale, jobs 1/2/4" test_sharded_centralized_fig9a_jobs;
          tc "paper scale B* probe reuse" test_grid_reuse_paper_scale;
          tc "per-shard reuse is partial" test_hetero_partial_reuse;
          tc "binding shards resume" test_crowded_resumes;
          tc "near-tied probes rank alike" test_crowded_near_ties;
          tc "H2 round while a shard replays" test_h2_round_with_reused_shard;
          tc "per-shard reuse guards" test_reuse_guards;
          tc "a shard that never emptied re-solves"
            test_never_emptied_shard_resolves;
          tc "city MNU golden, j1 = j4" test_city_mnu_golden;
          tc "city BLA golden, j1 = j4" test_city_bla_golden;
          tc "BLA kernel allocation per iteration and build"
            test_kernel_allocation;
          tc "cover build words per link" test_cover_build_words;
          tc "shards stream: no sub-instance, compact covers"
            test_shard_streaming_memory;
        ] );
      ( "total-load",
        [
          tc "storm-degree MNU/MLA and Online golden" test_storm_total_golden;
          tc "settle allocation per decision" test_settle_allocation;
          tc "gated comparison = exact folds" test_gate_matches_exact;
        ] );
    ]
