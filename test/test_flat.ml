(* The flat-kernel differential battery (PR 8): the structure-of-arrays
   greedy cores and the shard-aware centralized reductions are proven
   bit-identical to their reference implementations.

   - Distributed kernel (qcheck): [Distributed.run] (preallocated
     scratch planes, hypothetical-load caching, stay memo) = a
     test-local boxed reference loop that asks the public
     [Distributed.decide] (the original list-and-array rule over eager
     load scans) for every decision, on the all-pairs and grid
     compiles, both objectives, Sequential and Simultaneous — full
     outcome including float loads.
   - Load-vector kernel on a tie-heavy family (qcheck): up to 40 APs in
     a 300 m square (neighborhoods up to 40 APs), one session (loads
     are sums of 1/tier terms, so equal entries abound) and budgets up
     to 2.0 — [Min_load_vector] runs under Sequential and Simultaneous
     and [Online] BLA settles under churn, against the boxed oracle; and
     the sorted-base-with-one-entry-replaced step against a full
     descending sort on arrays full of duplicates and zeros.
   - Online kernel (qcheck): a seeded delta script (arrive / depart /
     set_rate / fail_ap / recover_ap, settling after each burst) driven
     through an [Online] network and mirrored on a shadow instance
     stays in lockstep with the boxed loop run on the shadow's
     effective instance: identical associations, loads and settle stats
     after every burst.
   - Sharded centralized MNU/BLA (qcheck): [Shard.solve_mnu] /
     [Shard.solve_bla] = the unsharded [Mnu.run] / [Bla.run] on the
     all-pairs and grid compiles, including wide-area instances whose plans have
     several shards.
   - Pool fanout: fig9a-size sharded centralized solves at --jobs 1/2/4
     equal the unsharded runs.
   - City scale: the sharded centralized MNU association on the
     2000x40000 instance is pinned by a golden j1==j4 digest (no
     AP x user matrix is ever allocated).

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

(* The boxed reference loop: rounds over every user in ascending order,
   each decision from [Distributed.decide] against loads recomputed by
   the eager scan. Sequential applies each move at once; Simultaneous
   decides the round on one snapshot, applies it, and stops on a
   revisited association. Mutates [assoc], which the outcome returns. *)
let boxed_run ~max_rounds ~simultaneous ~objective p assoc =
  let n_users = Array.length assoc in
  let decide u =
    Distributed.decide p assoc ~loads:(Loads.ap_loads p assoc) ~objective u
  in
  let rounds = ref 0 and moves = ref 0 in
  let converged = ref false and oscillated = ref false in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen (Array.to_list assoc) ();
  while (not !converged) && (not !oscillated) && !rounds < max_rounds do
    incr rounds;
    if simultaneous then begin
      let ds =
        List.filter_map
          (fun u -> Option.map (fun a -> (u, a)) (decide u))
          (List.init n_users Fun.id)
      in
      if ds = [] then converged := true
      else begin
        List.iter (fun (u, a) -> assoc.(u) <- a) ds;
        moves := !moves + List.length ds;
        let key = Array.to_list assoc in
        if Hashtbl.mem seen key then oscillated := true
        else Hashtbl.replace seen key ()
      end
    end
    else begin
      let moved = ref false in
      for u = 0 to n_users - 1 do
        match decide u with
        | None -> ()
        | Some a ->
            assoc.(u) <- a;
            incr moves;
            moved := true
      done;
      if not !moved then converged := true
    end
  done;
  {
    Distributed.assoc;
    rounds = !rounds;
    moves = !moves;
    converged = !converged;
    oscillated = !oscillated;
  }

let kernels_agree ~problems ~scheduler ~objective seed =
  List.iter
    (fun p ->
      let a = Distributed.run ~max_rounds:300 ~scheduler ~objective p in
      let b =
        boxed_run ~max_rounds:300
          ~simultaneous:(scheduler = Distributed.Simultaneous)
          ~objective p
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

(* The load-vector step: a sorted base with one entry replaced, by one
   insertion pass, equals the full descending sort of the same multiset
   (values from a short ladder with zeros, so duplicates abound), and
   agrees with the base below the index it returns. The slot-carrying
   sort matches [Loads.sorted_load_vector] and returns a permutation. *)
let replace_matches_sort seed =
  let rng = Random.State.make [| seed; 0x5e1ec7 |] in
  let ladder = [| 0.; 0.; 0.125; 0.25; 0.25; 1. /. 3.; 0.5; 1.; 2. |] in
  let pick () = ladder.(Random.State.int rng (Array.length ladder)) in
  let n = 1 + Random.State.int rng 40 in
  let raw = Array.init n (fun _ -> pick ()) in
  let base = Array.copy raw and ord = Array.init n Fun.id in
  Loads.sort_prefix_desc base ord n;
  check_float_arrays "slot-carrying sort" base (Loads.sorted_load_vector raw);
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
      Loads.sorted_load_vector
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
let online_kernels_agree ~problem ~mode seed =
  let ps = problem seed in
  let n_aps, n_users = Problem.dims ps in
  let net = Distributed.Online.create ~objective:Distributed.Min_load_vector ps in
  let rng = Random.State.make [| seed; 0x1f7a3d |] in
  let present = Array.make n_users true in
  let alive = Array.make n_aps true in
  let work = Problem.copy_for_mutation ps in
  let assoc = Association.empty ~n_users in
  let rates = [| 0.; 6.; 12.; 24.; 54. |] in
  let event () =
    match Random.State.int rng 4 with
    | 0 ->
        let u = Random.State.int rng n_users in
        if present.(u) then (
          ignore (Distributed.Online.depart net ~user:u);
          present.(u) <- false;
          assoc.(u) <- Association.none)
        else (
          ignore (Distributed.Online.arrive net ~user:u);
          present.(u) <- true)
    | 1 ->
        let a = Random.State.int rng n_aps in
        if alive.(a) then (
          ignore (Distributed.Online.fail_ap net ~ap:a);
          alive.(a) <- false;
          Array.iteri
            (fun u x -> if x = a then assoc.(u) <- Association.none)
            assoc)
        else (
          ignore (Distributed.Online.recover_ap net ~ap:a);
          alive.(a) <- true)
    | _ -> (
        (* perturb an existing link (the slot structure cannot grow) *)
        let u = Random.State.int rng n_users in
        match Problem.neighbor_aps ps u with
        | [] -> ()
        | aps ->
            let a = List.nth aps (Random.State.int rng (List.length aps)) in
            let r = rates.(Random.State.int rng (Array.length rates)) in
            ignore (Distributed.Online.set_rate net ~user:u ~ap:a r);
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
      boxed_run ~max_rounds:300
        ~simultaneous:(mode = `Simultaneous)
        ~objective:Distributed.Min_load_vector eff assoc
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

let qcheck_online_kernels_seq =
  QCheck.Test.make
    ~name:"Online deltas: flat kernel = boxed kernel (sequential settles)"
    ~count:30
    QCheck.(int_range 0 10_000)
    (online_kernels_agree ~problem:case_problem ~mode:`Sequential)

let qcheck_online_kernels_sim =
  QCheck.Test.make
    ~name:"Online deltas: flat kernel = boxed kernel (simultaneous settles)"
    ~count:30
    QCheck.(int_range 0 10_000)
    (online_kernels_agree ~problem:case_problem ~mode:`Simultaneous)

let qcheck_online_dense_seq =
  QCheck.Test.make
    ~name:"Online deltas, dense ties: flat kernel = boxed kernel (sequential)"
    ~count:20
    QCheck.(int_range 0 10_000)
    (online_kernels_agree ~problem:dense_problem ~mode:`Sequential)

let qcheck_online_dense_sim =
  QCheck.Test.make
    ~name:"Online deltas, dense ties: flat kernel = boxed kernel (simultaneous)"
    ~count:20
    QCheck.(int_range 0 10_000)
    (online_kernels_agree ~problem:dense_problem ~mode:`Simultaneous)

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

let sharded_mnu_matches ~wide seed =
  let _, pd, ps = case ~wide ~seed () in
  List.iter
    (fun p ->
      check_solutions "sharded MNU" (Shard.solve_mnu p) (Mnu.run p))
    [ pd; ps ];
  true

let sharded_bla_matches ~wide seed =
  let _, pd, ps = case ~wide ~seed () in
  List.iter
    (fun p ->
      match (Shard.solve_bla p, Bla.run p) with
      | None, None -> ()
      | Some a, Some b -> check_solutions "sharded BLA" a b
      | Some _, None -> Alcotest.fail "sharded feasible, unsharded not"
      | None, Some _ -> Alcotest.fail "unsharded feasible, sharded not")
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

(* Centralized BLA with no B* probe reuse: every guess of the default
   grid solved from scratch, ranked as [Bla.run] ranks (summed-cover
   bound, stable on ties, then a strict 1e-12 realized-load
   improvement). Both grid drivers must match it. *)
let exhaustive_bla ~mode ~n_guesses p =
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  let runs =
    Optkit.Scg.default_grid ~n_guesses ~universe inst
    |> List.map (fun bstar -> Optkit.Scg.solve_for ~mode inst ~bstar ~universe ())
    |> List.filter (fun (r : Optkit.Scg.result) -> r.Optkit.Scg.feasible)
    |> List.stable_sort (fun a b ->
           Float.compare (Optkit.Scg.max_group_cost a)
             (Optkit.Scg.max_group_cost b))
  in
  let solution r =
    Reduction.association_of_selections p inst
      (List.map
         (fun (s : Optkit.Mcg.selection) -> (s.set, s.newly))
         (Optkit.Scg.selections r))
    |> Solution.make ~algorithm:Bla.name p
  in
  match List.map solution runs with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun (best : Solution.t) (s : Solution.t) ->
             if s.max_load < best.max_load -. 1e-12 then s else best)
           first rest)

let check_optional label a b =
  match (a, b) with
  | None, None -> ()
  | Some a, Some b -> check_solutions label a b
  | Some _, None -> Alcotest.failf "%s: feasible, the oracle is not" label
  | None, Some _ -> Alcotest.failf "%s: infeasible, the oracle is not" label

let grid_drivers_match_oracle ~wide (seed, n_guesses) =
  let _, pd, ps = case ~wide ~seed () in
  List.iter
    (fun p ->
      List.iter
        (fun mode ->
          check_optional "BLA" (Bla.run ~mode ~n_guesses p)
            (exhaustive_bla ~mode ~n_guesses p))
        [ `Soft; `Hard ];
      check_optional "sharded BLA"
        (Shard.solve_bla ~n_guesses p)
        (exhaustive_bla ~mode:`Soft ~n_guesses p))
    [ pd; ps ];
  true

let arb_seed_guesses =
  QCheck.(pair (int_range 0 10_000) (oneofl [ 1; 2; 3; 6; 12; 24 ]))

let qcheck_grid_reuse =
  QCheck.Test.make ~name:"BLA grid drivers with probe reuse = exhaustive grid"
    ~count:25 arb_seed_guesses
    (grid_drivers_match_oracle ~wide:false)

let qcheck_grid_reuse_wide =
  QCheck.Test.make
    ~name:"BLA grid drivers with probe reuse = exhaustive grid (multi-shard)"
    ~count:25 arb_seed_guesses
    (grid_drivers_match_oracle ~wide:true)

(* On paper-scale instances most of the grid's upper guesses reuse the
   top probe; the reused answers still equal the exhaustive grid, and a
   single guess is B* = 1 (it used to be a NaN grid, infeasible). *)
let test_grid_reuse_paper_scale () =
  let problems =
    Scenario_gen.problems ~seed:15 ~n:2
      { Scenario_gen.paper_default with n_aps = 50; n_users = 100 }
  in
  let reuses = Wlan_obs.Counters.make "scg.grid_reuses" in
  Wlan_obs.Counters.reset ();
  Wlan_obs.Counters.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Wlan_obs.Counters.set_enabled false)
    (fun () ->
      List.iter
        (fun p ->
          List.iter
            (fun n_guesses ->
              check_optional
                (Fmt.str "BLA n_guesses=%d" n_guesses)
                (Bla.run ~n_guesses p)
                (exhaustive_bla ~mode:`Soft ~n_guesses p);
              check_optional
                (Fmt.str "sharded BLA n_guesses=%d" n_guesses)
                (Shard.solve_bla ~n_guesses p)
                (exhaustive_bla ~mode:`Soft ~n_guesses p))
            [ 1; 2; 12 ];
          if Option.is_none (Bla.run ~n_guesses:1 p) then
            Alcotest.fail "one guess (B* = 1) is infeasible")
        problems);
  if Wlan_obs.Counters.value reuses = 0 then
    Alcotest.fail "no grid guess reused the top probe";
  Alcotest.check_raises "no guess"
    (Invalid_argument "Scg.grid_points: n_guesses < 1") (fun () ->
      ignore (Bla.run ~n_guesses:0 (List.hd problems)))

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

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_kernel_seq_total;
      qcheck_kernel_seq_vector;
      qcheck_kernel_sim;
      qcheck_dense_seq_vector;
      qcheck_dense_sim_vector;
      qcheck_replace_sorted;
      qcheck_online_kernels_seq;
      qcheck_online_kernels_sim;
      qcheck_online_dense_seq;
      qcheck_online_dense_sim;
      qcheck_sharded_mnu;
      qcheck_sharded_mnu_wide;
      qcheck_sharded_bla;
      qcheck_sharded_bla_wide;
      qcheck_grid_reuse;
      qcheck_grid_reuse_wide;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "flat"
    [
      ("differential", qcheck_cases);
      ( "sharded-centralized",
        [
          tc "fig9a scale, jobs 1/2/4" test_sharded_centralized_fig9a_jobs;
          tc "paper scale B* probe reuse" test_grid_reuse_paper_scale;
          tc "city MNU golden, j1 = j4" test_city_mnu_golden;
        ] );
    ]
