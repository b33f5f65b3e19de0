(* city: large WLANs as an operator solves them — 2000 APs × 40000 users
   per instance, compiled sparse through Sparse.Grid, then distributed
   MNU/BLA to convergence (no round cap), sharded distributed BLA, and
   the sharded centralized MNU/BLA. It stresses the sparse compile, the
   distributed kernel, Loads.Tracker and Shard, which paper-figs barely
   reach, and runs MCG/SCG as many small sharded sessions. *)

open Wlan_model
open Mcast_core
open Common

let mnu_budget = 0.05

let config ~smoke =
  if smoke then
    { Scenario_gen.city_default with districts_x = 2; districts_y = 1 }
  else Scenario_gen.city_default

type stages = {
  mnu_dist : float;
  bla_dist : float;
  bla_shard : float;
  mnu_central : float;
  bla_central : float;
}

(* One city: the five solves, each timed and validated. [pool] spreads
   shard work over domains ([None] when tracing, which runs at jobs = 1
   so every span lands on the main domain). *)
let solve_city ops ~tag ~pool (sc : Scenario.t) p =
  let fanout () = Option.map Harness.Pool.run pool in
  let q = Problem.with_budget p mnu_budget in
  let (mnu_d, mnu_o), mnu_dist =
    time (fun () ->
        Tracer.call "mcast_core.Distributed.mnu" (fun () ->
            Distributed.mnu ~max_rounds:max_int q))
  in
  let (bla_d, bla_o), bla_dist =
    time (fun () ->
        Tracer.call "mcast_core.Distributed.bla" (fun () ->
            Distributed.bla ~max_rounds:max_int p))
  in
  let (plan, sharded), bla_shard =
    time (fun () ->
        let plan =
          Tracer.call "mcast_core.Shard.plan_geometric" (fun () ->
              Shard.plan_geometric ~ap_pos:sc.ap_pos
                ~interaction_radius:(2. *. Scenario.range sc)
                p)
        in
        ( plan,
          Tracer.call "mcast_core.Shard.solve" (fun () ->
              Shard.solve ~plan ?fanout:(fanout ()) ~max_rounds:max_int
                ~objective:Distributed.Min_load_vector p) ))
  in
  let mnu_c, mnu_central =
    time (fun () ->
        Tracer.call "mcast_core.Shard.solve_mnu" (fun () ->
            Shard.solve_mnu ~plan ?fanout:(fanout ()) q))
  in
  let bla_c, bla_central =
    time (fun () ->
        Tracer.call "mcast_core.Shard.solve_bla" (fun () ->
            Shard.solve_bla ~plan ?fanout:(fanout ()) p))
  in
  let _, n_users = Problem.dims p in
  let coverable = n_users - Array.length plan.uncovered in
  let covers (s : Solution.t) =
    Solution.in_range_ok p s && s.satisfied = coverable
  in
  let fits (s : Solution.t) =
    Solution.in_range_ok q s && Solution.respects_budget q s
  in
  check ops (mnu_o.converged && fits mnu_d)
    (tag "distributed MNU did not converge within budget");
  check ops (bla_o.converged && covers bla_d)
    (tag "distributed BLA did not converge over every coverable user");
  check ops
    (sharded.converged && Association.equal sharded.assoc bla_o.assoc)
    (tag "sharded BLA differs from unsharded BLA");
  check ops (fits mnu_c) (tag "sharded centralized MNU broke the budget");
  check ops
    (match bla_c with Some s -> covers s | None -> false)
    (tag "sharded centralized BLA left a coverable user unserved");
  ({ mnu_dist; bla_dist; bla_shard; mnu_central; bla_central }, plan, bla_o)

let generate ~smoke ~seed i = Scenario_gen.city ~seed:(seed + i) (config ~smoke)

(* The single-domain memory pass behind [peak_mem_mb]: the run's first
   city through the compile and the five solves, without a pool. *)
let memory_pass ~seed ~smoke =
  let sc = generate ~smoke ~seed 0 in
  ignore
    (solve_city (new_ops ()) ~tag:Fun.id ~pool:None sc
       (Scenario.to_problem_sparse sc))

let run ~jobs ~seed ~cities ~smoke ~compile_reps ~peak_mem_mb =
  let ops = new_ops () and host = start_host ~smoke in
  Harness.Pool.with_pool ~jobs @@ fun pool ->
  let per_city =
    List.init cities (fun i ->
        let sc = generate ~smoke ~seed i in
        let (compiles, st, rounds), t =
          segment host (fun () ->
              let p, first = time (fun () -> Scenario.to_problem_sparse sc) in
              let again =
                List.init (compile_reps - 1) (fun _ ->
                    snd (time (fun () -> ignore (Scenario.to_problem_sparse sc))))
              in
              let tag what = Printf.sprintf "city %d: %s" (seed + i) what in
              let st, _, bla_o = solve_city ops ~tag ~pool:(Some pool) sc p in
              (first :: again, st, bla_o.Distributed.rounds))
        in
        (* the compiles are set-up, the five solves are the work *)
        ( List.map (fun c -> { t with wall = c }) compiles,
          { t with wall = t.wall -. List.fold_left ( +. ) 0. compiles },
          st,
          rounds ))
  in
  let compiles = List.concat_map (fun (c, _, _, _) -> c) per_city in
  let solves = List.map (fun (_, s, _, _) -> s) per_city in
  let sum f = List.fold_left (fun acc (_, _, st, _) -> acc +. f st) 0. per_city in
  let metrics, detail =
    e2e_metrics host
      ~setup:
        (List.nth
           (List.sort (fun a b -> Float.compare (scaled a) (scaled b)) compiles)
           (List.length compiles / 2))
      ~work:solves
      ~latencies_ms:(List.map (fun t -> { t with wall = 1e3 *. t.wall }) solves)
      ~peak_mem_mb:(peak_mem_mb ())
  in
  {
    workload = "city";
    seed;
    ops;
    metrics =
      metrics
      @ [
          m Diag "city.mnu_dist_s" "s" (sum (fun st -> st.mnu_dist));
          m Diag "city.bla_dist_s" "s" (sum (fun st -> st.bla_dist));
          m Diag "city.bla_shard_s" "s" (sum (fun st -> st.bla_shard));
          m Diag "city.mnu_central_s" "s" (sum (fun st -> st.mnu_central));
          m Diag "city.bla_central_s" "s" (sum (fun st -> st.bla_central));
          m Diag "city.compile_sparse_s" "s"
            (List.fold_left (fun a t -> a +. t.wall) 0. compiles);
          m Diag "process.peak_mem_mb" "MB" (vm_hwm_mb "self");
          m Diag "city.bla_dist_rounds_max" "count"
            (float_of_int
               (List.fold_left (fun acc (_, _, _, r) -> Int.max acc r) 0 per_city));
        ];
    extra = [ ("cities", Int cities); ("jobs", Int jobs) ] @ detail;
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* One city through the same stages, plus each shard solved on its own
   ([Shard.extract] + [Distributed.run]) so the slowest shard's share of
   the summed shard time is visible. *)
let pipeline ~seed ~smoke ops () =
  let sc = generate ~smoke ~seed 0 in
  let p =
    Tracer.call "wlan_model.Scenario.to_problem_sparse" (fun () ->
        Scenario.to_problem_sparse sc)
  in
  let tag what = Printf.sprintf "city %d: %s" seed what in
  let _, plan, _ = solve_city ops ~tag ~pool:None sc p in
  let shard_times =
    List.map
      (fun shard ->
        snd
          (time (fun () ->
               let sub =
                 Tracer.call "mcast_core.Shard.extract" (fun () ->
                     Shard.extract p shard)
               in
               let o =
                 Tracer.call "mcast_core.Distributed.run" (fun () ->
                     Distributed.run ~max_rounds:max_int
                       ~scheduler:Distributed.Sequential
                       ~objective:Distributed.Min_load_vector sub)
               in
               check ops o.converged (tag "a shard did not converge"))))
      plan.Shard.shards
  in
  let slowest = List.fold_left Float.max 0. shard_times in
  [
    m Layer "shard.slowest_share" "ratio"
      (ratio slowest (List.fold_left ( +. ) 0. shard_times));
  ]
