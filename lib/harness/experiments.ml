(** One driver per table/figure of the paper's evaluation (§7).

    Common setup (the paper's): APs and users uniform over a 1.2 km² area,
    802.11a rates (Table 1), multicast budget 0.9, 5 sessions at 1 Mbps,
    every user subscribing to one session at random, min/avg/max over
    [scenarios] random seeds. Each experiment returns a {!Series.figure}
    whose rows mirror the paper's plot series. *)

open Wlan_model
open Mcast_core

type config = {
  scenarios : int;  (** random scenarios per point (paper: 40) *)
  small_scenarios : int;  (** scenarios for the ILP-bound Fig. 12 *)
  seed : int;
  ilp_node_limit : int;  (** branch-and-bound budget per exact solve *)
  jobs : int;  (** domains fanning scenarios out; 1 = fully sequential *)
}

let default_config =
  {
    scenarios = 40;
    small_scenarios = 8;
    seed = 2007;
    ilp_node_limit = 4_000;
    jobs = 1;
  }

(** {1 Generic sweep machinery}

    Every scenario loop below goes through a {!Pool}: one job per random
    instance, with the instance's RNG seed split from [cfg.seed] before
    dispatch (see {!Scenario_gen.scenario_rng}), and results re-assembled
    in instance order — so every figure is bit-identical at any [jobs]
    value. *)

(** Evaluate every [(name, f)] of [algorithms] on every problem, one pool
    job per problem; summaries are per algorithm, in instance order. *)
let eval_rows pool ~algorithms problems =
  let rows =
    Pool.run pool
      (List.map
         (fun p () -> List.map (fun (_, f) -> f p) algorithms)
         problems)
  in
  List.mapi
    (fun k (name, _) ->
      (name, Stats.summarize (List.map (fun row -> List.nth row k) rows)))
    algorithms

(** Run [algorithms] (name, problem -> metric) over [scenarios] random
    instances at each x, where [problems_at x] generates them. *)
let sweep ~pool ~algorithms ~problems_at xs =
  List.map
    (fun x -> { Series.x; values = eval_rows pool ~algorithms (problems_at x) })
    xs

(** Generate [n] instances through the pool: instance [i] depends only on
    [(seed, i)], never on the instances before it. *)
let par_problems pool ~seed ~n gen_cfg =
  Pool.run pool
    (List.init n (fun i () -> Scenario_gen.nth_problem ~seed ~index:i gen_cfg))

let gen_problems pool cfg ~ix ~gen_cfg =
  par_problems pool ~seed:(cfg.seed + (1009 * ix)) ~n:cfg.scenarios gen_cfg

(** {1 Metrics} *)

let total_of (s : Solution.t) = s.Solution.total_load
let max_of (s : Solution.t) = s.Solution.max_load
let sat_of (s : Solution.t) = float_of_int s.Solution.satisfied

let mla_algorithms =
  [
    ("MLA-centralized", fun p -> total_of (Mla.run p));
    ("MLA-distributed", fun p -> total_of (fst (Distributed.mla p)));
    ("SSA", fun p -> total_of (Ssa.run p));
  ]

(* BLA-centralized runs the hard-cap variant of the B* cover (never
   overshoot a group's budget) — measurably tighter than the paper's
   overshoot-and-split pseudo-code at identical cost; the ablate-bla-mode
   experiment compares the two. *)
let bla_algorithms =
  [
    ("BLA-centralized", fun p -> max_of (Bla.run_exn ~mode:`Hard p));
    ("BLA-distributed", fun p -> max_of (fst (Distributed.bla p)));
    ("SSA", fun p -> max_of (Ssa.run p));
  ]

let mnu_algorithms =
  [
    ("MNU-centralized", fun p -> sat_of (Mnu.run p));
    ("MNU-distributed", fun p -> sat_of (fst (Distributed.mnu p)));
    ("SSA", fun p -> sat_of (Ssa.run p));
  ]

(** {1 Figure 9 — total AP load (MLA vs SSA)} *)

let user_sweep = [ 50; 100; 150; 200; 250; 300; 350; 400 ]
let ap_sweep = [ 25; 50; 75; 100; 125; 150; 175; 200 ]
let session_sweep = [ 1; 2; 4; 6; 8; 10; 14; 18 ]

let fig9a ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let points =
    sweep ~pool ~algorithms:mla_algorithms
      ~problems_at:(fun users ->
        gen_problems pool cfg ~ix:(int_of_float users)
          ~gen_cfg:
            {
              Scenario_gen.paper_default with
              n_aps = 200;
              n_users = int_of_float users;
            })
      (List.map float_of_int user_sweep)
  in
  {
    Series.id = "fig9a";
    title = "Total AP load vs number of users (200 APs, 5 sessions)";
    x_label = "users";
    y_label = "total multicast load";
    points;
  }

let fig9b ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  {
    Series.id = "fig9b";
    title = "Total AP load vs number of APs (100 users, 5 sessions)";
    x_label = "APs";
    y_label = "total multicast load";
    points =
      sweep ~pool ~algorithms:mla_algorithms
        ~problems_at:(fun aps ->
          gen_problems pool cfg ~ix:(int_of_float aps)
            ~gen_cfg:
              {
                Scenario_gen.paper_default with
                n_aps = int_of_float aps;
                n_users = 100;
              })
        (List.map float_of_int ap_sweep);
  }

let fig9c ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  {
    Series.id = "fig9c";
    title = "Total AP load vs number of sessions (200 APs, 200 users)";
    x_label = "sessions";
    y_label = "total multicast load";
    points =
      sweep ~pool ~algorithms:mla_algorithms
        ~problems_at:(fun s ->
          gen_problems pool cfg ~ix:(int_of_float s)
            ~gen_cfg:
              {
                Scenario_gen.paper_default with
                n_aps = 200;
                n_users = 200;
                n_sessions = int_of_float s;
              })
        (List.map float_of_int session_sweep);
  }

(** {1 Figure 10 — maximum AP load (BLA vs SSA)} *)

let fig10a ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  {
    Series.id = "fig10a";
    title = "Max AP load vs number of users (200 APs, 5 sessions)";
    x_label = "users";
    y_label = "max multicast load";
    points =
      sweep ~pool ~algorithms:bla_algorithms
        ~problems_at:(fun users ->
          gen_problems pool cfg ~ix:(int_of_float users)
            ~gen_cfg:
              {
                Scenario_gen.paper_default with
                n_aps = 200;
                n_users = int_of_float users;
              })
        (List.map float_of_int user_sweep);
  }

let fig10b ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  {
    Series.id = "fig10b";
    title = "Max AP load vs number of APs (100 users, 5 sessions)";
    x_label = "APs";
    y_label = "max multicast load";
    points =
      sweep ~pool ~algorithms:bla_algorithms
        ~problems_at:(fun aps ->
          gen_problems pool cfg ~ix:(int_of_float aps)
            ~gen_cfg:
              {
                Scenario_gen.paper_default with
                n_aps = int_of_float aps;
                n_users = 100;
              })
        (List.map float_of_int ap_sweep);
  }

let fig10c ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  {
    Series.id = "fig10c";
    title = "Max AP load vs number of sessions (200 APs, 200 users)";
    x_label = "sessions";
    y_label = "max multicast load";
    points =
      sweep ~pool ~algorithms:bla_algorithms
        ~problems_at:(fun s ->
          gen_problems pool cfg ~ix:(int_of_float s)
            ~gen_cfg:
              {
                Scenario_gen.paper_default with
                n_aps = 200;
                n_users = 200;
                n_sessions = int_of_float s;
              })
        (List.map float_of_int session_sweep);
  }

(** {1 Figure 11 — satisfied users vs multicast budget (MNU vs SSA)}

    400 users, 100 APs, 18 sessions; the x-axis is the per-AP multicast
    load limit. The same topologies are re-budgeted across the sweep, as a
    budget is an operator knob, not a property of the deployment. *)

let budget_sweep = [ 0.01; 0.02; 0.03; 0.04; 0.05; 0.06; 0.08; 0.1 ]

let fig11 ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let base_problems =
    gen_problems pool cfg ~ix:11
      ~gen_cfg:
        {
          Scenario_gen.paper_default with
          n_aps = 100;
          n_users = 400;
          n_sessions = 18;
        }
  in
  {
    Series.id = "fig11";
    title =
      "Satisfied users vs multicast load limit (400 users, 100 APs, 18 \
       sessions)";
    x_label = "per-AP load limit";
    y_label = "satisfied users";
    points =
      sweep ~pool ~algorithms:mnu_algorithms
        ~problems_at:(fun b ->
          List.map (fun p -> Problem.with_budget p b) base_problems)
        budget_sweep;
  }

(** {1 Figure 12 — optimality on small networks}

    30 APs and 10..50 users in a 600 m side area; ILP-based exact optima.
    The MNU comparison uses the paper's budget 0.042 and reports
    {e unsatisfied} users. *)

let small_user_sweep = [ 10; 20; 30; 40; 50 ]

let small_gen users =
  { Scenario_gen.paper_small with n_users = users }

let small_problems pool cfg ~ix users =
  par_problems pool ~seed:(cfg.seed + (31 * ix)) ~n:cfg.small_scenarios
    (small_gen users)

let fig12a ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let algorithms =
    mla_algorithms
    @ [
        ( "optimal",
          fun p ->
            match
              Optimal.mla ~node_limit:(Int.max cfg.ilp_node_limit 500_000) p
            with
            | Some v -> v.Optimal.value
            | None -> Float.nan );
      ]
  in
  {
    Series.id = "fig12a";
    title = "Total AP load vs users, 30 APs, 600 m area (with ILP optimum)";
    x_label = "users";
    y_label = "total multicast load";
    points =
      sweep ~pool ~algorithms
        ~problems_at:(fun users ->
          small_problems pool cfg ~ix:(int_of_float users) (int_of_float users))
        (List.map float_of_int small_user_sweep);
  }

let fig12b ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let algorithms =
    bla_algorithms
    @ [
        ( "optimal",
          fun p ->
            let greedy = (Bla.run_exn ~mode:`Hard p).Solution.max_load in
            let dist = (fst (Distributed.bla p)).Solution.max_load in
            let bound = Float.min greedy dist in
            match
              Optimal.bla ~node_limit:cfg.ilp_node_limit
                ~initial_bound:(bound +. 1e-9) p
            with
            | Some v -> Float.min v.Optimal.value bound
            | None -> bound );
      ]
  in
  {
    Series.id = "fig12b";
    title = "Max AP load vs users, 30 APs, 600 m area (with ILP optimum)";
    x_label = "users";
    y_label = "max multicast load";
    points =
      sweep ~pool ~algorithms
        ~problems_at:(fun users ->
          small_problems pool cfg ~ix:(41 * int_of_float users)
            (int_of_float users))
        (List.map float_of_int small_user_sweep);
  }

let fig12c ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  (* unsatisfied users under budget 0.042 *)
  let budget = 0.042 in
  let unsat f p =
    let p = Problem.with_budget p budget in
    let _, n_users = Problem.dims p in
    float_of_int n_users -. sat_of (f p)
  in
  let algorithms =
    [
      ("MNU-centralized", unsat (fun p -> Mnu.run p));
      ("MNU-distributed", unsat (fun p -> fst (Distributed.mnu p)));
      ("SSA", unsat Ssa.run);
      ( "optimal",
        unsat (fun p ->
            match Optimal.mnu ~node_limit:cfg.ilp_node_limit p with
            | Some v -> v.Optimal.solution
            | None -> Solution.make ~algorithm:"none" p
                        (Association.empty ~n_users:(snd (Problem.dims p)))) );
    ]
  in
  {
    Series.id = "fig12c";
    title =
      "Unsatisfied users vs users, 30 APs, 600 m area, budget 0.042 (with \
       ILP optimum)";
    x_label = "users";
    y_label = "unsatisfied users";
    points =
      sweep ~pool ~algorithms
        ~problems_at:(fun users ->
          small_problems pool cfg ~ix:(53 * int_of_float users)
            (int_of_float users))
        (List.map float_of_int small_user_sweep);
  }

(** {1 Table 1} — the rate-adaptation table itself (an input the harness
    prints back for completeness, with a round-trip check). *)

let table1 () =
  List.map
    (fun (e : Rate_table.entry) ->
      (e.Rate_table.rate_mbps, e.Rate_table.threshold_m))
    (Rate_table.entries Rate_table.default)

(** {1 Headline numbers} — the abstract's claims, recomputed:
    users +36.9% (MNU, budget 0.04), max load −52.9% (BLA, 400 users),
    total load −31.1% (MLA, 400 users). *)

type headline = {
  mnu_user_gain_pct : float;
  bla_max_load_reduction_pct : float;
  mla_total_load_reduction_pct : float;
}

let headline ~fig9a ~fig10a ~fig11 =
  let at fig name x = Option.get (Series.mean_at fig name x) in
  {
    mla_total_load_reduction_pct =
      Stats.pct_reduction
        ~baseline:(at fig9a "SSA" 400.)
        ~improved:(at fig9a "MLA-centralized" 400.);
    bla_max_load_reduction_pct =
      Stats.pct_reduction
        ~baseline:(at fig10a "SSA" 400.)
        ~improved:(at fig10a "BLA-centralized" 400.);
    mnu_user_gain_pct =
      Stats.pct_gain
        ~baseline:(at fig11 "SSA" 0.04)
        ~improved:(at fig11 "MNU-centralized" 0.04);
  }

(** {1 Ablations} (design choices called out in DESIGN.md) *)

(** Multi-rate vs basic-rate multicast: the paper notes (§3.1) that the
    algorithms still beat SSA when broadcast is pinned to the basic rate. *)
let ablate_rate ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let problems =
    gen_problems pool cfg ~ix:77
      ~gen_cfg:{ Scenario_gen.paper_default with n_aps = 200; n_users = 200 }
  in
  let rows transform =
    eval_rows pool
      ~algorithms:
        (List.map
           (fun (name, f) -> (name, fun p -> f (transform p)))
           mla_algorithms)
      problems
  in
  {
    Series.id = "ablate-rate";
    title = "Total load: multi-rate vs basic-rate multicast (200 APs, 200 users)";
    x_label = "mode (0 = multi-rate, 1 = basic)";
    y_label = "total multicast load";
    points =
      [
        { Series.x = 0.; values = rows Fun.id };
        { Series.x = 1.; values = rows Problem.restrict_to_basic_rate };
      ];
  }

(** BLA's B* grid resolution. *)
let ablate_bstar ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let problems =
    gen_problems pool cfg ~ix:78
      ~gen_cfg:{ Scenario_gen.paper_default with n_aps = 100; n_users = 200 }
  in
  {
    Series.id = "ablate-bstar";
    title = "Centralized BLA: max load vs size of the B* guess grid";
    x_label = "grid size";
    y_label = "max multicast load";
    points =
      List.map
        (fun n_guesses ->
          {
            Series.x = float_of_int n_guesses;
            values =
              eval_rows pool
                ~algorithms:
                  [
                    ( "BLA-centralized",
                      fun p -> (Bla.run_exn ~n_guesses p).Solution.max_load );
                  ]
                problems;
          })
        [ 2; 4; 8; 12; 16; 24 ];
  }

(** BLA inner-loop discipline: the paper's overshoot-and-split MCG
    ([`Soft], carries the 8-approximation guarantee) vs the hard-cap
    variant ([`Hard], never overshoots, no guarantee). *)
let ablate_bla_mode ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let problems =
    gen_problems pool cfg ~ix:80
      ~gen_cfg:{ Scenario_gen.paper_default with n_aps = 200; n_users = 400 }
  in
  let row mode name = (name, fun p -> (Bla.run_exn ~mode p).Solution.max_load) in
  {
    Series.id = "ablate-bla-mode";
    title = "Centralized BLA: overshoot-and-split vs hard budget caps";
    x_label = "(400 users)";
    y_label = "max multicast load";
    points =
      [
        {
          Series.x = 400.;
          values =
            eval_rows pool
              ~algorithms:
                [ row `Soft "soft (paper Fig. 3)"; row `Hard "hard caps" ]
              problems;
        };
      ];
  }

(** MLA solver family on small networks (the paper's §6.1 remark that the
    layer algorithm is an alternative to greedy): greedy vs layering vs LP
    rounding vs the exact optimum. *)
let ablate_mla_alg ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let algorithms =
    [
      ("greedy", fun p -> total_of (Mla.run p));
      ("layered", fun p -> total_of (Mla.run_layered p));
      ( "lp-rounding",
        fun p ->
          match Mla.run_lp_rounding p with
          | Some s -> total_of s
          | None -> Float.nan );
      ( "optimal",
        fun p ->
          match
            Optimal.mla ~node_limit:(Int.max cfg.ilp_node_limit 500_000) p
          with
          | Some v -> v.Optimal.value
          | None -> Float.nan );
    ]
  in
  {
    Series.id = "ablate-mla-alg";
    title = "MLA solver family: greedy vs layering vs LP rounding vs exact";
    x_label = "users";
    y_label = "total multicast load";
    points =
      sweep ~pool ~algorithms
        ~problems_at:(fun users ->
          small_problems pool cfg ~ix:(71 * int_of_float users)
            (int_of_float users))
        (List.map float_of_int [ 10; 20; 30; 40 ]);
  }

(** {1 Extension experiments} — features beyond the paper's evaluation,
    built on its §8 future work and §3.1 framework citations. *)

(** Zipf session popularity: real audiences concentrate on few channels;
    association control's edge over SSA grows with the skew, because
    popular sessions can be consolidated onto fewer transmissions. *)
let ext_popularity ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let problems_at alpha =
    let popularity =
      if alpha <= 1e-9 then Scenario_gen.Uniform_pop else Scenario_gen.Zipf alpha
    in
    par_problems pool ~seed:(cfg.seed + 91) ~n:cfg.scenarios
      {
        Scenario_gen.paper_default with
        n_aps = 200;
        n_users = 400;
        n_sessions = 10;
        popularity;
      }
  in
  {
    Series.id = "ext-popularity";
    title =
      "Total AP load vs Zipf popularity skew (200 APs, 400 users, 10 \
       sessions)";
    x_label = "zipf alpha";
    y_label = "total multicast load";
    points =
      sweep ~pool ~algorithms:mla_algorithms ~problems_at
        [ 0.; 0.5; 1.0; 1.5; 2.0 ];
  }

(** Residual co-channel interference: 3 channels (the 802.11b/g situation
    the paper contrasts with 802.11a), carrier-sense at twice the data
    range. BLA/MLA "implicitly optimize interference" (§3.2 note) — this
    measures by how much. *)
let ext_interference ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let range = 2. *. Rate_table.range Rate_table.default in
  let point aps =
    let samples =
      Pool.run pool
      @@ List.init cfg.scenarios (fun i () ->
          let rng = Random.State.make [| cfg.seed + 17; aps; i |] in
          let sc =
            Scenario_gen.generate ~rng
              { Scenario_gen.paper_default with n_aps = aps; n_users = 200 }
          in
          let p = Scenario.to_problem sc in
          let edges = Channels.conflict_edges ~range sc.Scenario.ap_pos in
          let asg = Channels.color ~n_channels:3 ~n_aps:aps edges in
          let interf assoc =
            Channels.total_interference asg ~loads:(Loads.ap_loads p assoc)
          in
          ( interf (Ssa.run p).Solution.assoc,
            interf (Mla.run p).Solution.assoc,
            interf (Bla.run_exn ~mode:`Hard p).Solution.assoc,
            interf
              (Mla.run_interference_aware ~channels:asg ~lambda:2. p)
                .Solution.assoc ))
    in
    {
      Series.x = float_of_int aps;
      values =
        [
          ("SSA", Stats.summarize (List.map (fun (s, _, _, _) -> s) samples));
          ( "MLA-centralized",
            Stats.summarize (List.map (fun (_, m, _, _) -> m) samples) );
          ( "BLA-centralized",
            Stats.summarize (List.map (fun (_, _, b, _) -> b) samples) );
          ( "MLA-interference-aware",
            Stats.summarize (List.map (fun (_, _, _, i) -> i) samples) );
        ];
    }
  in
  {
    Series.id = "ext-interference";
    title =
      "Total residual co-channel interference, 3 channels, carrier sense \
       2x data range (200 users)";
    x_label = "APs";
    y_label = "sum of co-channel neighbor load";
    points = List.map point [ 50; 100; 150; 200 ];
  }

(** Dual association (§3.1 / WiMesh'05): combined unicast+multicast airtime
    of one shared SSA AP vs SSA-unicast + MLA-multicast, across unicast
    demand levels. *)
let ext_dual ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let problems =
    gen_problems pool cfg ~ix:23
      ~gen_cfg:{ Scenario_gen.paper_default with n_aps = 100; n_users = 200 }
  in
  let point demand =
    let samples =
      Pool.run pool
      @@ List.map
           (fun p () ->
             let demands = Mcast_core.Dual.uniform_demands p ~mbps:demand in
             Mcast_core.Dual.compare_single_vs_dual ~objective:`Mla p ~demands)
           problems
    in
    {
      Series.x = demand;
      values =
        [
          ( "single-assoc total",
            Stats.summarize
              (List.map
                 (fun c -> c.Mcast_core.Dual.single.Mcast_core.Dual.total)
                 samples) );
          ( "dual-assoc total",
            Stats.summarize
              (List.map
                 (fun c -> c.Mcast_core.Dual.dual.Mcast_core.Dual.total)
                 samples) );
          ( "saving %",
            Stats.summarize
              (List.map (fun c -> c.Mcast_core.Dual.total_saving_pct) samples)
          );
        ];
    }
  in
  {
    Series.id = "ext-dual";
    title =
      "Dual vs single association: combined airtime (100 APs, 200 users)";
    x_label = "unicast demand (Mbps/user)";
    y_label = "total airtime";
    points = List.map point [ 0.25; 0.5; 1.0; 2.0 ];
  }

(** Protocol robustness: the DES query/response protocol under message
    loss — served users and passes to convergence. *)
let ext_loss ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let n_scen = Int.min cfg.scenarios 10 in
  let point loss =
    let samples =
      Pool.run pool
      @@ List.init n_scen (fun i () ->
          let rng = Random.State.make [| cfg.seed + 3; i |] in
          let sc =
            Scenario_gen.generate ~rng
              {
                Scenario_gen.paper_default with
                n_aps = 30;
                n_users = 60;
                area_w = 600.;
                area_h = 600.;
              }
          in
          let r =
            Wlan_sim.Runner.run ~seed:i ~loss_rate:loss
              ~policy:
                (Wlan_sim.Runner.Distributed_policy
                   {
                     objective = Mcast_core.Distributed.Min_total_load;
                     mode = Wlan_sim.Runner.Sequential;
                     max_passes = 40;
                   })
              sc
          in
          ( float_of_int r.Wlan_sim.Runner.solution.Mcast_core.Solution.satisfied,
            float_of_int r.Wlan_sim.Runner.passes ))
    in
    {
      Series.x = loss;
      values =
        [
          ("served users", Stats.summarize (List.map fst samples));
          ("passes", Stats.summarize (List.map snd samples));
        ];
    }
  in
  {
    Series.id = "ext-loss";
    title =
      "Distributed protocol under message loss (DES, 30 APs, 60 users)";
    x_label = "loss rate";
    y_label = "served users / passes";
    points = List.map point [ 0.; 0.2; 0.4; 0.6; 0.8 ];
  }

(** Per-AP power control (§8): what coordinate descent buys as the
    interference weight grows. *)
let ext_power ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let n_scen = Int.min cfg.scenarios 10 in
  let point mu =
    let samples =
      Pool.run pool
      @@ List.init n_scen (fun i () ->
          let rng = Random.State.make [| cfg.seed + 5; i |] in
          let sc =
            Scenario_gen.generate ~rng
              {
                Scenario_gen.paper_default with
                n_aps = 40;
                n_users = 80;
                area_w = 500.;
                area_h = 500.;
              }
          in
          let edges =
            Channels.conflict_edges
              ~range:(2. *. Rate_table.range Rate_table.default)
              sc.Scenario.ap_pos
          in
          let channels = Channels.color ~n_channels:3 ~n_aps:40 edges in
          let plan = Mcast_core.Power.optimize ~channels ~mu sc in
          ( float_of_int (Mcast_core.Power.reduced_count plan),
            Stats.pct_reduction
              ~baseline:plan.Mcast_core.Power.full_power_objective
              ~improved:plan.Mcast_core.Power.objective ))
    in
    {
      Series.x = mu;
      values =
        [
          ("APs below full power", Stats.summarize (List.map fst samples));
          ("objective gain %", Stats.summarize (List.map snd samples));
        ];
    }
  in
  {
    Series.id = "ext-power";
    title =
      "Per-AP power control: reductions and joint-objective gain vs \
       interference weight (40 APs, 3 channels)";
    x_label = "mu";
    y_label = "APs reduced / J gain %";
    points = List.map point [ 0.05; 0.1; 0.2; 0.4 ];
  }

(** 802.11a (Table 1, 12 channels) vs 802.11b (longer reach, 3 channels):
    the standards trade coverage against rate and channel diversity. *)
let ext_standards ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let point (label_x, table, n_channels) =
    let samples =
      Pool.run pool
      @@ List.init cfg.scenarios (fun i () ->
          let rng = Random.State.make [| cfg.seed + 6; i |] in
          let sc =
            Scenario_gen.generate ~rng
              {
                Scenario_gen.paper_default with
                n_aps = 100;
                n_users = 200;
                rate_table = table;
              }
          in
          let p = Scenario.to_problem sc in
          let edges =
            Channels.conflict_edges
              ~range:(2. *. Rate_table.range table)
              sc.Scenario.ap_pos
          in
          let asg = Channels.color ~n_channels ~n_aps:100 edges in
          let mla = Mla.run p in
          ( mla.Solution.total_load,
            Channels.total_interference asg ~loads:mla.Solution.ap_loads ))
    in
    {
      Series.x = label_x;
      values =
        [
          ("MLA total load", Stats.summarize (List.map fst samples));
          ("co-channel interference", Stats.summarize (List.map snd samples));
        ];
    }
  in
  {
    Series.id = "ext-standards";
    title =
      "802.11a (x=0: Table 1, 12 channels) vs 802.11b (x=1: longer reach, \
       3 channels), 100 APs / 200 users";
    x_label = "standard";
    y_label = "total load / interference";
    points =
      List.map point
        [ (0., Rate_table.ieee80211a, 12); (1., Rate_table.ieee80211b, 3) ];
  }

(** Mobility churn: users relocating between epochs; warm-started
    re-convergence cost. *)
let ext_mobility ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let n_scen = Int.min cfg.scenarios 8 in
  let point fraction =
    let samples =
      Pool.run pool
      @@ List.init n_scen (fun i () ->
          let rng = Random.State.make [| cfg.seed + 4; i |] in
          let sc =
            Scenario_gen.generate ~rng
              {
                Scenario_gen.paper_default with
                n_aps = 30;
                n_users = 60;
                area_w = 600.;
                area_h = 600.;
              }
          in
          let reports =
            Wlan_sim.Mobility.run ~seed:i ~move_fraction:fraction ~epochs:4
              ~policy:
                (Wlan_sim.Runner.Distributed_policy
                   {
                     objective = Mcast_core.Distributed.Min_total_load;
                     mode = Wlan_sim.Runner.Sequential;
                     max_passes = 40;
                   })
              sc
          in
          (* mean over the warm epochs (2..) *)
          let warm = List.filteri (fun i _ -> i > 0) reports in
          let mean f =
            List.fold_left (fun a e -> a +. f e) 0. warm
            /. float_of_int (List.length warm)
          in
          ( mean (fun (e : Wlan_sim.Mobility.epoch_report) ->
                float_of_int e.Wlan_sim.Mobility.rejoin_moves),
            mean (fun (e : Wlan_sim.Mobility.epoch_report) ->
                float_of_int e.Wlan_sim.Mobility.report.Wlan_sim.Runner.passes)
          ))
    in
    {
      Series.x = fraction;
      values =
        [
          ("re-associations", Stats.summarize (List.map fst samples));
          ("passes", Stats.summarize (List.map snd samples));
        ];
    }
  in
  {
    Series.id = "ext-mobility";
    title = "Re-convergence cost vs mobility burst size (DES, 30 APs, 60 users)";
    x_label = "fraction moved";
    y_label = "re-associations / passes";
    points = List.map point [ 0.05; 0.1; 0.2; 0.4 ];
  }

(** Churn replay: per-event disruption vs churn intensity. One pool job
    per random instance; the instance and its script derive only from
    [(seed, n_events, i)], so the figure is bit-identical at any [jobs]
    value. *)
let ext_churn ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let n_scen = Int.min cfg.scenarios 8 in
  let point n_events =
    let samples =
      Pool.run pool
      @@ List.init n_scen (fun i () ->
             let p =
               Scenario_gen.nth_problem ~seed:(cfg.seed + 8) ~index:i
                 {
                   Scenario_gen.paper_default with
                   n_aps = 30;
                   n_users = 60;
                   area_w = 600.;
                   area_h = 600.;
                 }
             in
             let n_aps, n_users = Problem.dims p in
             let rng = Random.State.make [| cfg.seed + 8; n_events; i |] in
             let script =
               Churn_script.random ~rng ~n_aps ~n_users
                 { Churn_script.default_gen with n_events }
             in
             let o =
               Wlan_sim.Churn.run ~baseline:false
                 ~objective:Distributed.Min_total_load ~script p
             in
             (* the head step is the initial static convergence, not churn *)
             let churn_steps =
               List.filteri (fun k _ -> k > 0) o.Wlan_sim.Churn.steps
             in
             let mean f =
               match churn_steps with
               | [] -> 0.
               | _ ->
                   List.fold_left (fun a s -> a +. f s) 0. churn_steps
                   /. float_of_int (List.length churn_steps)
             in
             ( mean (fun (s : Wlan_sim.Churn.step) ->
                   float_of_int s.Wlan_sim.Churn.reassociated),
               mean (fun (s : Wlan_sim.Churn.step) ->
                   float_of_int s.Wlan_sim.Churn.rounds) ))
    in
    {
      Series.x = float_of_int n_events;
      values =
        [
          ("reassociated", Stats.summarize (List.map fst samples));
          ("rounds", Stats.summarize (List.map snd samples));
        ];
    }
  in
  {
    Series.id = "ext-churn";
    title = "Per-step disruption vs churn intensity (30 APs, 60 users)";
    x_label = "script events";
    y_label = "mean re-associations / rounds per step";
    points = List.map point [ 10; 20; 40; 80 ];
  }

(** Distributed scheduler comparison: solution quality and rounds. *)
let ablate_sched ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let problems =
    gen_problems pool cfg ~ix:79
      ~gen_cfg:{ Scenario_gen.paper_default with n_aps = 100; n_users = 200 }
  in
  let run sched p =
    Distributed.run ~scheduler:sched ~objective:Distributed.Min_total_load p
  in
  let quality sched p = Loads.total_load p (run sched p).Distributed.assoc in
  let rounds sched p = float_of_int (run sched p).Distributed.rounds in
  let point x sched =
    {
      Series.x;
      values =
        eval_rows pool
          ~algorithms:
            [ ("total-load", quality sched); ("rounds", rounds sched) ]
          problems;
    }
  in
  {
    Series.id = "ablate-sched";
    title = "Distributed MLA: sequential vs simultaneous vs locked";
    x_label = "scheduler (0=seq, 1=simul, 2=locked)";
    y_label = "total load / rounds";
    points =
      [
        point 0. Distributed.Sequential;
        point 1. Distributed.Simultaneous;
        point 2. Distributed.Locked;
      ];
  }

(** {1 PHY-model ablation} — how sensitive are solution quality and
    distributed convergence to the propagation model behind the
    link-rate matrix? Same deployments (same split-RNG position
    streams), four {!Rate_model} instances: the paper's Table 1 ladder,
    Friis free space, two-ray ground and log-distance with seeded
    shadowing. Coverage resampling runs under each model's own link
    predicate, exactly as the compile does. *)

let phy_models =
  [
    (0., "table1", None);
    (1., "friis", Some (Rate_model.friis ()));
    (2., "two-ray", Some (Rate_model.two_ray ()));
    ( 3.,
      "log-distance",
      Some
        (Rate_model.log_distance
           ~shadowing:{ Rate_model.sigma_db = 4.; seed = 7 }
           ()) );
  ]

let ablate_phy ?(cfg = default_config) () =
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let n_scen = Int.min cfg.scenarios 10 in
  let point (x, _label, rate_model) =
    let problems =
      Pool.run pool
      @@ List.init n_scen (fun i () ->
          Scenario_gen.nth_problem ~seed:(cfg.seed + 23) ~index:i
            {
              Scenario_gen.paper_default with
              n_aps = 100;
              n_users = 200;
              rate_model;
            })
    in
    {
      Series.x;
      values =
        eval_rows pool
          ~algorithms:
            [
              ("MLA total load", fun p -> total_of (Mla.run p));
              ("BLA max load", fun p -> max_of (Bla.run_exn ~mode:`Hard p));
              ( "MNU users",
                fun p -> sat_of (Mnu.run (Problem.with_budget p 0.05)) );
              ("SSA total load", fun p -> total_of (Ssa.run p));
              ( "MLA-dist rounds",
                fun p ->
                  float_of_int
                    (Distributed.run ~scheduler:Distributed.Sequential
                       ~objective:Distributed.Min_total_load p)
                      .Distributed.rounds );
            ]
          problems;
    }
  in
  {
    Series.id = "ablate-phy";
    title =
      "PHY ablation: Table 1 (x=0) vs Friis (x=1) vs two-ray (x=2) vs \
       log-distance + shadowing (x=3), 100 APs / 200 users";
    x_label = "link-rate model";
    y_label = "load / users / rounds";
    points = List.map point phy_models;
  }

(** {1 Driver registry} — every figure driver by id, shared by the bench
    harness and the [wlan-mcast figures] subcommand so the two front ends
    cannot drift apart. *)

let drivers : (string * (?cfg:config -> unit -> Series.figure)) list =
  [
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig9c", fig9c);
    ("fig10a", fig10a);
    ("fig10b", fig10b);
    ("fig10c", fig10c);
    ("fig11", fig11);
    ("fig12a", fig12a);
    ("fig12b", fig12b);
    ("fig12c", fig12c);
    ("ablate-rate", ablate_rate);
    ("ablate-bstar", ablate_bstar);
    ("ablate-sched", ablate_sched);
    ("ablate-bla-mode", ablate_bla_mode);
    ("ablate-mla-alg", ablate_mla_alg);
    ("ext-popularity", ext_popularity);
    ("ext-interference", ext_interference);
    ("ext-dual", ext_dual);
    ("ext-loss", ext_loss);
    ("ext-mobility", ext_mobility);
    ("ext-power", ext_power);
    ("ext-standards", ext_standards);
    ("ext-churn", ext_churn);
    ("ablate-phy", ablate_phy);
  ]
