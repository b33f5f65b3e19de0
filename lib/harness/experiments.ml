(** One registry entry per table/figure of the paper's evaluation (§7).

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

(** The one column-wise summarizer: run [jobs] (one per instance, each
    returning one float per name of [columns]) through the pool and
    summarize every column over the instances. *)
let summarize_columns pool columns jobs =
  let rows = Pool.run pool jobs in
  List.mapi
    (fun k name ->
      (name, Stats.summarize (List.map (fun row -> List.nth row k) rows)))
    columns

(** Evaluate every [(name, f)] of [algorithms] on every problem, one pool
    job per problem. *)
let eval_rows pool ~algorithms problems =
  summarize_columns pool (List.map fst algorithms)
    (List.map (fun p () -> List.map (fun (_, f) -> f p) algorithms) problems)

(** One point per [(x, key)] of [xs]: every [(name, problem -> metric)]
    of [algorithms key] on every instance of [problems key]. *)
let sweep pool ~algorithms ~problems xs =
  List.map
    (fun (x, key) ->
      {
        Series.x;
        values = eval_rows pool ~algorithms:(algorithms key) (problems key);
      })
    xs

(** Generate [n] instances through the pool: instance [i] depends only on
    [(seed, i)], never on the instances before it. *)
let par_problems pool ~seed ~n gen_cfg =
  Pool.run pool
    (List.init n (fun i () -> Scenario_gen.nth_problem ~seed ~index:i gen_cfg))

let gen_problems pool cfg ~ix gen_cfg =
  par_problems pool ~seed:(cfg.seed + (1009 * ix)) ~n:cfg.scenarios gen_cfg

let paper n_aps n_users = { Scenario_gen.paper_default with n_aps; n_users }
let at_most k cfg = Int.min cfg.scenarios k
let ints = List.map (fun x -> (float_of_int x, x))
let keyed = List.map (fun x -> (x, x))

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

(** {1 The registry}

    Each entry states once a driver's id, title, axis labels and points;
    {!drivers} opens the pool and assembles the {!Series.figure}. *)

type entry = {
  id : string;
  title : string;
  x_label : string;
  y_label : string;
  points : config -> Pool.t -> Series.point list;
}

(** {2 Figures 9 and 10 — total AP load (MLA) and max AP load (BLA) vs
    SSA}

    One objective row per figure, one shared sweep per panel; the
    instances at x are seeded by x alone, so both figures see the same
    deployments. *)

let paper_sweeps =
  [
    ( "a",
      "users",
      "number of users (200 APs, 5 sessions)",
      [ 50; 100; 150; 200; 250; 300; 350; 400 ],
      fun users -> paper 200 users );
    ( "b",
      "APs",
      "number of APs (100 users, 5 sessions)",
      [ 25; 50; 75; 100; 125; 150; 175; 200 ],
      fun aps -> paper aps 100 );
    ( "c",
      "sessions",
      "number of sessions (200 APs, 200 users)",
      [ 1; 2; 4; 6; 8; 10; 14; 18 ],
      fun n_sessions -> { (paper 200 200) with n_sessions } );
  ]

let paper_objectives =
  [
    ("fig9", "Total AP load", "total multicast load", mla_algorithms);
    ("fig10", "Max AP load", "max multicast load", bla_algorithms);
  ]

let fig9_10 =
  List.concat_map
    (fun (fig, quantity, y_label, algorithms) ->
      List.map
        (fun (panel, x_label, axis, xs, gen) ->
          {
            id = fig ^ panel;
            title = quantity ^ " vs " ^ axis;
            x_label;
            y_label;
            points =
              (fun cfg pool ->
                sweep pool ~algorithms:(Fun.const algorithms)
                  ~problems:(fun x -> gen_problems pool cfg ~ix:x (gen x))
                  (ints xs));
          })
        paper_sweeps)
    paper_objectives

(** {2 Figure 11 — satisfied users vs multicast budget (MNU vs SSA)}

    400 users, 100 APs, 18 sessions; the x-axis is the per-AP multicast
    load limit. The same topologies are re-budgeted across the sweep, as a
    budget is an operator knob, not a property of the deployment. *)

let fig11 =
  {
    id = "fig11";
    title =
      "Satisfied users vs multicast load limit (400 users, 100 APs, 18 \
       sessions)";
    x_label = "per-AP load limit";
    y_label = "satisfied users";
    points =
      (fun cfg pool ->
        let base =
          gen_problems pool cfg ~ix:11 { (paper 100 400) with n_sessions = 18 }
        in
        sweep pool ~algorithms:(Fun.const mnu_algorithms)
          ~problems:(fun b -> List.map (fun p -> Problem.with_budget p b) base)
          (keyed [ 0.01; 0.02; 0.03; 0.04; 0.05; 0.06; 0.08; 0.1 ]));
  }

(** {2 Figure 12 — optimality on small networks}

    30 APs and 10..50 users in a 600 m side area; ILP-based exact optima.
    Each panel (and the MLA solver ablation) seeds its instances from
    [multiplier * users]. The MNU comparison uses the paper's budget 0.042
    and reports {e unsatisfied} users. *)

let small_sweep ~multiplier algorithms users cfg pool =
  sweep pool
    ~algorithms:(Fun.const (algorithms cfg))
    ~problems:(fun users ->
      par_problems pool
        ~seed:(cfg.seed + (31 * multiplier * users))
        ~n:cfg.small_scenarios
        { Scenario_gen.paper_small with n_users = users })
    (ints users)

let small_users = [ 10; 20; 30; 40; 50 ]

let exact_mla cfg =
  ( "optimal",
    fun p ->
      match Optimal.mla ~node_limit:(Int.max cfg.ilp_node_limit 500_000) p with
      | Some v -> v.Optimal.value
      | None -> Float.nan )

let exact_bla cfg =
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
      | None -> bound )

let exact_mnu cfg =
  ( "optimal",
    fun p ->
      sat_of
        (match Optimal.mnu ~node_limit:cfg.ilp_node_limit p with
        | Some v -> v.Optimal.solution
        | None ->
            Solution.make ~algorithm:"none" p
              (Association.empty ~n_users:(snd (Problem.dims p)))) )

(* unsatisfied users under budget 0.042 *)
let unsatisfied (name, sat) =
  ( name,
    fun p ->
      let p = Problem.with_budget p 0.042 in
      let _, n_users = Problem.dims p in
      float_of_int n_users -. sat p )

let fig12 =
  [
    {
      id = "fig12a";
      title = "Total AP load vs users, 30 APs, 600 m area (with ILP optimum)";
      x_label = "users";
      y_label = "total multicast load";
      points =
        small_sweep ~multiplier:1
          (fun cfg -> mla_algorithms @ [ exact_mla cfg ])
          small_users;
    };
    {
      id = "fig12b";
      title = "Max AP load vs users, 30 APs, 600 m area (with ILP optimum)";
      x_label = "users";
      y_label = "max multicast load";
      points =
        small_sweep ~multiplier:41
          (fun cfg -> bla_algorithms @ [ exact_bla cfg ])
          small_users;
    };
    {
      id = "fig12c";
      title =
        "Unsatisfied users vs users, 30 APs, 600 m area, budget 0.042 (with \
         ILP optimum)";
      x_label = "users";
      y_label = "unsatisfied users";
      points =
        small_sweep ~multiplier:53
          (fun cfg -> List.map unsatisfied (mnu_algorithms @ [ exact_mnu cfg ]))
          small_users;
    };
  ]

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

(** Distributed scheduler run to quiescence under the total-load rule. *)
let distributed_mla scheduler p =
  Distributed.run ~scheduler ~objective:Distributed.Min_total_load p

(** Same deployments (same split-RNG position streams) under four
    {!Rate_model} instances: the paper's Table 1 ladder, Friis free space,
    two-ray ground and log-distance with seeded shadowing. Coverage
    resampling runs under each model's own link predicate, exactly as the
    compile does. *)
let phy_models =
  [
    (0., None);
    (1., Some (Rate_model.friis ()));
    (2., Some (Rate_model.two_ray ()));
    ( 3.,
      Some
        (Rate_model.log_distance
           ~shadowing:{ Rate_model.sigma_db = 4.; seed = 7 }
           ()) );
  ]

let ablations =
  [
    (* Multi-rate vs basic-rate multicast: the paper notes (§3.1) that the
       algorithms still beat SSA when broadcast is pinned to the basic
       rate. *)
    {
      id = "ablate-rate";
      title =
        "Total load: multi-rate vs basic-rate multicast (200 APs, 200 users)";
      x_label = "mode (0 = multi-rate, 1 = basic)";
      y_label = "total multicast load";
      points =
        (fun cfg pool ->
          sweep pool
            ~algorithms:(fun transform ->
              List.map
                (fun (name, f) -> (name, fun p -> f (transform p)))
                mla_algorithms)
            ~problems:(Fun.const (gen_problems pool cfg ~ix:77 (paper 200 200)))
            [ (0., Fun.id); (1., Problem.restrict_to_basic_rate) ]);
    };
    (* BLA's B* grid resolution. *)
    {
      id = "ablate-bstar";
      title = "Centralized BLA: max load vs size of the B* guess grid";
      x_label = "grid size";
      y_label = "max multicast load";
      points =
        (fun cfg pool ->
          sweep pool
            ~algorithms:(fun n_guesses ->
              [
                ("BLA-centralized", fun p -> max_of (Bla.run_exn ~n_guesses p));
              ])
            ~problems:(Fun.const (gen_problems pool cfg ~ix:78 (paper 100 200)))
            (ints [ 2; 4; 8; 12; 16; 24 ]));
    };
    (* Distributed scheduler comparison: solution quality and rounds. *)
    {
      id = "ablate-sched";
      title = "Distributed MLA: sequential vs simultaneous vs locked";
      x_label = "scheduler (0=seq, 1=simul, 2=locked)";
      y_label = "total load / rounds";
      points =
        (fun cfg pool ->
          sweep pool
            ~algorithms:(fun sched ->
              [
                ( "total-load",
                  fun p ->
                    Loads.total_load p
                      (distributed_mla sched p).Distributed.assoc );
                ( "rounds",
                  fun p ->
                    float_of_int (distributed_mla sched p).Distributed.rounds );
              ])
            ~problems:(Fun.const (gen_problems pool cfg ~ix:79 (paper 100 200)))
            [
              (0., Distributed.Sequential);
              (1., Distributed.Simultaneous);
              (2., Distributed.Locked);
            ]);
    };
    (* BLA inner-loop discipline: the paper's overshoot-and-split MCG
       ([`Soft], carries the 8-approximation guarantee) vs the hard-cap
       variant ([`Hard], never overshoots, no guarantee). *)
    {
      id = "ablate-bla-mode";
      title = "Centralized BLA: overshoot-and-split vs hard budget caps";
      x_label = "(400 users)";
      y_label = "max multicast load";
      points =
        (fun cfg pool ->
          let row mode name = (name, fun p -> max_of (Bla.run_exn ~mode p)) in
          sweep pool
            ~algorithms:
              (Fun.const
                 [ row `Soft "soft (paper Fig. 3)"; row `Hard "hard caps" ])
            ~problems:(Fun.const (gen_problems pool cfg ~ix:80 (paper 200 400)))
            [ (400., ()) ]);
    };
    (* MLA solver family on small networks (the paper's §6.1 remark that
       the layer algorithm is an alternative to greedy): greedy vs
       layering vs LP rounding vs the exact optimum. *)
    {
      id = "ablate-mla-alg";
      title = "MLA solver family: greedy vs layering vs LP rounding vs exact";
      x_label = "users";
      y_label = "total multicast load";
      points =
        small_sweep ~multiplier:71
          (fun cfg ->
            [
              ("greedy", fun p -> total_of (Mla.run p));
              ("layered", fun p -> total_of (Mla.run_layered p));
              ( "lp-rounding",
                fun p ->
                  match Mla.run_lp_rounding p with
                  | Some s -> total_of s
                  | None -> Float.nan );
              exact_mla cfg;
            ])
          [ 10; 20; 30; 40 ];
    };
  ]

(** PHY-model ablation: how sensitive are solution quality and
    distributed convergence to the propagation model behind the
    link-rate matrix? *)
let ablate_phy =
  {
    id = "ablate-phy";
    title =
      "PHY ablation: Table 1 (x=0) vs Friis (x=1) vs two-ray (x=2) vs \
       log-distance + shadowing (x=3), 100 APs / 200 users";
    x_label = "link-rate model";
    y_label = "load / users / rounds";
    points =
      (fun cfg pool ->
        sweep pool
          ~algorithms:
            (Fun.const
               [
                 ("MLA total load", fun p -> total_of (Mla.run p));
                 ("BLA max load", fun p -> max_of (Bla.run_exn ~mode:`Hard p));
                 ( "MNU users",
                   fun p -> sat_of (Mnu.run (Problem.with_budget p 0.05)) );
                 ("SSA total load", fun p -> total_of (Ssa.run p));
                 ( "MLA-dist rounds",
                   fun p ->
                     float_of_int
                       (distributed_mla Distributed.Sequential p)
                         .Distributed.rounds );
               ])
          ~problems:(fun rate_model ->
            par_problems pool ~seed:(cfg.seed + 23)
              ~n:(at_most 10 cfg)
              { (paper 100 200) with rate_model })
          phy_models);
  }

(** {1 Extension experiments} — features beyond the paper's evaluation,
    built on its §8 future work and §3.1 framework citations.

    Most are per-instance sampling studies: [sampled ~columns ~n sample xs]
    runs [sample cfg key i] for the first [n cfg] instances at each
    [(x, key)] of [xs], each returning one float per column. *)

let sampled ~columns ~n sample xs cfg pool =
  List.map
    (fun (x, key) ->
      {
        Series.x;
        values =
          summarize_columns pool columns
            (List.init (n cfg) (fun i () -> sample cfg key i));
      })
    xs

let all_scenarios cfg = cfg.scenarios

let generate key gen =
  Scenario_gen.generate ~rng:(Random.State.make key) gen

(** The DES network of the protocol studies: 30 APs, 60 users, 600 m side. *)
let des_net = { (paper 30 60) with area_w = 600.; area_h = 600. }

let des_policy =
  Wlan_sim.Runner.Distributed_policy
    {
      objective = Distributed.Min_total_load;
      mode = Wlan_sim.Runner.Sequential;
      max_passes = 40;
    }

(** Mean of [f] over every element but the head (a cold start, not part
    of the measured regime); 0 when only the head is there. *)
let mean_after_head f xs =
  match List.filteri (fun k _ -> k > 0) xs with
  | [] -> 0.
  | rest ->
      List.fold_left (fun a e -> a +. f e) 0. rest
      /. float_of_int (List.length rest)

(** Greedy channel plan: carrier sense at twice the data range of
    [table]. *)
let channel_plan ~table ~n_channels (sc : Scenario.t) =
  Channels.color ~n_channels ~n_aps:(Array.length sc.Scenario.ap_pos)
    (Channels.conflict_edges
       ~range:(2. *. Rate_table.range table)
       sc.Scenario.ap_pos)

let extensions =
  [
    (* Zipf session popularity: real audiences concentrate on few
       channels; association control's edge over SSA grows with the skew,
       because popular sessions can be consolidated onto fewer
       transmissions. *)
    {
      id = "ext-popularity";
      title =
        "Total AP load vs Zipf popularity skew (200 APs, 400 users, 10 \
         sessions)";
      x_label = "zipf alpha";
      y_label = "total multicast load";
      points =
        (fun cfg pool ->
          sweep pool ~algorithms:(Fun.const mla_algorithms)
            ~problems:(fun alpha ->
              let popularity =
                if alpha <= 1e-9 then Scenario_gen.Uniform_pop
                else Scenario_gen.Zipf alpha
              in
              par_problems pool ~seed:(cfg.seed + 91) ~n:cfg.scenarios
                { (paper 200 400) with n_sessions = 10; popularity })
            (keyed [ 0.; 0.5; 1.0; 1.5; 2.0 ]));
    };
    (* Residual co-channel interference: 3 channels (the 802.11b/g
       situation the paper contrasts with 802.11a), carrier-sense at twice
       the data range. BLA/MLA "implicitly optimize interference" (§3.2
       note) — this measures by how much. *)
    {
      id = "ext-interference";
      title =
        "Total residual co-channel interference, 3 channels, carrier sense \
         2x data range (200 users)";
      x_label = "APs";
      y_label = "sum of co-channel neighbor load";
      points =
        sampled ~n:all_scenarios
          ~columns:
            [
              "SSA"; "MLA-centralized"; "BLA-centralized";
              "MLA-interference-aware";
            ]
          (fun cfg aps i ->
            let sc = generate [| cfg.seed + 17; aps; i |] (paper aps 200) in
            let p = Scenario.to_problem sc in
            let channels =
              channel_plan ~table:Rate_table.default ~n_channels:3 sc
            in
            let interf (s : Solution.t) =
              Channels.total_interference channels
                ~loads:(Loads.ap_loads p s.Solution.assoc)
            in
            [
              interf (Ssa.run p);
              interf (Mla.run p);
              interf (Bla.run_exn ~mode:`Hard p);
              interf (Mla.run_interference_aware ~channels ~lambda:2. p);
            ])
          (ints [ 50; 100; 150; 200 ]);
    };
    (* Dual association (§3.1 / WiMesh'05): combined unicast+multicast
       airtime of one shared SSA AP vs SSA-unicast + MLA-multicast, across
       unicast demand levels. *)
    {
      id = "ext-dual";
      title =
        "Dual vs single association: combined airtime (100 APs, 200 users)";
      x_label = "unicast demand (Mbps/user)";
      y_label = "total airtime";
      points =
        (fun cfg pool ->
          let problems = gen_problems pool cfg ~ix:23 (paper 100 200) in
          List.map
            (fun mbps ->
              {
                Series.x = mbps;
                values =
                  summarize_columns pool
                    [ "single-assoc total"; "dual-assoc total"; "saving %" ]
                    (List.map
                       (fun p () ->
                         let c =
                           Dual.compare_single_vs_dual ~objective:`Mla p
                             ~demands:(Dual.uniform_demands p ~mbps)
                         in
                         [
                           c.Dual.single.Dual.total;
                           c.Dual.dual.Dual.total;
                           c.Dual.total_saving_pct;
                         ])
                       problems);
              })
            [ 0.25; 0.5; 1.0; 2.0 ]);
    };
    (* Protocol robustness: the DES query/response protocol under message
       loss — served users and passes to convergence. *)
    {
      id = "ext-loss";
      title = "Distributed protocol under message loss (DES, 30 APs, 60 users)";
      x_label = "loss rate";
      y_label = "served users / passes";
      points =
        sampled ~n:(at_most 10) ~columns:[ "served users"; "passes" ]
          (fun cfg loss_rate i ->
            let r =
              Wlan_sim.Runner.run ~seed:i ~loss_rate ~policy:des_policy
                (generate [| cfg.seed + 3; i |] des_net)
            in
            [
              sat_of r.Wlan_sim.Runner.solution;
              float_of_int r.Wlan_sim.Runner.passes;
            ])
          (keyed [ 0.; 0.2; 0.4; 0.6; 0.8 ]);
    };
    (* Mobility churn: users relocating between epochs; warm-started
       re-convergence cost, averaged over the warm epochs (2..). *)
    {
      id = "ext-mobility";
      title =
        "Re-convergence cost vs mobility burst size (DES, 30 APs, 60 users)";
      x_label = "fraction moved";
      y_label = "re-associations / passes";
      points =
        sampled ~n:(at_most 8) ~columns:[ "re-associations"; "passes" ]
          (fun cfg move_fraction i ->
            let epochs =
              Wlan_sim.Mobility.run ~seed:i ~move_fraction ~epochs:4
                ~policy:des_policy
                (generate [| cfg.seed + 4; i |] des_net)
            in
            let open Wlan_sim.Mobility in
            [
              mean_after_head (fun e -> float_of_int e.rejoin_moves) epochs;
              mean_after_head
                (fun e -> float_of_int e.report.Wlan_sim.Runner.passes)
                epochs;
            ])
          (keyed [ 0.05; 0.1; 0.2; 0.4 ]);
    };
    (* Per-AP power control (§8): what coordinate descent buys as the
       interference weight grows. *)
    {
      id = "ext-power";
      title =
        "Per-AP power control: reductions and joint-objective gain vs \
         interference weight (40 APs, 3 channels)";
      x_label = "mu";
      y_label = "APs reduced / J gain %";
      points =
        sampled ~n:(at_most 10)
          ~columns:[ "APs below full power"; "objective gain %" ]
          (fun cfg mu i ->
            let sc =
              generate [| cfg.seed + 5; i |]
                { (paper 40 80) with area_w = 500.; area_h = 500. }
            in
            let channels =
              channel_plan ~table:Rate_table.default ~n_channels:3 sc
            in
            let plan = Power.optimize ~channels ~mu sc in
            [
              float_of_int (Power.reduced_count plan);
              Stats.pct_reduction ~baseline:plan.Power.full_power_objective
                ~improved:plan.Power.objective;
            ])
          (keyed [ 0.05; 0.1; 0.2; 0.4 ]);
    };
    (* 802.11a (Table 1, 12 channels) vs 802.11b (longer reach, 3
       channels): the standards trade coverage against rate and channel
       diversity. *)
    {
      id = "ext-standards";
      title =
        "802.11a (x=0: Table 1, 12 channels) vs 802.11b (x=1: longer reach, \
         3 channels), 100 APs / 200 users";
      x_label = "standard";
      y_label = "total load / interference";
      points =
        sampled ~n:all_scenarios
          ~columns:[ "MLA total load"; "co-channel interference" ]
          (fun cfg (rate_table, n_channels) i ->
            let sc =
              generate [| cfg.seed + 6; i |] { (paper 100 200) with rate_table }
            in
            let mla = Mla.run (Scenario.to_problem sc) in
            [
              mla.Solution.total_load;
              Channels.total_interference
                (channel_plan ~table:rate_table ~n_channels sc)
                ~loads:mla.Solution.ap_loads;
            ])
          [
            (0., (Rate_table.ieee80211a, 12)); (1., (Rate_table.ieee80211b, 3));
          ];
    };
    (* Churn replay: per-step disruption vs churn intensity. The instance
       and its script derive only from [(seed, n_events, i)]; the head
       step is the initial static convergence, not churn. *)
    {
      id = "ext-churn";
      title = "Per-step disruption vs churn intensity (30 APs, 60 users)";
      x_label = "script events";
      y_label = "mean re-associations / rounds per step";
      points =
        sampled ~n:(at_most 8) ~columns:[ "reassociated"; "rounds" ]
          (fun cfg n_events i ->
            let p =
              Scenario_gen.nth_problem ~seed:(cfg.seed + 8) ~index:i des_net
            in
            let n_aps, n_users = Problem.dims p in
            let script =
              Churn_script.random
                ~rng:(Random.State.make [| cfg.seed + 8; n_events; i |])
                ~n_aps ~n_users
                { Churn_script.default_gen with n_events }
            in
            let steps =
              (Wlan_sim.Churn.run ~baseline:false
                 ~objective:Distributed.Min_total_load ~script p)
                .Wlan_sim.Churn.steps
            in
            let open Wlan_sim.Churn in
            [
              mean_after_head (fun s -> float_of_int s.reassociated) steps;
              mean_after_head (fun s -> float_of_int s.rounds) steps;
            ])
          (ints [ 10; 20; 40; 80 ]);
    };
  ]

(** Every figure driver by id, in the order [wlan-mcast figures] runs
    them. Its readers are the [figures] and [profile] subcommands and
    [bench/e2e/figs.ml]. *)
let drivers : (string * (?cfg:config -> unit -> Series.figure)) list =
  List.map
    (fun e ->
      ( e.id,
        fun ?(cfg = default_config) () ->
          Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
          {
            Series.id = e.id;
            title = e.title;
            x_label = e.x_label;
            y_label = e.y_label;
            points = e.points cfg pool;
          } ))
    (fig9_10 @ (fig11 :: fig12) @ ablations @ extensions @ [ ablate_phy ])

let fig9a = List.assoc "fig9a" drivers
