(* Tests for the evaluation harness: statistics, series utilities, report
   rendering, and — most importantly — the qualitative shape of the paper's
   figures on reduced scenario counts (who wins, and how curves move with
   users / APs / sessions / budget). *)

open Harness

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* a small config so the whole suite stays fast *)
let cfg =
  {
    Experiments.scenarios = 3;
    small_scenarios = 1;
    seed = 424242;
    ilp_node_limit = 200;
    jobs = 1;
  }

let driver id = List.assoc id Experiments.drivers

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_summarize () =
  let s = Stats.summarize [ 1.; 2.; 6. ] in
  Alcotest.(check (float 1e-9)) "mean" 3. s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1. s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 6. s.Stats.max;
  Alcotest.(check int) "n" 3 s.Stats.n;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.summarize: empty sample")
    (fun () -> ignore (Stats.summarize []))

let test_pct () =
  Alcotest.(check (float 1e-9)) "reduction" 25.
    (Stats.pct_reduction ~baseline:4. ~improved:3.);
  Alcotest.(check (float 1e-9)) "gain" 50.
    (Stats.pct_gain ~baseline:4. ~improved:6.);
  Alcotest.(check (float 1e-9)) "zero baseline" 0.
    (Stats.pct_reduction ~baseline:0. ~improved:3.)

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let fig_fixture =
  {
    Series.id = "t";
    title = "t";
    x_label = "x";
    y_label = "y";
    points =
      [
        { Series.x = 1.; values = [ ("a", Stats.summarize [ 1. ]) ] };
        { Series.x = 2.; values = [ ("a", Stats.summarize [ 5. ]) ] };
      ];
  }

let test_series_lookup () =
  Alcotest.(check (list string)) "names" [ "a" ] (Series.series_names fig_fixture);
  Alcotest.(check (option (float 1e-9))) "mean_at" (Some 5.)
    (Series.mean_at fig_fixture "a" 2.);
  Alcotest.(check (option (float 1e-9))) "missing series" None
    (Series.mean_at fig_fixture "b" 2.);
  Alcotest.(check (option (float 1e-9))) "missing x" None
    (Series.mean_at fig_fixture "a" 3.)

(* ------------------------------------------------------------------ *)
(* Report rendering                                                   *)
(* ------------------------------------------------------------------ *)

let test_report_renders () =
  let s = Fmt.str "%a" Report.pp_figure fig_fixture in
  Alcotest.(check bool) "has series name" true
    (String.length s > 0
    && Astring.String.is_infix ~affix:"a" s
    && Astring.String.is_infix ~affix:"== t" s)

let test_csv_export () =
  let csv = Report.to_csv fig_fixture in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "x,a mean,a min,a max" (List.nth lines 0);
  Alcotest.(check string) "row 1" "1,1,1,1" (List.nth lines 1);
  Alcotest.(check string) "row 2" "2,5,5,5" (List.nth lines 2)

let test_csv_missing_series_cells () =
  let fig =
    {
      fig_fixture with
      Series.points =
        fig_fixture.Series.points
        @ [ { Series.x = 3.; values = [ ("b", Stats.summarize [ 9. ]) ] } ];
    }
  in
  let csv = Report.to_csv fig in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "union header" "x,a mean,a min,a max,b mean,b min,b max"
    (List.nth lines 0);
  Alcotest.(check string) "missing cells empty" "3,,,,9,9,9" (List.nth lines 3)

let test_table1_renders () =
  let s = Fmt.str "%a" Report.pp_table1 (Experiments.table1 ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring.String.is_infix ~affix:needle s))
    [ "54"; "200"; "Rate" ]

(* Hand-built panels at exactly the points the headline reads: SSA total
   load 8 vs MLA 6 (-25%), SSA max load 0.5 vs BLA 0.2 (-60%), SSA 40
   satisfied users vs MNU 50 (+25%). A decoy point at another x must be
   ignored. *)
let headline_panel id x pairs =
  {
    Series.id;
    title = id;
    x_label = "x";
    y_label = "y";
    points =
      [
        {
          Series.x = 1.;
          values =
            List.map (fun (n, _) -> (n, Stats.summarize [ 99. ])) pairs;
        };
        {
          Series.x;
          values = List.map (fun (n, v) -> (n, Stats.summarize [ v ])) pairs;
        };
      ];
  }

let headline_fig9a =
  headline_panel "fig9a" 400. [ ("SSA", 8.); ("MLA-centralized", 6.) ]

let headline_fig10a =
  headline_panel "fig10a" 400. [ ("SSA", 0.5); ("BLA-centralized", 0.2) ]

let headline_fig11 =
  headline_panel "fig11" 0.04 [ ("SSA", 40.); ("MNU-centralized", 50.) ]

let test_headline () =
  let h =
    Experiments.headline ~fig9a:headline_fig9a ~fig10a:headline_fig10a
      ~fig11:headline_fig11
  in
  Alcotest.(check (float 1e-9)) "MLA total-load reduction" 25.
    h.Experiments.mla_total_load_reduction_pct;
  Alcotest.(check (float 1e-9)) "BLA max-load reduction" 60.
    h.Experiments.bla_max_load_reduction_pct;
  Alcotest.(check (float 1e-9)) "MNU user gain" 25.
    h.Experiments.mnu_user_gain_pct;
  let s = Fmt.str "%a" Report.pp_headline h in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Astring.String.is_infix ~affix:needle s))
    [ "== headline"; "+25.0%"; "-60.0%"; "-25.0%" ]

(* The documented contract: a figure without one of the points the
   headline reads is rejected with [Invalid_argument], whether the x is
   missing or the series is. *)
let test_headline_missing_point () =
  let rejects what ~fig9a ~fig10a ~fig11 =
    match Experiments.headline ~fig9a ~fig10a ~fig11 with
    | _ -> Alcotest.failf "%s: headline accepted an incomplete figure" what
    | exception Invalid_argument _ -> ()
  in
  rejects "fig9a without x = 400"
    ~fig9a:(headline_panel "fig9a" 300. [ ("SSA", 8.); ("MLA-centralized", 6.) ])
    ~fig10a:headline_fig10a ~fig11:headline_fig11;
  rejects "fig10a without BLA-centralized" ~fig9a:headline_fig9a
    ~fig10a:(headline_panel "fig10a" 400. [ ("SSA", 0.5) ])
    ~fig11:headline_fig11;
  rejects "fig11 without budget 0.04" ~fig9a:headline_fig9a
    ~fig10a:headline_fig10a
    ~fig11:(headline_panel "fig11" 0.05 [ ("SSA", 40.); ("MNU-centralized", 50.) ])

(* `wlan-mcast figures` and `profile` share one id namespace: the driver
   ids plus the reserved `table1` and `headline`, and `headline` reads
   fig9a, fig10a and fig11 by id. A driver that took a reserved id, a
   duplicate id, or a renamed headline input would silently change what
   an id on the command line runs. *)
let test_driver_ids () =
  let ids = List.map fst Experiments.drivers in
  List.iter
    (fun reserved ->
      Alcotest.(check bool) (reserved ^ " is not a driver id") false
        (List.mem reserved ids))
    [ "table1"; "headline" ];
  List.iter
    (fun input ->
      Alcotest.(check bool) (input ^ " is a driver id") true
        (List.mem input ids))
    [ "fig9a"; "fig10a"; "fig11" ];
  Alcotest.(check int) "driver ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids))

(* ------------------------------------------------------------------ *)
(* Figure shapes (the paper's qualitative claims)                      *)
(* ------------------------------------------------------------------ *)

let mean_exn fig name x = Option.get (Series.mean_at fig name x)

let every_point fig pred =
  List.for_all
    (fun (p : Series.point) -> pred p.Series.x p.Series.values)
    fig.Series.points

let test_table1_roundtrip () =
  Alcotest.(check int) "7 rates" 7 (List.length (Experiments.table1 ()))

(* fig9a: MLA (both) beat SSA at every user count; total load grows with
   users for every algorithm *)
let fig9a = lazy (Experiments.fig9a ~cfg ())

let test_fig9a_mla_beats_ssa () =
  let fig = Lazy.force fig9a in
  Alcotest.(check bool) "MLA <= SSA everywhere" true
    (every_point fig (fun _ values ->
         let m = (List.assoc "MLA-centralized" values).Stats.mean in
         let d = (List.assoc "MLA-distributed" values).Stats.mean in
         let s = (List.assoc "SSA" values).Stats.mean in
         m <= s +. 1e-9 && d <= s +. 1e-9))

let test_fig9a_total_load_grows_with_users () =
  let fig = Lazy.force fig9a in
  let series = [ "MLA-centralized"; "SSA" ] in
  List.iter
    (fun name ->
      let means =
        List.map
          (fun (p : Series.point) ->
            (List.assoc name p.Series.values).Stats.mean)
          fig.Series.points
      in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 0.05 && mono rest
        | _ -> true
      in
      Alcotest.(check bool) (name ^ " nondecreasing") true (mono means))
    series

(* fig9b: total load decreases as APs increase (density raises rates) *)
let test_fig9b_load_falls_with_aps () =
  let fig = driver "fig9b" ~cfg () in
  let first = mean_exn fig "MLA-centralized" 25. in
  let last = mean_exn fig "MLA-centralized" 200. in
  Alcotest.(check bool) "fewer APs, higher load" true (first > last)

(* fig10a: BLA (both) at or below SSA's max load at every point *)
let test_fig10a_bla_beats_ssa () =
  let fig = driver "fig10a" ~cfg () in
  Alcotest.(check bool) "BLA <= SSA everywhere" true
    (every_point fig (fun _ values ->
         let c = (List.assoc "BLA-centralized" values).Stats.mean in
         let d = (List.assoc "BLA-distributed" values).Stats.mean in
         let s = (List.assoc "SSA" values).Stats.mean in
         c <= s +. 1e-9 && d <= s +. 1e-9))

(* fig11: satisfied users grow with the budget; MNU >= SSA at every point *)
let test_fig11_shape () =
  let fig = driver "fig11" ~cfg () in
  Alcotest.(check bool) "MNU >= SSA everywhere" true
    (every_point fig (fun _ values ->
         let m = (List.assoc "MNU-centralized" values).Stats.mean in
         let s = (List.assoc "SSA" values).Stats.mean in
         m >= s -. 1e-9));
  let means =
    List.map
      (fun (p : Series.point) ->
        (List.assoc "MNU-centralized" p.Series.values).Stats.mean)
      fig.Series.points
  in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "satisfied grows with budget" true (mono means)

(* ablations *)
let test_ablate_rate_basic_worse () =
  let fig = driver "ablate-rate" ~cfg () in
  let multi = mean_exn fig "MLA-centralized" 0. in
  let basic = mean_exn fig "MLA-centralized" 1. in
  Alcotest.(check bool) "basic rate costs more airtime" true (basic >= multi);
  (* and association control still beats SSA at the basic rate (§3.1) *)
  let ssa_basic = mean_exn fig "SSA" 1. in
  Alcotest.(check bool) "MLA beats SSA at basic rate too" true
    (basic <= ssa_basic +. 1e-9)

let test_ablate_bla_mode () =
  let fig = driver "ablate-bla-mode" ~cfg () in
  let soft = mean_exn fig "soft (paper Fig. 3)" 400. in
  let hard = mean_exn fig "hard caps" 400. in
  Alcotest.(check bool) "both positive" true (soft > 0. && hard > 0.);
  Alcotest.(check bool) "hard caps no worse on average" true
    (hard <= soft +. 1e-9)

let test_ablate_sched_locked_converges_same_ballpark () =
  let fig = driver "ablate-sched" ~cfg () in
  let seq = mean_exn fig "total-load" 0. in
  let locked = mean_exn fig "total-load" 2. in
  Alcotest.(check bool) "locked within 10% of sequential" true
    (Float.abs (locked -. seq) <= 0.1 *. seq)

(* fig12 on a truly tiny config: optimal <= greedy *)
let test_fig12a_optimal_lower_bound () =
  let tiny =
    { cfg with small_scenarios = 1; ilp_node_limit = 50_000 }
  in
  let fig = driver "fig12a" ~cfg:tiny () in
  Alcotest.(check bool) "optimal <= both greedy algorithms" true
    (every_point fig (fun _ values ->
         let o = (List.assoc "optimal" values).Stats.mean in
         let c = (List.assoc "MLA-centralized" values).Stats.mean in
         let d = (List.assoc "MLA-distributed" values).Stats.mean in
         (not (Float.is_nan o)) && o <= c +. 1e-6 && o <= d +. 1e-6))

(* ------------------------------------------------------------------ *)
(* Reproducibility: per-scenario seed splitting makes every figure     *)
(* bit-identical at any jobs value                                     *)
(* ------------------------------------------------------------------ *)

let repro_cfg seed =
  {
    Experiments.scenarios = 2;
    small_scenarios = 1;
    seed;
    ilp_node_limit = 200;
    jobs = 1;
  }

(* structural equality catches the numbers; CSV equality is the
   "byte-identical output" acceptance criterion *)
let same_figure a b = a = b && String.equal (Report.to_csv a) (Report.to_csv b)

let qcheck_repro name (driver : ?cfg:Experiments.config -> unit -> _) =
  QCheck.Test.make ~name ~count:2
    QCheck.(int_bound 100_000)
    (fun seed ->
      let fig jobs = driver ~cfg:{ (repro_cfg seed) with jobs } () in
      let f1 = fig 1 in
      same_figure f1 (fig 2) && same_figure f1 (fig 4) && same_figure f1 (fig 1))

let qcheck_repro_fig9a =
  qcheck_repro "fig9a bit-identical under jobs 1/2/4 and reruns"
    Experiments.fig9a

let qcheck_repro_fig11 =
  qcheck_repro "fig11 bit-identical under jobs 1/2/4 and reruns"
    (driver "fig11")

(* The registry golden: one line "<id> <digest>" per driver in
   golden/drivers.digest, where the digest covers the figure's id, title
   and axis labels and every summary at 2 scenarios/point, rendered at
   full precision (%h). Each driver is its own case, checked j1 = j2.
   Any change to a solver's selections moves it. *)
let add_summaries buf (fig : Series.figure) =
  List.iter
    (fun (p : Series.point) ->
      List.iter
        (fun (name, (v : Stats.summary)) ->
          Buffer.add_string buf
            (Fmt.str "%s %h %s %h %h %h %d\n" fig.Series.id p.Series.x name
               v.Stats.mean v.Stats.min v.Stats.max v.Stats.n))
        p.Series.values)
    fig.Series.points

let driver_digest id ~jobs =
  let cfg = { (repro_cfg 2007) with jobs } in
  let fig = driver id ~cfg () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (String.concat "\n"
       [ fig.Series.id; fig.Series.title; fig.Series.x_label; fig.Series.y_label ]
    ^ "\n");
  add_summaries buf fig;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let drivers_golden =
  lazy
    (match
       In_channel.with_open_text "golden/drivers.digest" In_channel.input_lines
     with
    | lines ->
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' (String.trim l) with
            | [ id; d ] -> Some (id, d)
            | _ -> None)
          lines
    | exception Sys_error _ -> [])

let check_driver_golden id () =
  let d1 = driver_digest id ~jobs:1 in
  Alcotest.(check string) "j1 = j2" d1 (driver_digest id ~jobs:2);
  match List.assoc_opt id (Lazy.force drivers_golden) with
  | Some golden -> Alcotest.(check string) "matches committed golden" golden d1
  | None -> Alcotest.failf "golden/drivers.digest has no %s; computed %s" id d1

(* the golden names exactly the registry's ids, in registry order *)
let test_drivers_golden_ids () =
  Alcotest.(check (list string)) "golden ids = registry ids"
    (List.map fst Experiments.drivers)
    (List.map fst (Lazy.force drivers_golden))

let qcheck_stats =
  QCheck.Test.make ~name:"summarize bounds: min <= mean <= max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.summarize xs in
      s.Stats.min <= s.Stats.mean +. 1e-9
      && s.Stats.mean <= s.Stats.max +. 1e-9
      && s.Stats.n = List.length xs
      && feq ~eps:1e-6
           (s.Stats.mean *. float_of_int s.Stats.n)
           (List.fold_left ( +. ) 0. xs))

(* ------------------------------------------------------------------ *)
(* Pool-fanout B* grid                                                 *)
(* ------------------------------------------------------------------ *)

(* the acceptance criterion for tentpole (c): fanning the B* grid over a
   real pool changes nothing about the solution, at any pool size *)
let test_bla_pool_fanout_identical () =
  let cfg =
    { Wlan_model.Scenario_gen.paper_default with n_aps = 15; n_users = 30 }
  in
  let ps = Wlan_model.Scenario_gen.problems ~seed:909 ~n:2 cfg in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  List.iter
    (fun p ->
      let seq = Mcast_core.Shard.solve_bla p in
      let par = Mcast_core.Shard.solve_bla ~fanout:(Pool.run pool) p in
      Alcotest.(check bool) "pool fanout = sequential" true (seq = par))
    ps

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "harness"
    [
      ( "stats",
        [
          tc "summarize" test_summarize;
          tc "percentages" test_pct;
          QCheck_alcotest.to_alcotest qcheck_stats;
        ] );
      ("series", [ tc "lookup" test_series_lookup ]);
      ( "report",
        [
          tc "figure renders" test_report_renders;
          tc "csv export" test_csv_export;
          tc "csv missing cells" test_csv_missing_series_cells;
          tc "table1 renders" test_table1_renders;
          tc "headline from figures" test_headline;
          tc "headline missing point" test_headline_missing_point;
          tc "driver ids" test_driver_ids;
        ] );
      ( "bench",
        [ tc "BLA pool fanout identical" test_bla_pool_fanout_identical ] );
      ( "reproducibility",
        [
          QCheck_alcotest.to_alcotest qcheck_repro_fig9a;
          QCheck_alcotest.to_alcotest qcheck_repro_fig11;
        ] );
      ( "drivers golden",
        tc "ids" test_drivers_golden_ids
        :: List.map
             (fun (id, _) ->
               (* exact MLA's 500,000-node floor makes fig12a the slow one *)
               (if id = "fig12a" then slow else tc)
                 (id ^ ", j1 = j2") (check_driver_golden id))
             Experiments.drivers );
      ( "figure shapes",
        [
          tc "table1 roundtrip" test_table1_roundtrip;
          slow "fig9a: MLA beats SSA" test_fig9a_mla_beats_ssa;
          slow "fig9a: load grows with users" test_fig9a_total_load_grows_with_users;
          slow "fig9b: load falls with APs" test_fig9b_load_falls_with_aps;
          slow "fig10a: BLA beats SSA" test_fig10a_bla_beats_ssa;
          slow "fig11: budget shape" test_fig11_shape;
          slow "fig12a: optimal is a lower bound" test_fig12a_optimal_lower_bound;
          slow "ablation: basic rate" test_ablate_rate_basic_worse;
          slow "ablation: bla mode" test_ablate_bla_mode;
          slow "ablation: schedulers" test_ablate_sched_locked_converges_same_ballpark;
        ] );
    ]
