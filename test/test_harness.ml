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
  Alcotest.(check (option (float 1e-9))) "last_mean" (Some 5.)
    (Series.last_mean fig_fixture "a");
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
  let fig = Experiments.fig9b ~cfg () in
  let first = mean_exn fig "MLA-centralized" 25. in
  let last = mean_exn fig "MLA-centralized" 200. in
  Alcotest.(check bool) "fewer APs, higher load" true (first > last)

(* fig10a: BLA (both) at or below SSA's max load at every point *)
let test_fig10a_bla_beats_ssa () =
  let fig = Experiments.fig10a ~cfg () in
  Alcotest.(check bool) "BLA <= SSA everywhere" true
    (every_point fig (fun _ values ->
         let c = (List.assoc "BLA-centralized" values).Stats.mean in
         let d = (List.assoc "BLA-distributed" values).Stats.mean in
         let s = (List.assoc "SSA" values).Stats.mean in
         c <= s +. 1e-9 && d <= s +. 1e-9))

(* fig11: satisfied users grow with the budget; MNU >= SSA at every point *)
let test_fig11_shape () =
  let fig = Experiments.fig11 ~cfg () in
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
  let fig = Experiments.ablate_rate ~cfg () in
  let multi = mean_exn fig "MLA-centralized" 0. in
  let basic = mean_exn fig "MLA-centralized" 1. in
  Alcotest.(check bool) "basic rate costs more airtime" true (basic >= multi);
  (* and association control still beats SSA at the basic rate (§3.1) *)
  let ssa_basic = mean_exn fig "SSA" 1. in
  Alcotest.(check bool) "MLA beats SSA at basic rate too" true
    (basic <= ssa_basic +. 1e-9)

let test_ablate_bla_mode () =
  let fig = Experiments.ablate_bla_mode ~cfg () in
  let soft = mean_exn fig "soft (paper Fig. 3)" 400. in
  let hard = mean_exn fig "hard caps" 400. in
  Alcotest.(check bool) "both positive" true (soft > 0. && hard > 0.);
  Alcotest.(check bool) "hard caps no worse on average" true
    (hard <= soft +. 1e-9)

let test_ablate_sched_locked_converges_same_ballpark () =
  let fig = Experiments.ablate_sched ~cfg () in
  let seq = mean_exn fig "total-load" 0. in
  let locked = mean_exn fig "total-load" 2. in
  Alcotest.(check bool) "locked within 10% of sequential" true
    (Float.abs (locked -. seq) <= 0.1 *. seq)

(* fig12 on a truly tiny config: optimal <= greedy *)
let test_fig12a_optimal_lower_bound () =
  let tiny =
    { cfg with small_scenarios = 1; ilp_node_limit = 50_000 }
  in
  let fig = Experiments.fig12a ~cfg:tiny () in
  Alcotest.(check bool) "optimal <= both greedy algorithms" true
    (every_point fig (fun _ values ->
         let o = (List.assoc "optimal" values).Stats.mean in
         let c = (List.assoc "MLA-centralized" values).Stats.mean in
         let d = (List.assoc "MLA-distributed" values).Stats.mean in
         (not (Float.is_nan o)) && o <= c +. 1e-6 && o <= d +. 1e-6))

(* ------------------------------------------------------------------ *)
(* Figure cache: keyed by (id, cfg), never serves stale data           *)
(* ------------------------------------------------------------------ *)

let test_fig_cache_keyed_by_cfg () =
  let cache = Fig_cache.create () in
  let calls = ref 0 in
  let get c id =
    Fig_cache.get cache ~cfg:c ~id (fun () ->
        incr calls;
        fig_fixture)
  in
  let quick = { cfg with Experiments.scenarios = 1 } in
  ignore (get cfg "fig9a");
  ignore (get cfg "fig9a");
  Alcotest.(check int) "same (id, cfg) served from cache" 1 !calls;
  (* the bug this guards against: a --quick figure followed by the same
     figure under the full config must recompute, not reuse stale data *)
  ignore (get quick "fig9a");
  Alcotest.(check int) "same id, different cfg recomputes" 2 !calls;
  ignore (get cfg "fig10a");
  Alcotest.(check int) "different id recomputes" 3 !calls;
  Alcotest.(check int) "hits counted" 1 (Fig_cache.hits cache);
  Alcotest.(check int) "misses counted" 3 (Fig_cache.misses cache)

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
    Experiments.fig11

(* The figure golden: the centralized-vs-distributed series of fig9a,
   fig10a and fig11 at 2 scenarios/point, every summary rendered at full
   precision (%h), equal at jobs 1 and 2 and pinned to the committed
   digest. Any change to a centralized solver's selections moves it. *)
let figs_small_digest ~jobs =
  let cfg = { (repro_cfg 2007) with jobs } in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (driver : ?cfg:Experiments.config -> unit -> Series.figure) ->
      let fig = driver ~cfg () in
      List.iter
        (fun (p : Series.point) ->
          List.iter
            (fun (name, (v : Stats.summary)) ->
              Buffer.add_string buf
                (Fmt.str "%s %h %s %h %h %h %d\n" fig.Series.id p.Series.x name
                   v.Stats.mean v.Stats.min v.Stats.max v.Stats.n))
            p.Series.values)
        fig.Series.points)
    [ Experiments.fig9a; Experiments.fig10a; Experiments.fig11 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_figs_small_golden () =
  let d1 = figs_small_digest ~jobs:1 in
  Alcotest.(check string) "j1 = j2" d1 (figs_small_digest ~jobs:2);
  match
    In_channel.with_open_text "golden/figs_small.digest" In_channel.input_line
  with
  | Some golden ->
      Alcotest.(check string) "matches committed golden" (String.trim golden) d1
  | None | (exception Sys_error _) ->
      Alcotest.failf "golden/figs_small.digest missing; computed %s" d1

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
(* Bench_json round-trip; pool-fanout B* grid                          *)
(* ------------------------------------------------------------------ *)

let test_bench_json_roundtrip () =
  let snap =
    {
      Bench_json.label = "PR3";
      jobs = 4;
      quick = false;
      seed = 4242;
      entries =
        [
          { Bench_json.name = "exp:fig9"; wall_s = 12.5; cpu_s = Some 40.25 };
          {
            (* a bechamel-style row: no CPU sample, field omitted *)
            Bench_json.name = "bechamel:algorithms/ssa";
            wall_s = 0.118;
            cpu_s = None;
          };
        ];
    }
  in
  let baseline =
    {
      snap with
      Bench_json.label = "pre";
      entries =
        [ { Bench_json.name = "exp:fig9"; wall_s = 25.0; cpu_s = Some 80.0 } ];
    }
  in
  let doc = Bench_json.render ~baseline snap in
  (* a row without a CPU sample must not serialize a fabricated 0. *)
  Alcotest.(check bool) "no zero-filled cpu_s" false
    (Astring.String.is_infix ~affix:"\"cpu_s\": 0.000000" doc);
  (match Bench_json.parse doc with
  | None -> Alcotest.fail "render output did not parse"
  | Some s ->
      Alcotest.(check string) "label" "PR3" s.Bench_json.label;
      Alcotest.(check int) "jobs" 4 s.Bench_json.jobs;
      Alcotest.(check bool) "quick" false s.Bench_json.quick;
      Alcotest.(check int) "seed" 4242 s.Bench_json.seed;
      Alcotest.(check int) "entries" 2 (List.length s.Bench_json.entries);
      (match s.Bench_json.entries with
      | [ e; b ] ->
          Alcotest.(check string) "name" "exp:fig9" e.Bench_json.name;
          Alcotest.(check (float 1e-9)) "wall_s" 12.5 e.Bench_json.wall_s;
          Alcotest.(check (option (float 1e-9))) "cpu_s" (Some 40.25)
            e.Bench_json.cpu_s;
          Alcotest.(check (option (float 1e-9))) "absent cpu_s" None
            b.Bench_json.cpu_s
      | _ -> Alcotest.fail "expected 2 entries"));
  match
    Bench_json.speedups ~baseline:baseline.Bench_json.entries ~current:snap
  with
  | [ (name, ratio) ] ->
      Alcotest.(check string) "speedup row" "exp:fig9" name;
      Alcotest.(check (float 1e-9)) "ratio" 2.0 ratio
  | rows ->
      Alcotest.fail (Fmt.str "expected 1 speedup row, got %d" (List.length rows))

let test_bench_json_regressions () =
  let e name wall = { Bench_json.name; wall_s = wall; cpu_s = None } in
  let baseline = [ e "a" 1.0; e "b" 2.0; e "dead" 0.; e "gone" 1.0 ] in
  let current = [ e "a" 1.4; e "b" 3.2; e "dead" 9.0; e "new" 9.0 ] in
  (* "a" is within 1.5x; "b" is 1.6x over; zero-wall baselines and
     one-sided entries never fire *)
  (match Bench_json.regressions ~threshold:0.5 ~baseline ~current () with
  | [ ("b", r) ] -> Alcotest.(check (float 1e-9)) "ratio" 1.6 r
  | rows ->
      Alcotest.fail (Fmt.str "expected only b, got %d rows" (List.length rows)));
  (* tighter threshold flags both, worst first *)
  (match Bench_json.regressions ~threshold:0.2 ~baseline ~current () with
  | [ ("b", _); ("a", _) ] -> ()
  | rows ->
      Alcotest.fail
        (Fmt.str "expected b then a, got %d rows" (List.length rows)));
  (* a noise floor skips micro rows entirely: only "b" (baseline 2.0)
     clears a 1.5 s floor *)
  match Bench_json.regressions ~min_wall:1.5 ~threshold:0.2 ~baseline ~current ()
  with
  | [ ("b", _) ] -> ()
  | rows ->
      Alcotest.fail
        (Fmt.str "expected only b above the floor, got %d rows"
           (List.length rows))

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
      let seq = Mcast_core.Bla.run_exn p in
      let par = Mcast_core.Bla.run_exn ~fanout:(Pool.run pool) p in
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
        ] );
      ("fig cache", [ tc "keyed by (id, cfg)" test_fig_cache_keyed_by_cfg ]);
      ( "bench",
        [
          tc "bench_json roundtrip" test_bench_json_roundtrip;
          tc "bench_json regressions" test_bench_json_regressions;
          tc "BLA pool fanout identical" test_bla_pool_fanout_identical;
        ] );
      ( "reproducibility",
        [
          QCheck_alcotest.to_alcotest qcheck_repro_fig9a;
          QCheck_alcotest.to_alcotest qcheck_repro_fig11;
          tc "fig9a/10a/11 golden, j1 = j2" test_figs_small_golden;
        ] );
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
