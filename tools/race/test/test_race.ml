(* Golden + property tests for wlan-race.

   The fixture corpus (tools/race/fixtures) is a real dune library —
   the analyzer reads its .cmt typedtrees, so the test depends on the
   fixtures' @default alias and loads the compiled artifacts from
   ../fixtures. Each racy fixture must reproduce its .expected
   diagnostics byte for byte and trigger *only* its own rule; the clean
   fixtures must be silent; the suppressed fixture must be racy before
   the shared suppression filter and silent after it; and the
   suppression language must round-trip for every rule id of both tools
   (wlan-lint and wlan-race), in both spellings and both escape-hatch
   forms. The reach/ sub-corpus pins export-reachability: its lib/
   exports, read from its bin/ and test/ units, cover the three
   classes and every reader shape the rule resolves. *)

open Wlan_race_kernel
open Analysis_common

let fixture_root = "../fixtures"

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* One engine run over the corpus, shared by all tests. *)
let result = lazy (Engine.run [ fixture_root ])

(* Raw (pre-suppression) diagnostics, straight from the checks — used
   to prove the escape hatches in suppressed.ml are load-bearing. *)
let raw = lazy (
  let { Loader.units; errors; _ } = Loader.load [ fixture_root ] in
  assert (errors = []);
  let decls = Lattice.collect units in
  let sums = Summaries.collect ~decls units in
  List.concat_map
    (fun u ->
      Checks.check_unit ~decls ~sums u |> List.sort_uniq Diagnostic.compare)
    units)

let diags_for basename =
  List.filter
    (fun (d : Diagnostic.t) -> Filename.basename d.file = basename)
    (Lazy.force result).diagnostics

let fixtures =
  [
    "mutstore.ml"; "racy_shared_escape.ml"; "racy_counter.ml"; "racy_rng.ml";
    "racy_merge.ml"; "clean_tasks.ml"; "suppressed.ml";
  ]

let test_golden base () =
  let expected =
    read (Filename.concat fixture_root (Filename.remove_extension base ^ ".expected"))
  in
  let rendered =
    match List.map Diagnostic.to_text (diags_for base) with
    | [] -> ""
    | lines -> String.concat "\n" lines ^ "\n"
  in
  Alcotest.(check string) (base ^ " diagnostics") expected rendered

let test_no_load_errors () =
  let r = Lazy.force result in
  Alcotest.(check int) "load errors" 0 (List.length r.errors);
  Alcotest.(check bool) "several units loaded" true (r.units >= List.length fixtures)

(* The acceptance bar: each rule has a fixture that triggers it. *)
let test_every_rule_fires () =
  let fired =
    List.map (fun (d : Diagnostic.t) -> d.rule) (Lazy.force result).diagnostics
    |> List.sort_uniq String.compare
  in
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s fires on the corpus" id)
        true (List.mem id fired))
    Engine.all_rules

(* Each racy fixture is a pure specimen of one rule. *)
let test_exactly_its_rule () =
  List.iter
    (fun (base, rule) ->
      let rules =
        List.map (fun (d : Diagnostic.t) -> d.rule) (diags_for base)
        |> List.sort_uniq String.compare
      in
      Alcotest.(check (list string)) (base ^ " rules") [ rule ] rules)
    [
      ("racy_shared_escape.ml", Checks.rule_escape);
      ("racy_counter.ml", Checks.rule_counter);
      ("racy_rng.ml", Checks.rule_rng);
      ("racy_merge.ml", Checks.rule_merge);
      ("api.mli", Reach.rule);
    ]

let test_clean_fixtures_silent () =
  List.iter
    (fun base ->
      Alcotest.(check int) (base ^ " findings") 0 (List.length (diags_for base)))
    [ "mutstore.ml"; "clean_tasks.ml"; "suppressed.ml" ]

(* suppressed.ml is genuinely racy — four findings before the filter,
   none after — so the hatches, not analyzer blindness, silence it. *)
let test_suppression_is_load_bearing () =
  let before =
    List.filter
      (fun (d : Diagnostic.t) -> Filename.basename d.file = "suppressed.ml")
      (Lazy.force raw)
  in
  Alcotest.(check int) "raw findings in suppressed.ml" 4 (List.length before);
  let rules = List.sort_uniq String.compare (List.map (fun (d : Diagnostic.t) -> d.rule) before) in
  Alcotest.(check (list string)) "all four rules represented"
    (List.sort String.compare
       [ Checks.rule_escape; Checks.rule_counter; Checks.rule_rng;
         Checks.rule_merge ])
    rules

(* ------------------------------------------------------------------ *)
(* export-reachability                                                  *)
(* ------------------------------------------------------------------ *)

let reach_root = Filename.concat fixture_root "reach"

(* The rule's findings, pinned as text and as the --format json array. *)
let test_reach_golden () =
  let diags = diags_for "api.mli" in
  Alcotest.(check string) "text"
    (read (Filename.concat reach_root "api.expected"))
    (String.concat "" (List.map (fun d -> Diagnostic.to_text d ^ "\n") diags));
  Alcotest.(check string) "json"
    (read (Filename.concat reach_root "api.expected.json"))
    (Engine.to_json diags ^ "\n")

(* Every export of the corpus lands in its class: the shipped ones are
   silent in the goldens, so they are pinned here. *)
let test_reach_classes () =
  let cls =
    Reach.classify (Loader.load [ fixture_root ])
    |> List.map (fun ((e : Reach.export), c) ->
           ( Names.to_string e.key,
             match c with
             | Reach.Shipped -> "shipped"
             | Test_only files ->
                 "test-only " ^ String.concat "," (List.map Filename.basename files)
             | Unread -> "unread" ))
    |> List.sort compare
  in
  let api v = "Reach_lib.Api." ^ v in
  Alcotest.(check (list (pair string string))) "classes"
    (List.sort compare
       [
         (api "shipped", "shipped");
         (api "tested", "test-only reader.ml");
         (api "unread", "unread");
         (api "own_only", "unread");
         (api "via_open", "shipped");
         (api "via_alias", "shipped");
         (api "pp", "shipped");
         (api "oracle", "test-only reader.ml");
         (api "Sub.deep", "test-only reader.ml");
         ("Reach_lib.Inc.included", "shipped");
         ("Reach_lib.Arg.by_functor", "shipped");
         ("Reach_lib.Packed.packed", "shipped");
         ("Reach_lib.Twin_x.x_only", "shipped");
         ("Reach_lib.Twin_y.y_only", "shipped");
       ])
    cls

(* The allow comment above [oracle], not analyzer blindness, keeps it
   out of the findings. *)
let test_reach_suppression () =
  let flagged diags =
    List.exists
      (fun (d : Diagnostic.t) ->
        String.starts_with ~prefix:"Reach_lib.Api.oracle " d.message)
      diags
  in
  Alcotest.(check bool) "raw finding" true
    (flagged (Reach.check (Loader.load [ fixture_root ])));
  Alcotest.(check bool) "suppressed" false (flagged (diags_for "api.mli"))

(* Units under test/ are readers only: reach/test/reader.ml taps
   ambient Random in a pooled task, and no domain-safety rule reports
   it, though the checks alone would. *)
let test_test_units_unchecked () =
  let { Loader.units; _ } = Loader.load [ reach_root ] in
  let u =
    List.find
      (fun (u : Loader.unit_info) ->
        Loader.under "test" u && Filename.basename u.source = "reader.ml")
      units
  in
  let decls = Lattice.collect units in
  let sums = Summaries.collect ~decls units in
  Alcotest.(check bool) "racy when checked" true
    (Checks.check_unit ~decls ~sums u <> []);
  Alcotest.(check int) "findings" 0
    (List.length (List.filter (fun (d : Diagnostic.t) -> d.file = u.source)
       (Lazy.force result).diagnostics))

(* Rule filtering: running with a single rule enabled yields exactly
   that rule's findings. *)
let test_rule_filter () =
  let r = Engine.run ~rules:[ Checks.rule_rng ] [ fixture_root ] in
  Alcotest.(check (list string)) "only rng findings" [ Checks.rule_rng ]
    (List.sort_uniq String.compare
       (List.map (fun (d : Diagnostic.t) -> d.rule) r.diagnostics));
  Alcotest.(check bool) "rng findings present" true (r.diagnostics <> [])

(* ------------------------------------------------------------------ *)
(* Suppression round-trip (shared language, both tools)                 *)
(* ------------------------------------------------------------------ *)

let all_rule_ids =
  List.map (fun (r : Wlan_lint_kernel.Rules.t) -> r.id) Wlan_lint_kernel.Rules.all
  @ List.map fst Checks.all_rules

(* A diagnostic pinned to line 2 (col 0) of a two-line source. *)
let diag_at ~rule ~line ~off =
  { Diagnostic.rule; file = "round_trip.ml"; line; col = 0; off; message = "m" }

let spellings id =
  [ Suppress.normalize id; String.map (fun c -> if c = '-' then '_' else c) id ]

(* Comment form: a directive line suppresses the same and the next
   line, for every rule id of both registries, in both spellings, both
   as its own name and as "all". *)
let round_trip_comment =
  QCheck.Test.make ~count:200 ~name:"comment directive round-trips"
    QCheck.(
      make
        Gen.(
          let* id = oneofl all_rule_ids in
          let* tok = oneofl (spellings id @ [ "all" ]) in
          let* own_line = bool in
          return (id, tok, own_line)))
    (fun (id, tok, own_line) ->
      let src =
        if own_line then Printf.sprintf "(* lint: allow %s *)\nlet x = 1\n" tok
        else Printf.sprintf "let x = 1 (* lint: allow %s *)\nlet y = 2\n" tok
      in
      let directives = Suppress.comment_directives src in
      let line = if own_line then 2 else 1 in
      let hit = diag_at ~rule:id ~line ~off:25 in
      let miss = diag_at ~rule:id ~line:(line + 2) ~off:25 in
      Suppress.filter ~spans:[] ~directives [ hit ] = []
      && Suppress.filter ~spans:[] ~directives [ miss ] = [ miss ])

(* Attribute form: an [@lint.allow ...] span suppresses a diagnostic
   whose offset falls inside the attributed expression, through the
   same Source parser both engines call. *)
let round_trip_attribute =
  QCheck.Test.make ~count:200 ~name:"attribute span round-trips"
    QCheck.(
      make
        Gen.(
          let* id = oneofl all_rule_ids in
          let* quoted = bool in
          (* a bare (unquoted) payload must be a lexable ident, so the
             dashed spelling is only reachable through a string literal *)
          let* tok =
            if quoted then oneofl (spellings id)
            else return (String.map (fun c -> if c = '-' then '_' else c) id)
          in
          return (id, tok, quoted)))
    (fun (id, tok, quoted) ->
      let payload = if quoted then Printf.sprintf "%S" tok else tok in
      let src = Printf.sprintf "let x = (1 + 1) [@lint.allow %s]\n" payload in
      match Source.parse_implementation ~path:"round_trip.ml" src with
      | exception e ->
          QCheck.Test.fail_reportf "does not parse: %s" (Printexc.to_string e)
      | str ->
          let spans = Suppress.allow_spans str in
          let inside = diag_at ~rule:id ~line:1 ~off:9 in
          let outside = diag_at ~rule:id ~line:1 ~off:1 in
          let other =
            diag_at ~rule:"definitely-not-a-rule" ~line:1 ~off:9
          in
          Suppress.filter ~spans ~directives:[] [ inside ] = []
          && Suppress.filter ~spans ~directives:[] [ outside ] = [ outside ]
          && Suppress.filter ~spans ~directives:[] [ other ] = [ other ])

let () =
  Alcotest.run "wlan-race"
    [
      ( "goldens",
        List.map
          (fun base -> Alcotest.test_case base `Quick (test_golden base))
          fixtures );
      ( "engine",
        [
          Alcotest.test_case "no load errors" `Quick test_no_load_errors;
          Alcotest.test_case "every rule fires" `Quick test_every_rule_fires;
          Alcotest.test_case "exactly its rule" `Quick test_exactly_its_rule;
          Alcotest.test_case "clean fixtures silent" `Quick
            test_clean_fixtures_silent;
          Alcotest.test_case "suppression is load-bearing" `Quick
            test_suppression_is_load_bearing;
          Alcotest.test_case "rule filter" `Quick test_rule_filter;
        ] );
      ( "export-reachability",
        [
          Alcotest.test_case "golden text and json" `Quick test_reach_golden;
          Alcotest.test_case "three classes" `Quick test_reach_classes;
          Alcotest.test_case "suppression is load-bearing" `Quick
            test_reach_suppression;
          Alcotest.test_case "test units are readers only" `Quick
            test_test_units_unchecked;
        ] );
      ( "suppression",
        List.map QCheck_alcotest.to_alcotest
          [ round_trip_comment; round_trip_attribute ] );
    ]
