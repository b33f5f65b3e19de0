(* Golden + property tests for wlan-race.

   The fixture corpus (tools/race/fixtures) is a real dune library —
   the analyzer reads its .cmt typedtrees, so the test depends on the
   fixtures' @default alias and loads the compiled artifacts from
   ../fixtures. Each positive fixture must reproduce its .expected
   diagnostics byte for byte and trigger *only* its own rule; the clean
   fixtures must be silent; the suppressed fixtures must be flagged
   before the suppression filter and silent after it; and the
   suppression language must round-trip for every rule id, in both
   spellings and both escape-hatch forms. The reach/ sub-corpus pins
   export-reachability: its lib/ exports, read from its bin/ and test/
   units, cover the three classes and every reader shape the rule
   resolves. Its lib/opt.mli pins optional-reachability: one optional
   parameter per pass shape, called from bin/opt_reader.ml and
   test/reader.ml. Its lib/field.mli pins field-reachability: one record
   field per reader shape, read from bin/field_reader.ml and
   test/field_reader.ml. *)

open Wlan_race_kernel

let fixture_root = "../fixtures"
let read path = In_channel.with_open_bin path In_channel.input_all

(* One engine run over the corpus, shared by all tests. *)
let result = lazy (Engine.run [ fixture_root ])

(* The corpus, loaded once; and its findings before suppression, to
   prove the escape hatches are load-bearing. *)
let loaded = lazy (Loader.load [ fixture_root ])
let raw = lazy (Engine.analyze (Lazy.force loaded))

(* [rel] is a path under the corpus, e.g. "lib/hygiene.ml". *)
let is_fixture rel (d : Diagnostic.t) =
  String.ends_with ~suffix:("fixtures/" ^ rel) d.file

let diags_for rel =
  List.filter (is_fixture rel) (Lazy.force result).diagnostics

let rules_of diags =
  List.sort_uniq String.compare (List.map (fun (d : Diagnostic.t) -> d.rule) diags)

let fixtures =
  [
    "ambient_rng.ml"; "float_eq.ml"; "unordered_fold.ml"; "lib/hygiene.ml";
    "pool_capture.ml"; "arena_capture.ml"; "main_domain.ml"; "mutstore.ml";
    "racy_shared_escape.ml"; "racy_counter.ml"; "racy_rng.ml"; "racy_merge.ml";
    "clean_tasks.ml"; "suppressed.ml";
  ]

let test_golden rel () =
  let expected =
    read (Filename.concat fixture_root (Filename.remove_extension rel ^ ".expected"))
  in
  let rendered =
    String.concat "" (List.map (fun d -> Diagnostic.to_text d ^ "\n") (diags_for rel))
  in
  Alcotest.(check string) (rel ^ " diagnostics") expected rendered

let test_no_load_errors () =
  let r = Lazy.force result in
  Alcotest.(check int) "load errors" 0 (List.length r.errors);
  Alcotest.(check bool) "several units loaded" true (r.units >= List.length fixtures)

(* The acceptance bar: each rule has a fixture that triggers it. *)
let test_every_rule_fires () =
  let fired = rules_of (Lazy.force result).diagnostics in
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s fires on the corpus" id)
        true (List.mem id fired))
    Engine.all_rules

(* Each positive fixture is a pure specimen of one rule. *)
let test_exactly_its_rule () =
  List.iter
    (fun (rel, rule) ->
      Alcotest.(check (list string)) (rel ^ " rules") [ rule ]
        (rules_of (diags_for rel)))
    [
      ("ambient_rng.ml", Rules.rule_rng);
      ("float_eq.ml", Rules.rule_float_eq);
      ("unordered_fold.ml", Rules.rule_fold);
      ("lib/hygiene.ml", Rules.rule_hygiene);
      ("pool_capture.ml", Checks.rule_escape);
      ("arena_capture.ml", Checks.rule_escape);
      ("main_domain.ml", Checks.rule_escape);
      ("racy_shared_escape.ml", Checks.rule_escape);
      ("racy_counter.ml", Checks.rule_counter);
      ("racy_rng.ml", Checks.rule_rng);
      ("racy_merge.ml", Checks.rule_merge);
      ("reach/lib/api.mli", Reach.rule);
      ("reach/lib/opt.mli", Reach.opt_rule);
      ("reach/lib/field.mli", Reach.field_rule);
    ]

let test_clean_fixtures_silent () =
  List.iter
    (fun rel ->
      Alcotest.(check int) (rel ^ " findings") 0 (List.length (diags_for rel)))
    [ "mutstore.ml"; "clean_tasks.ml"; "suppressed.ml"; "lib/report.ml";
      "lib/trace.ml" ]

let raw_for rel = List.filter (is_fixture rel) (Lazy.force raw)

(* suppressed.ml is genuinely racy — four findings before the filter,
   none after — so the hatches, not analyzer blindness, silence it. *)
let test_suppression_is_load_bearing () =
  let before = raw_for "suppressed.ml" in
  Alcotest.(check int) "raw findings in suppressed.ml" 4 (List.length before);
  Alcotest.(check (list string)) "all four rules represented"
    (List.sort String.compare
       [ Checks.rule_escape; Checks.rule_counter; Checks.rule_rng;
         Checks.rule_merge ])
    (rules_of before)

(* float_eq.ml holds one attribute-suppressed and two comment-suppressed
   comparisons: exactly three more findings before the filter. *)
let test_ported_rule_escapes () =
  Alcotest.(check int) "suppressions hide exactly 3 findings" 3
    (List.length (raw_for "float_eq.ml")
    - List.length (diags_for "float_eq.ml"))

(* The per-unit rules over the fixture [rel], as if compiled from
   [source]: lib-hygiene classifies units by path. *)
let unit_as rel source =
  let u =
    List.find
      (fun (u : Loader.unit_info) ->
        String.ends_with ~suffix:("fixtures/" ^ rel) u.source)
      (Lazy.force loaded).units
  in
  Rules.check_unit { u with source }

let hygiene_as = unit_as "lib/hygiene.ml"

(* lib/ scoping: the same unit outside a lib/ directory is silent. *)
let test_lib_scoping () =
  Alcotest.(check int) "under lib/" 5
    (List.length (hygiene_as "tools/race/fixtures/lib/hygiene.ml"));
  Alcotest.(check int) "outside lib/" 0
    (List.length (hygiene_as "tools/race/fixtures/hygiene.ml"))

(* The reporting modules may print, and nothing else: Obj.magic and
   exit stay findings there. *)
let test_print_exempt () =
  List.iter
    (fun source ->
      Alcotest.(check (list string)) (source ^ " findings")
        [ "Obj.magic defeats the type system; no library code may use it";
          "library code must not call exit; raise and let the binary decide" ]
        (List.map (fun (d : Diagnostic.t) -> d.message)
           (List.sort Diagnostic.compare (hygiene_as source))))
    [ "lib/harness/report.ml"; "lib/sim/trace.ml" ]

(* The other three tree-wide rules ignore the path: each fixture's
   findings of its rule, before suppression, are the same under lib/,
   bin/ and bench/. *)
let test_path_independent () =
  List.iter
    (fun (rel, rule) ->
      let count source =
        List.length
          (List.filter (fun (d : Diagnostic.t) -> d.rule = rule)
             (unit_as rel source))
      in
      let expected = List.length (raw_for rel) in
      Alcotest.(check bool) (rel ^ " is flagged") true (expected > 0);
      List.iter
        (fun source ->
          Alcotest.(check int) (rel ^ " as " ^ source) expected (count source))
        [ "lib/sim/x.ml"; "bin/x.ml"; "bench/x.ml" ])
    [
      ("ambient_rng.ml", Rules.rule_rng);
      ("float_eq.ml", Rules.rule_float_eq);
      ("unordered_fold.ml", Rules.rule_fold);
    ]

(* Filtering to one tree-wide rule keeps exactly its fixture's
   findings, and nothing of the domain-safety rules. *)
let test_ported_rule_filter () =
  let r = Engine.run ~rules:[ Rules.rule_float_eq ] [ fixture_root ] in
  Alcotest.(check (list string)) "findings"
    (List.map Diagnostic.to_text (diags_for "float_eq.ml"))
    (List.map Diagnostic.to_text r.diagnostics)

(* A tree-wide finding in the --format json array carries the same
   file, position and rule as its text line. *)
let test_json_fields () =
  let d = List.hd (diags_for "ambient_rng.ml") in
  let json = Engine.to_json [ d ] in
  let contains needle =
    let n = String.length needle in
    let rec from i =
      i + n <= String.length json && (String.sub json i n = needle || from (i + 1))
    in
    from 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json contains " ^ needle) true (contains needle))
    [
      {|"file":"tools/race/fixtures/ambient_rng.ml"|}; {|"line":4|};
      {|"col":20|}; {|"rule":"no-ambient-rng"|};
    ]

(* A unit that fails to load is an error, and the CLI exits 2. *)
let test_load_error_exits_2 () =
  let dir = Filename.temp_dir "race_load" "" in
  let junk = Filename.concat dir "junk.cmt" in
  Out_channel.with_open_bin junk (fun oc -> output_string oc "not a cmt");
  let code =
    Sys.command
      (Filename.quote_command "../wlan_race.exe" ~stdout:Filename.null
         [ "--quiet"; dir ])
  in
  Sys.remove junk;
  Sys.rmdir dir;
  Alcotest.(check int) "exit status" 2 code

(* ------------------------------------------------------------------ *)
(* export-reachability                                                  *)
(* ------------------------------------------------------------------ *)

let reach_root = Filename.concat fixture_root "reach"

(* The rule's findings, pinned as text and as the --format json array. *)
let test_reach_golden () =
  let diags = diags_for "reach/lib/api.mli" in
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
    Reach.classify (Lazy.force loaded)
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
       ]
    @ List.map
        (fun v -> ("Reach_lib.Opt." ^ v, "shipped"))
        [ "by_bin"; "unpassed"; "tested"; "forwarder"; "forwarded";
          "computed"; "by_helper"; "inside"; "as_value"; "listed"; "kept";
          "escaped" ]
    |> List.sort compare)
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
    (flagged (Reach.check (Lazy.force loaded)));
  Alcotest.(check bool) "suppressed" false (flagged (diags_for "reach/lib/api.mli"))

(* Units under test/ are readers only: reach/test/reader.ml taps
   ambient Random in a pooled task, and no rule reports it, though the
   per-unit checks alone would. *)
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
    (Engine.check_unit ~decls ~sums u <> []);
  Alcotest.(check int) "findings" 0
    (List.length (List.filter (fun (d : Diagnostic.t) -> d.file = u.source)
       (Lazy.force result).diagnostics))

(* ------------------------------------------------------------------ *)
(* optional-reachability                                                *)
(* ------------------------------------------------------------------ *)

let test_opt_golden () =
  let diags = diags_for "reach/lib/opt.mli" in
  Alcotest.(check string) "text"
    (read (Filename.concat reach_root "opt.expected"))
    (String.concat "" (List.map (fun d -> Diagnostic.to_text d ^ "\n") diags));
  Alcotest.(check string) "json"
    (read (Filename.concat reach_root "opt.expected.json"))
    (Engine.to_json diags ^ "\n")

(* Every optional parameter of the corpus in its class, the shipped ones
   included; [listed] has none, its label being inside a list. *)
let test_opt_classes () =
  let cls =
    Reach.classify_optional (Lazy.force loaded)
    |> List.filter_map (fun ((p : Reach.param), c) ->
           match p.export.key with
           | [ "Reach_lib"; "Opt"; v ] ->
               Some
                 ( v ^ " ?" ^ p.label,
                   match c with
                   | Reach.Shipped -> "shipped"
                   | Test_only files ->
                       "test-only "
                       ^ String.concat "," (List.map Filename.basename files)
                   | Unread -> "unpassed" )
           | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string))) "classes"
    (List.sort compare
       [
         ("by_bin ?l", "shipped");
         ("unpassed ?l", "unpassed");
         ("tested ?l", "test-only reader.ml");
         ("forwarder ?l", "unpassed");
         ("forwarded ?l", "unpassed");
         ("computed ?l", "shipped");
         ("by_helper ?l", "shipped");
         ("inside ?l", "shipped");
         ("as_value ?l", "unpassed");
         ("kept ?l", "unpassed");
         ("escaped ?l", "shipped");
       ])
    cls

(* The allow comment above [kept]'s label, not analyzer blindness, keeps
   it out of the findings. *)
let test_opt_suppression () =
  let flagged diags =
    List.exists
      (fun (d : Diagnostic.t) ->
        String.starts_with ~prefix:"Reach_lib.Opt.kept ?l " d.message)
      diags
  in
  Alcotest.(check bool) "raw finding" true
    (flagged (Reach.check_optional (Lazy.force loaded)));
  Alcotest.(check bool) "suppressed" false (flagged (diags_for "reach/lib/opt.mli"))

(* ------------------------------------------------------------------ *)
(* field-reachability                                                   *)
(* ------------------------------------------------------------------ *)

let test_field_golden () =
  let diags = diags_for "reach/lib/field.mli" in
  Alcotest.(check string) "text"
    (read (Filename.concat reach_root "field.expected"))
    (String.concat "" (List.map (fun d -> Diagnostic.to_text d ^ "\n") diags));
  Alcotest.(check string) "json"
    (read (Filename.concat reach_root "field.expected.json"))
    (Engine.to_json diags ^ "\n")

(* Every field of the corpus in its class, the shipped ones included. *)
let test_field_classes () =
  let cls =
    Reach.classify_fields (Lazy.force loaded)
    |> List.filter_map (fun ((f : Reach.field), c) ->
           match f.field with
           | "Reach_lib" :: "Field" :: rest ->
               Some
                 ( String.concat "." rest,
                   match c with
                   | Reach.Shipped -> "shipped"
                   | Test_only files ->
                       "test-only "
                       ^ String.concat "," (List.map Filename.basename files)
                   | Unread -> "unread" )
           | _ -> None)
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string))) "classes"
    (List.sort compare
       [
         ("r.shipped", "shipped");
         ("r.own_only", "shipped");
         ("r.by_pattern", "shipped");
         ("r.tested", "test-only field_reader.ml");
         ("r.unread", "unread");
         ("r.allowed", "test-only field_reader.ml");
         ("k.overridden", "unread");
         ("k.kept", "shipped");
         ("Sub.s.deep", "test-only field_reader.ml");
         ("p.hidden", "shipped");
       ])
    cls

(* The allow comment above [allowed], not analyzer blindness, keeps it
   out of the findings. *)
let test_field_suppression () =
  let flagged diags =
    List.exists
      (fun (d : Diagnostic.t) ->
        String.starts_with ~prefix:"Reach_lib.Field.r.allowed " d.message)
      diags
  in
  Alcotest.(check bool) "raw finding" true
    (flagged (Reach.check_fields (Lazy.force loaded)));
  Alcotest.(check bool) "suppressed" false
    (flagged (diags_for "reach/lib/field.mli"))

(* Test units are readers only: nothing in reach/test/field_reader.ml,
   which reads test-only fields, is reported at its own lines. *)
let test_field_test_units_unchecked () =
  Alcotest.(check int) "findings in the test reader" 0
    (List.length (diags_for "reach/test/field_reader.ml"))

(* Rule filtering: running with a single rule enabled yields exactly
   that rule's findings. *)
let test_rule_filter () =
  let r = Engine.run ~rules:[ Checks.rule_rng ] [ fixture_root ] in
  Alcotest.(check (list string)) "only rng findings" [ Checks.rule_rng ]
    (List.sort_uniq String.compare
       (List.map (fun (d : Diagnostic.t) -> d.rule) r.diagnostics));
  Alcotest.(check bool) "rng findings present" true (r.diagnostics <> [])

(* ------------------------------------------------------------------ *)
(* Suppression round-trip                                              *)
(* ------------------------------------------------------------------ *)

(* A diagnostic pinned to line 2 (col 0) of a two-line source. *)
let diag_at ~rule ~line ~off =
  { Diagnostic.rule; file = "round_trip.ml"; line; col = 0; off; message = "m" }

let spellings id =
  [ Suppress.normalize id; String.map (fun c -> if c = '-' then '_' else c) id ]

(* Comment form: a directive line suppresses the same and the next
   line, for every rule id, in both spellings, both as its own name and
   as "all". *)
let round_trip_comment =
  QCheck.Test.make ~count:200 ~name:"comment directive round-trips"
    QCheck.(
      make
        Gen.(
          let* id = oneofl Engine.rule_ids in
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
      Suppress.allowed ~spans:[] ~directives hit
      && not (Suppress.allowed ~spans:[] ~directives miss))

(* Attribute form: an [@lint.allow ...] span suppresses a diagnostic
   whose offset falls inside the attributed expression, through the
   same parser the engine calls. *)
let round_trip_attribute =
  QCheck.Test.make ~count:200 ~name:"attribute span round-trips"
    QCheck.(
      make
        Gen.(
          let* id = oneofl Engine.rule_ids in
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
      match Suppress.parse_implementation ~path:"round_trip.ml" src with
      | exception e ->
          QCheck.Test.fail_reportf "does not parse: %s" (Printexc.to_string e)
      | str ->
          let spans = Suppress.allow_spans str in
          let inside = diag_at ~rule:id ~line:1 ~off:9 in
          let outside = diag_at ~rule:id ~line:1 ~off:1 in
          let other =
            diag_at ~rule:"definitely-not-a-rule" ~line:1 ~off:9
          in
          Suppress.allowed ~spans ~directives:[] inside
          && (not (Suppress.allowed ~spans ~directives:[] outside))
          && not (Suppress.allowed ~spans ~directives:[] other))

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
          Alcotest.test_case "load error exits 2" `Quick test_load_error_exits_2;
        ] );
      ( "tree-wide rules",
        [
          Alcotest.test_case "attribute and comment escapes" `Quick
            test_ported_rule_escapes;
          Alcotest.test_case "lib-hygiene scoped to lib/" `Quick
            test_lib_scoping;
          Alcotest.test_case "report/trace exemption" `Quick test_print_exempt;
          Alcotest.test_case "other rules ignore the path" `Quick
            test_path_independent;
          Alcotest.test_case "rule filter" `Quick test_ported_rule_filter;
          Alcotest.test_case "json fields" `Quick test_json_fields;
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
      ( "optional-reachability",
        [
          Alcotest.test_case "golden text and json" `Quick test_opt_golden;
          Alcotest.test_case "every pass shape" `Quick test_opt_classes;
          Alcotest.test_case "suppression is load-bearing" `Quick
            test_opt_suppression;
        ] );
      ( "field-reachability",
        [
          Alcotest.test_case "golden text and json" `Quick test_field_golden;
          Alcotest.test_case "three classes" `Quick test_field_classes;
          Alcotest.test_case "the allow comment is load-bearing" `Quick
            test_field_suppression;
          Alcotest.test_case "test units are not checked" `Quick
            test_field_test_units_unchecked;
        ] );
      ( "suppression",
        List.map QCheck_alcotest.to_alcotest
          [ round_trip_comment; round_trip_attribute ] );
    ]
