(* wlan-race: the repository's typed static analyzer.

   Loads every .cmt/.cmti under the given roots (default: lib bin bench
   examples test — inside _build/default when invoked from the
   repository root), builds the whole-tree mutability lattice and
   interprocedural summaries, and checks the rules of
   Wlan_race_kernel.Engine.all_rules: determinism and float discipline
   tree-wide, domain safety of pooled tasks, export and optional-parameter
   reachability.
   Exit status: 0 clean, 1 findings, 2 load or usage errors.

   The .cmt files are only as fresh as the last `dune build`; run
   through the `@race` alias (which depends on @default) unless you
   know the build is current. See tools/race/README.md. *)

open Wlan_race_kernel

let usage =
  "wlan-race [options] [root ...]\n\
   Typed determinism, domain-safety and export checks over compiled\n\
   .cmt typedtrees (DESIGN.md §4.6, §4.11). Roots are source\n\
   directories; default: lib bin bench examples test."

let () =
  let format = ref `Text in
  let enabled = ref [] in
  let disabled = ref [] in
  let paths = ref [] in
  let list_rules = ref false in
  let quiet = ref false in
  let build_dir = ref None in
  let spec =
    [
      ( "--format",
        Arg.Symbol
          ( [ "text"; "json" ],
            fun s -> format := if s = "json" then `Json else `Text ),
        " output format (default text)" );
      ( "--rule",
        Arg.String (fun r -> enabled := r :: !enabled),
        "<id> run only this rule (repeatable)" );
      ( "--disable",
        Arg.String (fun r -> disabled := r :: !disabled),
        "<id> skip this rule (repeatable)" );
      ( "--build-dir",
        Arg.String (fun d -> build_dir := Some d),
        "<dir> prefix roots with this build context (default: \
         _build/default when it exists, else none)" );
      ("--list-rules", Arg.Set list_rules, " print the rule registry and exit");
      ("--quiet", Arg.Set quiet, " suppress the trailing summary line");
    ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    List.iter
      (fun (id, doc) -> Printf.printf "%-24s %s\n" id doc)
      Engine.all_rules;
    exit 0
  end;
  let bad_id id =
    Printf.eprintf "wlan-race: unknown rule %S (try --list-rules)\n" id;
    exit 2
  in
  List.iter
    (fun id -> if Engine.find_rule id = None then bad_id id)
    (!enabled @ !disabled);
  let rules =
    Engine.rule_ids
    |> List.filter (fun id ->
           (!enabled = [] || List.mem id !enabled)
           && not (List.mem id !disabled))
  in
  let roots = if !paths = [] then Engine.default_roots else List.rev !paths in
  let res = Engine.run ~rules ?prefix:!build_dir roots in
  (match !format with
  | `Text ->
      List.iter (fun d -> print_endline (Diagnostic.to_text d)) res.diagnostics;
      List.iter
        (fun (e : Engine.error) ->
          Printf.printf "%s: load error\n%s\n" e.file e.message)
        res.errors;
      if not !quiet then
        Printf.printf
          "wlan-race: %d unit(s), %d finding(s), %d load error(s)\n" res.units
          (List.length res.diagnostics)
          (List.length res.errors)
  | `Json -> print_endline (Engine.to_json res.diagnostics));
  if res.errors <> [] then exit 2
  else if res.diagnostics <> [] then exit 1
  else exit 0
