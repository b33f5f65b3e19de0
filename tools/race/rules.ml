(** The tree-wide rules (DESIGN.md §4.6): determinism and float
    discipline, checked at every expression of a shipped unit rather
    than only inside pooled tasks. Each matches resolved [Texp_ident]
    paths, so a shadowing local definition is never mistaken for the
    stdlib value; [float-eq] also reads its operands' types. *)

let rule_rng = "no-ambient-rng"
let rule_float_eq = "float-eq"
let rule_fold = "unordered-fold"
let rule_hygiene = "lib-hygiene"

let all_rules =
  [
    ( rule_rng,
      "no Random.* outside Random.State, anywhere (determinism under \
       --jobs N)" );
    ( rule_float_eq,
      "structural =/<>/==/!=/compare on float operands must use the \
       epsilon helpers" );
    ( rule_fold,
      "Hashtbl.fold/iter building an escaping list must be followed by a \
       List.sort in the same definition" );
    ( rule_hygiene,
      "lib/ may not print to stdout (outside Harness.Report/Sim.Trace), \
       use Obj.magic, or call exit" );
  ]

(* A value of the stdlib's toplevel ([=], [compare], [exit], ...): one
   canonical segment, reached through [Stdlib] rather than a local
   binder. *)
let stdlib_value (p : Path.t) segs names =
  match (p, segs) with
  | Path.Pident _, _ -> false
  | _, [ v ] -> List.mem v names
  | _ -> false

(* Does [e] contain a node satisfying [pred]? *)
let contains pred e =
  let found = ref false in
  let expr it (e : Typedtree.expression) =
    if pred e then found := true;
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let is_cons (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "::"; _ }, _) -> true
  | _ -> false

(* [r := ... :: ...]: a list accumulated through a captured ref. *)
let is_ref_cons e =
  match Checks.applied_fn e with
  | Some (_, [ ":=" ], [ _; (_, Some rhs) ]) -> contains is_cons rhs
  | _ -> false

let is_function (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

let structural_cmp_ops = [ "="; "<>"; "=="; "!="; "compare" ]
let sort_fns = [ "sort"; "stable_sort"; "fast_sort"; "sort_uniq" ]

let print_fns =
  [
    [ "Printf"; "printf" ]; [ "Format"; "printf" ]; [ "Format"; "print_string" ];
    [ "Fmt"; "pr" ];
  ]

let print_values =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes";
  ]

(** Every finding of the four rules in [u]. [lib-hygiene] applies to
    units under a [lib] directory; its two reporting modules,
    [report.ml] and [trace.ml] there, may print. *)
let check_unit (u : Loader.unit_info) =
  let diags = ref [] in
  let diag ~rule ~loc fmt =
    Format.kasprintf
      (fun m -> diags := Diagnostic.make ~rule ~file:u.source ~loc m :: !diags)
      fmt
  in
  let in_lib = Loader.under "lib" u in
  let print_exempt =
    in_lib && List.mem (Filename.basename u.source) [ "report.ml"; "trace.ml" ]
  in
  let ident (p : Path.t) segs (loc : Location.t) =
    (match List.rev segs with
    | fn :: "Random" :: _ ->
        diag ~rule:rule_rng ~loc
          "ambient Random.%s taps the shared RNG stream and breaks \
           byte-identical output across --jobs values; draw from a split \
           Random.State (see Scenario_gen.scenario_rng)"
          fn
    | _ -> ());
    if in_lib then
      if segs = [ "Obj"; "magic" ] then
        diag ~rule:rule_hygiene ~loc
          "Obj.magic defeats the type system; no library code may use it"
      else if stdlib_value p segs [ "exit" ] then
        diag ~rule:rule_hygiene ~loc
          "library code must not call exit; raise and let the binary decide"
      else if
        (not print_exempt)
        && (List.mem segs print_fns || stdlib_value p segs print_values)
      then
        diag ~rule:rule_hygiene ~loc
          "%s prints to stdout from library code; route output through Logs \
           or the Harness.Report/Sim.Trace formatters"
          (Names.to_string segs)
  in
  let float_eq (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (f, [ (Nolabel, Some a); (Nolabel, Some _) ]) -> (
        match Checks.ident_segs f with
        | Some (p, segs)
          when stdlib_value p segs structural_cmp_ops
               && Lattice.is_float a.exp_type ->
            let op = List.hd segs in
            diag ~rule:rule_float_eq ~loc:e.exp_loc
              "structural %s on float operands is exact: summation-order \
               noise can flip it and destabilise distributed decisions; \
               compare through an epsilon-tolerant helper (e.g. \
               Loads.compare_load_prefixes_eps, Float.abs (a -. b) <= eps) or \
               annotate [@lint.allow float_eq] if exactness is the point"
              (if op = "compare" then op else "(" ^ op ^ ")")
        | _ -> ())
    | _ -> ()
  in
  (* Scope of [unordered-fold]: one top-level structure item. A list
     built in bucket order is fine as long as a [List.sort]-family call
     occurs at or after the fold within the same item — the [|> List.sort]
     pipeline idiom. *)
  let unordered_fold (si : Typedtree.structure_item) =
    let folds = ref [] and sorts = ref [] in
    let expr it (e : Typedtree.expression) =
      (match Checks.applied_fn e with
      | Some (_, segs, args) -> (
          let literal_with pred =
            List.exists
              (function _, Some a -> is_function a && contains pred a | _ -> false)
              args
          in
          match Names.last2 segs with
          | Some ("Hashtbl", "fold") when literal_with is_cons ->
              folds := (e.exp_loc, "Hashtbl.fold") :: !folds
          | Some ("Hashtbl", "iter") when literal_with is_ref_cons ->
              folds := (e.exp_loc, "Hashtbl.iter") :: !folds
          | _ -> ())
      | None -> ());
      (match Checks.ident_segs e with
      | Some (_, segs) -> (
          match Names.last2 segs with
          | Some ("List", fn) when List.mem fn sort_fns ->
              sorts := e.exp_loc.loc_start.pos_cnum :: !sorts
          | _ -> ())
      | None -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.structure_item it si;
    List.iter
      (fun ((loc : Location.t), what) ->
        let off = loc.loc_start.pos_cnum in
        if not (List.exists (fun s -> s >= off) !sorts) then
          diag ~rule:rule_fold ~loc
            "%s builds a list in unspecified bucket order and no List.sort \
             follows in this definition; sort before the result escapes, or \
             the output differs between runs"
            what)
      !folds
  in
  let expr it (e : Typedtree.expression) =
    (match Checks.ident_segs e with
    | Some (p, segs) -> ident p segs e.exp_loc
    | None -> float_eq e);
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.tree;
  List.iter unordered_fold u.tree.str_items;
  !diags
