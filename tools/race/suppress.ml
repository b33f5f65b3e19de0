(** Suppression of findings, two ways:

    - an attribute on the offending expression (or an enclosing
      value binding): [(e) [@lint.allow float_eq]] — collected from the
      AST as byte-offset spans, one per (rule, node);
    - a source comment on the same or the preceding line:
      [(* lint: allow float-eq *)] — collected by a line scan of the raw
      source, since comments never reach the parsetree.

    Rule names may be written with ['_'] or ['-'] interchangeably, and
    the special name [all] silences every rule. The analyzer reads
    typed [.cmt] trees, where neither survives intact, so it re-parses
    each source file a finding points into ({!of_source}). *)

let normalize name = String.map (fun c -> if c = '_' then '-' else c) name

let matches ~rule token =
  let t = normalize token in
  t = "all" || t = normalize rule

(** {1 Attribute spans} *)

type span = { rules : string list; start_off : int; end_off : int }

(* Extract rule-name tokens out of an attribute payload: bare idents
   ([[@lint.allow float_eq]]), string literals, or tuples of those. *)
let rec payload_tokens (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with [ t ] -> [ t ] | _ -> [])
  | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
  | Pexp_tuple es -> List.concat_map payload_tokens es
  | Pexp_apply (f, args) ->
      payload_tokens f @ List.concat_map (fun (_, a) -> payload_tokens a) args
  | _ -> []

let allow_tokens (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt <> "lint.allow" then []
      else
        match a.attr_payload with
        | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> payload_tokens e
        | _ -> [])
    attrs

(** Every [[@lint.allow ...]] in [str], as the span of the node it is
    attached to. *)
let allow_spans (str : Parsetree.structure) =
  let spans = ref [] in
  let add (loc : Location.t) attrs =
    match allow_tokens attrs with
    | [] -> ()
    | rules ->
        spans :=
          {
            rules;
            start_off = loc.loc_start.pos_cnum;
            end_off = loc.loc_end.pos_cnum;
          }
          :: !spans
  in
  let expr it (e : Parsetree.expression) =
    add e.pexp_loc e.pexp_attributes;
    Ast_iterator.default_iterator.expr it e
  in
  let value_binding it (vb : Parsetree.value_binding) =
    add vb.pvb_loc vb.pvb_attributes;
    Ast_iterator.default_iterator.value_binding it vb
  in
  let it = { Ast_iterator.default_iterator with expr; value_binding } in
  it.structure it str;
  !spans

(** {1 Comment directives} *)

(* A directive on line [l] silences lines [l] and [l + 1], so it can sit
   either at the end of the offending line or on its own line above. *)
type directive = { tokens : string list; line : int }

let comment_directives src =
  let directives = ref [] in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i line ->
      match
        let ( let* ) = Option.bind in
        let* j =
          (* find "lint:" inside a comment opener on this line *)
          let rec find k =
            if k + 5 > String.length line then None
            else if String.sub line k 5 = "lint:" then Some (k + 5)
            else find (k + 1)
          in
          find 0
        in
        let rest = String.sub line j (String.length line - j) in
        let rest =
          match String.index_opt rest '*' with
          | Some k when k + 1 < String.length rest && rest.[k + 1] = ')' ->
              String.sub rest 0 k
          | _ -> rest
        in
        Some
          (String.split_on_char ' ' rest
          |> List.concat_map (String.split_on_char ',')
          |> List.map String.trim
          |> List.filter (fun t -> t <> ""))
      with
      | Some ("allow" :: tokens) when tokens <> [] ->
          directives := { tokens; line = i + 1 } :: !directives
      | _ -> ())
    lines;
  !directives

(** {1 Filtering} *)

let allowed ~spans ~directives (d : Diagnostic.t) =
  List.exists
    (fun s ->
      s.start_off <= d.off && d.off <= s.end_off
      && List.exists (matches ~rule:d.rule) s.rules)
    spans
  || List.exists
       (fun dir ->
         (dir.line = d.line || dir.line = d.line - 1)
         && List.exists (matches ~rule:d.rule) dir.tokens)
       directives

let parse_implementation ~path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Location.input_name := path;
  Parse.implementation lexbuf

(** Attribute spans and comment directives of one source file. A file
    that does not parse keeps its comment directives: they need no
    parsetree. *)
let of_source ~path src =
  let directives = comment_directives src in
  match parse_implementation ~path src with
  | str -> (allow_spans str, directives)
  | exception _ -> ([], directives)
