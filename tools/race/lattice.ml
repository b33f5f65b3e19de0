(** The mutability lattice (DESIGN.md §4.11).

    Every type is classified by what sharing it across pool domains can
    do to determinism:

    {ul
    {- [Immutable] — structurally constant, free to share;}
    {- [Safe] — mutable by design but synchronised and commutative
       ([Atomic.t], [Mutex.t], the counter plane's cells);}
    {- [Rng of _] — a [Random.State.t]: mutable {e and} order-sensitive,
       handled by the [ambient-rng-in-task] rule rather than the escape
       rule;}
    {- [Mut of {kind; strong}] — unsynchronised mutable state. [strong]
       marks pointer-style mutability (refs, [Hashtbl], [Buffer],
       [Bytes], [Queue], [Stack], [Lazy], records with [mutable]
       fields): capturing one in a pooled task is flagged outright.
       Weak mutability (reached only through [array] planes, e.g. a CSR
       [Sparse.t]) is flagged only when the task syntactically writes
       to the capture or the value is a module global — read-only
       sharing of numeric planes is this repo's standard idiom and is
       defended by the differential test batteries.}}

    User-defined types are classified from the typedtrees themselves: a
    first pass over {e all} loaded [.cmt] units records every record,
    variant and abbreviation declaration (keyed by canonical name,
    nested modules included), so cross-module record mutability — e.g.
    [Wlan_model.Sparse.t]'s rate store — is seen without any [Env]
    reconstruction. Unknown abstract types default to [Immutable]; the
    qcheck differential batteries remain the backstop for what the
    lattice cannot see. *)

type verdict =
  | Immutable
  | Safe
  | Rng of string
  | Mut of { kind : string; strong : bool }

let join a b =
  match (a, b) with
  | (Mut _ as m), Mut { strong = false; _ } | Mut { strong = false; _ }, (Mut _ as m)
    -> m
  | (Mut _ as m), _ | _, (Mut _ as m) -> m
  | (Rng _ as r), _ | _, (Rng _ as r) -> r
  | Safe, _ | _, Safe -> Safe
  | Immutable, Immutable -> Immutable

let join_all = List.fold_left join Immutable

(* ------------------------------------------------------------------ *)
(* Declaration collection                                              *)
(* ------------------------------------------------------------------ *)

type decl =
  | Record of (bool * Types.type_expr) list  (** (field is [mutable], type) *)
  | Variant of Types.type_expr list  (** all constructor argument types *)
  | Abbrev of Types.type_expr

type decls = decl Names.Table.t

(* Walk one unit's structure, tracking the module path so nested
   declarations get fully-qualified canonical keys. *)
let collect_unit (decls : decls) (u : Loader.unit_info) =
  let add_decl path_rev (td : Typedtree.type_declaration) =
    let key = List.rev (td.typ_name.txt :: path_rev) in
    let record_fields lds =
      List.map
        (fun (ld : Typedtree.label_declaration) ->
          (ld.ld_mutable = Asttypes.Mutable, ld.ld_type.ctyp_type))
        lds
    in
    match td.typ_kind with
    | Ttype_record lds -> Names.Table.add decls key (Record (record_fields lds))
    | Ttype_variant cds ->
        let args =
          List.concat_map
            (fun (cd : Typedtree.constructor_declaration) ->
              match cd.cd_args with
              | Cstr_tuple cts ->
                  List.map (fun (ct : Typedtree.core_type) -> ct.ctyp_type) cts
              | Cstr_record lds ->
                  (* inline records: mutable flags matter; encode as a
                     synthetic record under the same key suffixed by the
                     constructor so lookups through the variant join it *)
                  List.map (fun (ld : Typedtree.label_declaration) ->
                      ld.ld_type.ctyp_type)
                    (List.filter
                       (fun (ld : Typedtree.label_declaration) ->
                         ld.ld_mutable = Asttypes.Immutable)
                       lds))
            cds
        in
        let has_mutable_inline =
          List.exists
            (fun (cd : Typedtree.constructor_declaration) ->
              match cd.cd_args with
              | Cstr_record lds ->
                  List.exists
                    (fun (ld : Typedtree.label_declaration) ->
                      ld.ld_mutable = Asttypes.Mutable)
                    lds
              | Cstr_tuple _ -> false)
            cds
        in
        if has_mutable_inline then
          Names.Table.add decls key
            (Record [ (true, (match args with t :: _ -> t | [] -> Predef.type_int)) ])
        else Names.Table.add decls key (Variant args)
    | Ttype_abstract | Ttype_open -> (
        match td.typ_manifest with
        | Some ct -> Names.Table.add decls key (Abbrev ct.ctyp_type)
        | None -> ())
  in
  let rec walk_items path_rev items =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Tstr_type (_, tds) -> List.iter (add_decl path_rev) tds
        | Tstr_module mb -> walk_module path_rev mb
        | Tstr_recmodule mbs -> List.iter (walk_module path_rev) mbs
        | Tstr_include incl -> (
            match incl.incl_mod.mod_desc with
            | Tmod_structure str -> walk_items path_rev str.str_items
            | _ -> ())
        | _ -> ())
      items
  and walk_module path_rev (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id ->
        let rec strip (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_constraint (me, _, _, _) -> strip me
          | me_desc -> me_desc
        in
        (match strip mb.mb_expr with
        | Tmod_structure str ->
            walk_items (Ident.name id :: path_rev) str.str_items
        | _ -> ())
  in
  walk_items (List.rev u.modname) u.tree.str_items

let collect units =
  let decls : decls = Names.Table.create () in
  List.iter (collect_unit decls) units;
  decls

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

(* Built-in classification by canonical name. Only the last one or two
   segments matter for stdlib types. *)
let strong_builtins =
  [
    ([ "ref" ], "ref cell");
    ([ "Hashtbl"; "t" ], "Hashtbl");
    ([ "Buffer"; "t" ], "Buffer");
    ([ "bytes" ], "bytes");
    ([ "Bytes"; "t" ], "bytes");
    ([ "Queue"; "t" ], "Queue");
    ([ "Stack"; "t" ], "Stack");
    ([ "Dynarray"; "t" ], "Dynarray");
    ([ "Weak"; "t" ], "weak array");
    ([ "lazy_t" ], "lazy (forcing races)");
    ([ "Lazy"; "t" ], "lazy (forcing races)");
    ([ "in_channel" ], "channel");
    ([ "out_channel" ], "channel");
  ]

let weak_builtins = [ ([ "array" ], "array"); ([ "floatarray" ], "float array") ]

let safe_suffixes =
  [
    [ "Atomic"; "t" ]; [ "Mutex"; "t" ]; [ "Condition"; "t" ];
    [ "Semaphore"; "Counting"; "t" ]; [ "Semaphore"; "Binary"; "t" ];
  ]

let transparent =
  [ [ "list" ]; [ "option" ]; [ "result" ]; [ "Seq"; "t" ]; [ "Either"; "t" ] ]

let rng_suffixes = [ [ "Random"; "State"; "t" ] ]

let ends_with ~suffix segs = Names.is_suffix ~suffix segs

(* [self] is the module path of the scope the type expression was
   written in: a bare [Tconstr] like [t] or [batch] (a [Pident], so no
   "M.t" suffix to match) resolves by prepending it. When recursing
   into a found declaration's fields, [self] becomes that declaration's
   own module path, derived from its full key. *)
let rec verdict ?(depth = 0) ~self ~(decls : decls) visiting
    (ty : Types.type_expr) =
  if depth > 14 then Immutable
  else
    let eval = verdict ~depth:(depth + 1) ~self ~decls visiting in
    match Types.get_desc ty with
    | Ttuple ts -> join_all (List.map eval ts)
    | Tarrow _ -> Immutable (* closures judged at their own capture sites *)
    | Tpoly (t, _) -> eval t
    | Tconstr (p, args, _) -> (
        let segs = Names.canon_of_path p in
        if List.exists (fun s -> ends_with ~suffix:s segs) safe_suffixes then Safe
        else if List.exists (fun s -> ends_with ~suffix:s segs) rng_suffixes then
          Rng (Names.to_string segs)
        else
          match
            List.find_opt (fun (s, _) -> ends_with ~suffix:s segs) strong_builtins
          with
          | Some (_, kind) -> Mut { kind; strong = true }
          | None -> (
              match
                List.find_opt (fun (s, _) -> ends_with ~suffix:s segs) weak_builtins
              with
              | Some (_, kind) -> Mut { kind; strong = false }
              | None ->
                  if List.exists (fun s -> s = segs) transparent then
                    join_all (List.map eval args)
                  else
                    let found =
                      match Names.Table.find_key decls segs with
                      | Some _ as r -> r
                      | None when self <> [] ->
                          Names.Table.find_key decls (self @ segs)
                      | None -> None
                    in
                    match found with
                    | None -> Immutable (* unknown abstract type *)
                    | Some (key, d) ->
                        if List.mem key !visiting then Immutable
                        else begin
                          visiting := key :: !visiting;
                          let v = decl_verdict ~depth ~decls visiting key d in
                          visiting := List.filter (( <> ) key) !visiting;
                          v
                        end))
    | _ -> Immutable

and decl_verdict ~depth ~decls visiting key d =
  (* recurse with the declaration's own module path as [self] so its
     fields' bare type names resolve in the right scope *)
  let self =
    match List.rev (String.split_on_char '.' key) with
    | _ :: rev_mods -> List.rev rev_mods
    | [] -> []
  in
  match d with
  | Abbrev t -> verdict ~depth:(depth + 1) ~self ~decls visiting t
  | Variant args ->
      join_all (List.map (verdict ~depth:(depth + 1) ~self ~decls visiting) args)
  | Record fields ->
      if List.exists fst fields then
        Mut { kind = Printf.sprintf "record %s with mutable field(s)" key;
              strong = true }
      else
        join_all
          (List.map
             (fun (_, t) -> verdict ~depth:(depth + 1) ~self ~decls visiting t)
             fields)

let of_type ?(self = []) ~decls ty = verdict ~self ~decls (ref []) ty

let is_float ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> Names.canon_of_path p = [ "float" ]
  | _ -> false
