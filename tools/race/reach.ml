(** The [export-reachability] rule (DESIGN.md §4.11): every [val] of a
    [lib/] interface must have a reader outside its own compilation
    unit in shipped code ([lib bin bench examples]). An export read only
    by [test/] units, or by nobody outside its own unit, is a finding.

    Readers are resolved value paths ([Texp_ident]), so local opens
    need no special case: the typer already wrote the full path. Module
    aliases ([module P = M], at top level or local) are followed within
    the unit that declares them. A module used whole — [include M], a
    functor argument [F (M)], a first-class [(module M)] — reads every
    export under it. *)

let rule = "export-reachability"

let doc =
  "every val of a lib/ interface has a reader outside its own module in \
   lib bin bench examples; test-only and unread exports are flagged"

type export = {
  key : string list;  (** canonical dotted name, e.g. [Optkit; Mcg; greedy] *)
  owner : string list;  (** the compilation unit that declares it *)
  file : string;
  loc : Location.t;
  optionals : (string * Location.t) list;
      (** the optional labels on the [val]'s own arrow spine, each at
          its label *)
}

type reader = { unit : string list; file : string; test : bool }
type cls = Shipped | Test_only of string list | Unread

let rec optionals (ct : Typedtree.core_type) =
  match ct.ctyp_desc with
  | Ttyp_arrow (Optional l, _, ret) -> (l, ct.ctyp_loc) :: optionals ret
  | Ttyp_arrow (_, _, ret) | Ttyp_poly (_, ret) -> optionals ret
  | _ -> []

(** [f prefix d] over every item [d] of an interface, submodule
    signatures included; [prefix] is the item's module path. *)
let sig_items f (i : Loader.intf_info) =
  let rec items prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (si : Typedtree.signature_item) ->
        match si.sig_desc with
        | Tsig_module { md_name = { txt = Some m; _ };
                        md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
            items (prefix @ [ m ]) sg
        | d -> f prefix d)
      sg.sig_items
  in
  items i.modname i.tree

(** Every [val] of an interface. *)
let exports (i : Loader.intf_info) =
  sig_items
    (fun prefix -> function
      | Tsig_value vd ->
          [ { key = prefix @ [ vd.val_name.txt ]; owner = i.modname;
              file = i.source; loc = vd.val_loc;
              optionals = optionals vd.val_desc } ]
      | _ -> [])
    i

(* ------------------------------------------------------------------ *)
(* Module aliases                                                      *)
(* ------------------------------------------------------------------ *)

let rec strip (me : Typedtree.module_expr) =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip me | d -> d

(* [local] maps an alias ident to its canonical target. It is keyed by
   [Ident.unique_name], which is unique only within one unit (stamps
   restart in every compilation unit), so each unit gets its own. *)
let rec module_segs local (p : Path.t) =
  match p with
  | Pident id -> (
      match Hashtbl.find_opt local (Ident.unique_name id) with
      | Some segs -> segs
      | None -> Names.segments_of_string (Ident.name id))
  | Pdot (m, s) -> module_segs local m @ Names.segments_of_string s
  | Papply (f, _) -> module_segs local f
  | Pextra_ty (p, _) -> module_segs local p

(* Every [module X = path] of one unit, [let module] included. *)
let aliases_of (u : Loader.unit_info) =
  let local = Hashtbl.create 16 in
  let add id me =
    match strip me with
    | Tmod_ident (p, _) -> Hashtbl.replace local (Ident.unique_name id) (module_segs local p)
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_letmodule (Some id, _, _, me, _) -> add id me
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let module_binding it (mb : Typedtree.module_binding) =
    Option.iter (fun id -> add id mb.mb_expr) mb.mb_id;
    Tast_iterator.default_iterator.module_binding it mb
  in
  let it = { Tast_iterator.default_iterator with expr; module_binding } in
  it.structure it u.tree;
  local

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

let push tbl key v =
  Hashtbl.replace tbl key (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))

(* Value reads keyed by dotted name; whole-module reads by module path. *)
let collect_reads ~values ~modules (u : Loader.unit_info) =
  let local = aliases_of u in
  let r = { unit = u.modname; file = u.source; test = Loader.under "test" u } in
  let whole me =
    match strip me with
    | Tmod_ident (p, _) -> push modules (Names.to_string (module_segs local p)) r
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Pdot (m, v), _, _) ->
        push values (Names.to_string (module_segs local m @ [ v ])) r
    | Texp_pack me -> whole me
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let module_expr it (me : Typedtree.module_expr) =
    (match me.mod_desc with Tmod_apply (_, arg, _) -> whole arg | _ -> ());
    Tast_iterator.default_iterator.module_expr it me
  in
  let structure_item it (si : Typedtree.structure_item) =
    (match si.str_desc with Tstr_include incl -> whole incl.incl_mod | _ -> ());
    Tast_iterator.default_iterator.structure_item it si
  in
  let it = { Tast_iterator.default_iterator with expr; module_expr; structure_item } in
  it.structure it u.tree

(* The whole-module readers of every module prefix of [key]. *)
let whole_readers modules key =
  let rec prefixes rev_pre = function
    | [] | [ _ ] -> []
    | m :: rest ->
        let pre = List.rev (m :: rev_pre) in
        Option.value ~default:[] (Hashtbl.find_opt modules (Names.to_string pre))
        @ prefixes (m :: rev_pre) rest
  in
  prefixes [] key

let lib_exports (l : Loader.loaded) =
  List.filter (Loader.under "lib") l.interfaces |> List.concat_map exports

let cls_of readers =
  if List.exists (fun r -> not r.test) readers then Shipped
  else if readers <> [] then
    Test_only (List.sort_uniq String.compare (List.map (fun r -> r.file) readers))
  else Unread

(** Sort every export of a [lib/] interface by its readers outside its
    own unit. *)
let classify (l : Loader.loaded) =
  let values = Hashtbl.create 4096 and modules = Hashtbl.create 64 in
  List.iter (collect_reads ~values ~modules) l.units;
  lib_exports l
  |> List.map (fun e ->
         Option.value ~default:[] (Hashtbl.find_opt values (Names.to_string e.key))
         @ whole_readers modules e.key
         |> List.filter (fun r -> r.unit <> e.owner)
         |> fun rs -> (e, cls_of rs))

(* The finding for one classified item, none when shipped code reads
   it; [test_only name files] and [unread name] word the other two. *)
let report ~rule ~file ~loc ~name ~test_only ~unread = function
  | Shipped -> None
  | Test_only files ->
      Some (Diagnostic.make ~rule ~file ~loc (test_only name (String.concat ", " files)))
  | Unread -> Some (Diagnostic.make ~rule ~file ~loc (unread name))

let check l =
  List.filter_map
    (fun ((e : export), cls) ->
      report ~rule ~file:e.file ~loc:e.loc ~name:(Names.to_string e.key) cls
        ~test_only:
          (Printf.sprintf
             "%s is read only by tests (%s): delete it with its test, move \
              it into test/, or keep it with a reason in an allow comment")
        ~unread:
          (Printf.sprintf
             "%s has no reader outside its own module: drop it from the \
              interface, and from the implementation if unused there"))
    (classify l)

(* ------------------------------------------------------------------ *)
(* optional-reachability                                               *)
(* ------------------------------------------------------------------ *)

(** The [optional-reachability] rule (DESIGN.md §4.11): every optional
    parameter on the arrow spine of a [lib/] export's [val] is passed by
    some call in shipped code. A parameter passed only by [test/] units,
    or by no call at all, is a finding at its label.

    A pass is an [Optional] argument of a [Texp_apply] whose function
    resolves to the export: through a value path, as for
    export-reachability, or through a top-level binding of the
    exporting unit, since calls inside it count. A [None] argument is
    no pass. The typer writes an omitted [?l] as [(Optional l, Some
    None)]: with a ghost location when a full application omits it,
    and at the argument's own location when a function passed as a
    value has its optional parameters eliminated; and a literal
    [?l:None] leaves the callee its default all the same. A forward
    [?l:x] of [x], the enclosing export's own optional parameter,
    passes only when that parameter is passed, computed to a fixpoint.
    Any other forward, a computed option or a non-exported helper's
    parameter, is a pass. A local [let x = M.f] makes [x] another name
    for the export; that is also how the typer writes a function passed
    as a value. Any other bare reference to the export, or a
    whole-module use of a module above it, may pass anything, so it
    passes every parameter. *)

let opt_rule = "optional-reachability"

let opt_doc =
  "every optional parameter of a lib/ export is passed by a call in lib \
   bin bench examples; parameters passed only by tests or by no call are \
   flagged"

(* A unit's top-level names by ident: its own submodules (added to the
   alias table), its types, its values, and the optional parameters each
   value binds on its arrow spine. *)
type scope = {
  local : (string, string list) Hashtbl.t;
  types : (string, string list) Hashtbl.t;
  values : (string, string list) Hashtbl.t;
  params : (string, string * string) Hashtbl.t;  (* ident -> key, label *)
}

(* The optional parameters a function binds on its spine. A parameter
   with a default binds [*opt*] and re-binds its name in a [#default]
   let, so only a parameter without one can be forwarded as [?l:x]. *)
let rec spine acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { arg_label; cases = [ c ]; _ } ->
      let acc =
        match (arg_label, c.c_lhs.pat_desc) with
        | Optional l, Tpat_var (id, _) -> (id, l) :: acc
        | _ -> acc
      in
      spine acc c.c_rhs
  | Texp_let (_, _, body)
    when List.exists
           (fun (a : Parsetree.attribute) -> a.attr_name.txt = "#default")
           e.exp_attributes ->
      spine acc body
  | _ -> acc

let scope_of (u : Loader.unit_info) =
  let sc =
    { local = aliases_of u; types = Hashtbl.create 32; values = Hashtbl.create 64;
      params = Hashtbl.create 64 }
  in
  let rec structure prefix (str : Typedtree.structure) =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) ->
                    let key = prefix @ [ Ident.name id ] in
                    Hashtbl.replace sc.values (Ident.unique_name id) key;
                    List.iter
                      (fun (p, l) ->
                        Hashtbl.replace sc.params (Ident.unique_name p)
                          (Names.to_string key, l))
                      (spine [] vb.vb_expr)
                | _ -> ())
              vbs
        | Tstr_type (_, tds) ->
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                Hashtbl.replace sc.types (Ident.unique_name td.typ_id)
                  (prefix @ [ Ident.name td.typ_id ]))
              tds
        | Tstr_module { mb_id = Some id; mb_expr; _ } -> (
            match strip mb_expr with
            | Tmod_structure str ->
                let prefix = prefix @ [ Ident.name id ] in
                Hashtbl.replace sc.local (Ident.unique_name id) prefix;
                structure prefix str
            | _ -> ())
        | _ -> ())
      str.str_items
  in
  structure u.modname u.tree;
  sc

(* Passes keyed by (callee, label), each with the caller's parameter it
   forwards, if any; bare references keyed by value. *)
let collect_passes ~passes ~escapes (u : Loader.unit_info) =
  let sc = scope_of u in
  let r = { unit = u.modname; file = u.source; test = Loader.under "test" u } in
  let resolve : Path.t -> _ = function
    | Pident id -> Hashtbl.find_opt sc.values (Ident.unique_name id)
    | Pdot (m, v) -> Some (module_segs sc.local m @ [ v ])
    | _ -> None
  in
  let pass callee = function
    | ( Asttypes.Optional _,
        Some { Typedtree.exp_desc = Texp_construct (_, { cstr_name = "None"; _ }, []); _ } )
      ->
        ()
    | Asttypes.Optional l, Some (a : Typedtree.expression) ->
        let from =
          match a.exp_desc with
          | Texp_ident (Pident x, _, _) ->
              Hashtbl.find_opt sc.params (Ident.unique_name x)
          | _ -> None
        in
        push passes (Names.to_string callee, l) (from, r)
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        Option.iter (fun callee -> List.iter (pass callee) args) (resolve p);
        List.iter (fun (_, a) -> Option.iter (it.Tast_iterator.expr it) a) args
    | Texp_ident (p, _, _) ->
        Option.iter (fun k -> push escapes (Names.to_string k) r) (resolve p)
    | Texp_let (_, vbs, body) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), Texp_ident (p, _, _) when Option.is_some (resolve p) ->
                Hashtbl.replace sc.values (Ident.unique_name id) (Option.get (resolve p))
            | _ -> it.value_binding it vb)
          vbs;
        it.expr it body
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.tree

type param = { export : export; label : string; label_loc : Location.t }

(** Sort every optional parameter of a [lib/] export by the readers
    that pass it, forwards followed to a fixpoint. *)
let classify_optional (l : Loader.loaded) =
  let passes = Hashtbl.create 1024 and escapes = Hashtbl.create 1024 in
  let values = Hashtbl.create 4096 and modules = Hashtbl.create 64 in
  List.iter
    (fun u ->
      collect_reads ~values ~modules u;
      collect_passes ~passes ~escapes u)
    l.units;
  let params =
    List.concat_map
      (fun e ->
        List.map (fun (label, label_loc) -> { export = e; label; label_loc }) e.optionals)
      (lib_exports l)
  in
  let id p = (Names.to_string p.export.key, p.label) in
  let known = Hashtbl.create 256 in
  List.iter (fun p -> Hashtbl.replace known (id p) ()) params;
  (* A forward of a known parameter is an edge; anything else passes. *)
  let readers = Hashtbl.create 256 and edges = Hashtbl.create 256 in
  List.iter
    (fun p ->
      let k = id p in
      let fwd, own =
        List.partition_map
          (fun (from, r) ->
            match from with
            | Some src when Hashtbl.mem known src -> Left src
            | _ -> Right r)
          (Option.value ~default:[] (Hashtbl.find_opt passes k))
      in
      Hashtbl.replace edges k fwd;
      Hashtbl.replace readers k
        (List.sort_uniq compare
           (own
           @ Option.value ~default:[] (Hashtbl.find_opt escapes (fst k))
           @ whole_readers modules p.export.key)))
    params;
  let rec settle () =
    let changed = ref false in
    List.iter
      (fun p ->
        let k = id p in
        let now = Hashtbl.find readers k in
        let next =
          List.sort_uniq compare
            (now @ List.concat_map (Hashtbl.find readers) (Hashtbl.find edges k))
        in
        if List.length next <> List.length now then (
          changed := true;
          Hashtbl.replace readers k next))
      params;
    if !changed then settle ()
  in
  settle ();
  List.map (fun p -> (p, cls_of (Hashtbl.find readers (id p)))) params

let check_optional l =
  List.filter_map
    (fun (p, cls) ->
      report ~rule:opt_rule ~file:p.export.file ~loc:p.label_loc cls
        ~name:(Printf.sprintf "%s ?%s" (Names.to_string p.export.key) p.label)
        ~test_only:
          (Printf.sprintf
             "%s is passed only by tests (%s): make its default a constant \
              and test through a shipped entry point, or keep it with a \
              reason in an allow comment")
        ~unread:(Printf.sprintf "%s is passed by no call: make its default a constant"))
    (classify_optional l)

(* ------------------------------------------------------------------ *)
(* field-reachability                                                  *)
(* ------------------------------------------------------------------ *)

(** The [field-reachability] rule (DESIGN.md §4.11): every field of a
    record type declared in a [lib/] interface, submodule signatures and
    [private] records included, is read somewhere in shipped code. A
    field read only by [test/] units, or by nobody, is a finding at its
    label.

    A read is a [Texp_field] of the field, a [Tpat_record] that names
    it, or a [Kept] label of [{ r with ... }] outside the declaring
    unit, which copies it out. Other reads in the declaring unit count,
    but its own [with] updates only carry a field along: a field they
    alone copy is unread. Construction and [r.l <- v] are no reads.
    A label is keyed by the path of its record type, the [lbl_res] the
    typer wrote: a path inside the declaring unit resolves through the
    unit's own type and submodule tables, any other through its alias
    table. *)

let field_rule = "field-reachability"

let field_doc =
  "every field of a record type in a lib/ interface is read in lib bin \
   bench examples; fields read only by tests or by nobody are flagged"

type field = {
  field : string list;  (** type key and label, e.g. [Wlan_sim; Runner; report; trace] *)
  field_file : string;
  field_loc : Location.t;
}

(** Every field of a record type of an interface. *)
let fields (i : Loader.intf_info) =
  sig_items
    (fun prefix -> function
      | Tsig_type (_, tds) ->
          List.concat_map
            (fun (td : Typedtree.type_declaration) ->
              match td.typ_kind with
              | Ttype_record lds ->
                  List.map
                    (fun (ld : Typedtree.label_declaration) ->
                      { field = prefix @ [ td.typ_name.txt; ld.ld_name.txt ];
                        field_file = i.source; field_loc = ld.ld_name.loc })
                    lds
              | _ -> [])
            tds
      | _ -> [])
    i

(* Field reads keyed by dotted type key and label. *)
let collect_field_reads reads (u : Loader.unit_info) =
  let sc = scope_of u in
  let r = { unit = u.modname; file = u.source; test = Loader.under "test" u } in
  (* the record type's key; [own] when the type is declared in [u] *)
  let key_of (lbl : Types.label_description) =
    let key : Path.t -> _ = function
      | Pident id -> Hashtbl.find_opt sc.types (Ident.unique_name id)
      | Pdot (m, t) -> Some (module_segs sc.local m @ [ t ])
      | _ -> None
    in
    match Types.get_desc lbl.lbl_res with
    | Tconstr (p, _, _) ->
        Option.map
          (fun k ->
            let own = List.filteri (fun i _ -> i < List.length u.modname) k in
            (k @ [ lbl.lbl_name ], own = u.modname))
          (key p)
    | _ -> None
  in
  let read ~copy lbl =
    Option.iter
      (fun (k, own) -> if not (copy && own) then push reads (Names.to_string k) r)
      (key_of lbl)
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_field (_, _, lbl) -> read ~copy:false lbl
    | Texp_record { fields; _ } ->
        Array.iter
          (function
            | lbl, Typedtree.Kept _ -> read ~copy:true lbl | _, Overridden _ -> ())
          fields
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fs, _) -> List.iter (fun (_, lbl, _) -> read ~copy:false lbl) fs
    | _ -> ());
    Tast_iterator.default_iterator.pat it p
  in
  let it = { Tast_iterator.default_iterator with expr; pat } in
  it.structure it u.tree

(** Sort every field of a [lib/] record type by its readers. *)
let classify_fields (l : Loader.loaded) =
  let reads = Hashtbl.create 4096 in
  List.iter (collect_field_reads reads) l.units;
  List.filter (Loader.under "lib") l.interfaces
  |> List.concat_map fields
  |> List.map (fun f ->
         ( f,
           cls_of
             (Option.value ~default:[]
                (Hashtbl.find_opt reads (Names.to_string f.field))) ))

let check_fields l =
  List.filter_map
    (fun (f, cls) ->
      report ~rule:field_rule ~file:f.field_file ~loc:f.field_loc
        ~name:(Names.to_string f.field) cls
        ~test_only:
          (Printf.sprintf
             "%s is read only by tests (%s): delete it and derive the value \
              in the test from what ships, or keep it with a reason in an \
              allow comment")
        ~unread:(Printf.sprintf "%s is never read: delete it with the code that computes it"))
    (classify_fields l)
