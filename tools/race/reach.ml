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
}

type reader = { unit : string list; file : string; test : bool }
type cls = Shipped | Test_only of string list | Unread

(** Every [val] of an interface, submodule signatures included. *)
let exports (i : Loader.intf_info) =
  let rec items prefix (sg : Typedtree.signature) =
    List.concat_map
      (fun (si : Typedtree.signature_item) ->
        match si.sig_desc with
        | Tsig_value vd ->
            [ { key = prefix @ [ vd.val_name.txt ]; owner = i.modname;
                file = i.source; loc = vd.val_loc } ]
        | Tsig_module { md_name = { txt = Some m; _ };
                        md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
            items (prefix @ [ m ]) sg
        | _ -> [])
      sg.sig_items
  in
  items i.modname i.tree

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

(* Value reads keyed by dotted name; whole-module reads by module path. *)
let collect_reads ~values ~modules (u : Loader.unit_info) =
  let local = aliases_of u in
  let r = { unit = u.modname; file = u.source; test = Loader.under "test" u } in
  let push tbl key = Hashtbl.replace tbl key (r :: Option.value ~default:[] (Hashtbl.find_opt tbl key)) in
  let whole me =
    match strip me with
    | Tmod_ident (p, _) -> push modules (Names.to_string (module_segs local p))
    | _ -> ()
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Pdot (m, v), _, _) ->
        push values (Names.to_string (module_segs local m @ [ v ]))
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

(** Sort every export of a [lib/] interface by its readers outside its
    own unit. *)
let classify (l : Loader.loaded) =
  let values = Hashtbl.create 4096 and modules = Hashtbl.create 64 in
  List.iter (collect_reads ~values ~modules) l.units;
  let readers_of e =
    let rec prefixes rev_pre = function
      | [] | [ _ ] -> []
      | m :: rest ->
          let pre = List.rev (m :: rev_pre) in
          Option.value ~default:[] (Hashtbl.find_opt modules (Names.to_string pre))
          @ prefixes (m :: rev_pre) rest
    in
    Option.value ~default:[] (Hashtbl.find_opt values (Names.to_string e.key))
    @ prefixes [] e.key
    |> List.filter (fun r -> r.unit <> e.owner)
  in
  List.filter (Loader.under "lib") l.interfaces
  |> List.concat_map exports
  |> List.map (fun e ->
         let rs = readers_of e in
         let cls =
           if List.exists (fun r -> not r.test) rs then Shipped
           else if rs <> [] then
             Test_only (List.sort_uniq String.compare (List.map (fun r -> r.file) rs))
           else Unread
         in
         (e, cls))

let check l =
  List.filter_map
    (fun (e, cls) ->
      let name = Names.to_string e.key in
      let finding fmt =
        Format.kasprintf
          (fun m -> Some (Diagnostic.make ~rule ~file:e.file ~loc:e.loc m))
          fmt
      in
      match cls with
      | Shipped -> None
      | Test_only files ->
          finding
            "%s is read only by tests (%s): delete it with its test, move \
             it into test/, or keep it with a reason in an allow comment"
            name (String.concat ", " files)
      | Unread ->
          finding
            "%s has no reader outside its own module: drop it from the \
             interface, and from the implementation if unused there"
            name)
    (classify l)
