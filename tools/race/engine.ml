(** Orchestration: load [.cmt]/[.cmti] units, build the lattice and
    summaries over the {e whole} shipped tree, run the per-unit rules
    and the three reachability rules, then filter through the
    suppression language by re-parsing each source file a finding
    points into ({!Suppress.of_source}).

    Units under a [test/] directory are readers only: they count for
    the reachability rules, and every other rule skips them. *)

type error = { file : string; message : string }

type result = {
  units : int;
  diagnostics : Diagnostic.t list;
  errors : error list;
}

let default_roots = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let all_rules =
  Rules.all_rules @ Checks.all_rules
  @ [ (Reach.rule, Reach.doc); (Reach.opt_rule, Reach.opt_doc);
      (Reach.field_rule, Reach.field_doc) ]
let rule_ids = List.map fst all_rules
let find_rule id = List.find_opt (( = ) id) rule_ids

(** Every per-unit finding of [u]: the tree-wide rules and the
    domain-safety rules. *)
let check_unit ~decls ~sums u =
  Rules.check_unit u @ Checks.check_unit ~decls ~sums u

(** The findings of [rules] over [loaded], before suppression. Several
    capture paths can land on one (rule, site) pair; each is reported
    once. *)
let analyze ?(rules = rule_ids) (loaded : Loader.loaded) =
  let shipped = List.filter (fun u -> not (Loader.under "test" u)) loaded.units in
  let decls = Lattice.collect shipped in
  let sums = Summaries.collect ~decls shipped in
  let per_unit = List.concat_map (check_unit ~decls ~sums) shipped in
  let reach = if List.mem Reach.rule rules then Reach.check loaded else [] in
  let optional =
    if List.mem Reach.opt_rule rules then Reach.check_optional loaded else []
  in
  let fields =
    if List.mem Reach.field_rule rules then Reach.check_fields loaded else []
  in
  List.filter (fun (d : Diagnostic.t) -> List.mem d.rule rules)
    (per_unit @ reach @ optional @ fields)
  |> List.sort_uniq Diagnostic.compare

(* Suppression state of one source file: none when it cannot be read. *)
let suppressions_for source_on_disk source =
  match source_on_disk with
  | None -> ([], [])
  | Some path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | src -> Suppress.of_source ~path:source src
      | exception Sys_error _ -> ([], []))

let run ?rules ?prefix roots =
  let loaded = Loader.load ?prefix roots in
  let on_disk = Hashtbl.create 256 in
  let note (u : _ Loader.compiled) =
    Hashtbl.replace on_disk u.source u.source_on_disk
  in
  List.iter note loaded.units;
  List.iter note loaded.interfaces;
  (* cached across the (typically several) findings in one file *)
  let suppressions = Hashtbl.create 64 in
  let kept (d : Diagnostic.t) =
    let spans, directives =
      match Hashtbl.find_opt suppressions d.file with
      | Some s -> s
      | None ->
          let s =
            suppressions_for (Option.join (Hashtbl.find_opt on_disk d.file)) d.file
          in
          Hashtbl.add suppressions d.file s;
          s
    in
    not (Suppress.allowed ~spans ~directives d)
  in
  {
    units = List.length loaded.units + List.length loaded.interfaces;
    diagnostics = List.filter kept (analyze ?rules loaded);
    errors =
      List.map
        (fun (e : Loader.error) -> { file = e.file; message = e.message })
        loaded.errors;
  }

(** The [--format json] rendering: one array of findings. *)
let to_json diags =
  "["
  ^ String.concat "," (List.map (Format.asprintf "%a" Diagnostic.pp_json) diags)
  ^ "]"
