(** Orchestration: load [.cmt]/[.cmti] units, build the lattice and
    summaries over the {e whole} shipped tree, run the per-unit checks
    and the export-reachability rule, then filter through the shared
    suppression machinery by re-parsing each source file with
    [Analysis_common.Source] — the same attribute and comment parser
    wlan-lint uses, so one escape-hatch language serves both tools.

    Units under a [test/] directory are readers only: they count for
    export reachability, and the four domain-safety rules skip them. *)

open Analysis_common

type error = { file : string; message : string }

type result = {
  units : int;
  diagnostics : Diagnostic.t list;
  errors : error list;
}

let default_roots = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let all_rules = Checks.all_rules @ [ (Reach.rule, Reach.doc) ]
let rule_ids = List.map fst all_rules
let find_rule id = List.find_opt (( = ) id) rule_ids

(* Suppression state of one source file, cached across the (typically
   several) diagnostics pointing into it. *)
let suppressions_for source_on_disk source =
  match source_on_disk with
  | None -> ([], [])
  | Some path -> (
      match Source.read_file path with
      | exception _ -> ([], [])
      | src -> (
          match Source.suppressions ~path:source src with
          | Ok (spans, directives) -> (spans, directives)
          | Error directives -> ([], directives)))

let run ?(rules = rule_ids) ?prefix roots =
  let loaded = Loader.load ?prefix roots in
  let shipped = List.filter (fun u -> not (Loader.under "test" u)) loaded.units in
  let decls = Lattice.collect shipped in
  let sums = Summaries.collect ~decls shipped in
  let on_disk = Hashtbl.create 256 in
  let note (u : _ Loader.compiled) =
    Hashtbl.replace on_disk u.source u.source_on_disk
  in
  List.iter note loaded.units;
  List.iter note loaded.interfaces;
  let domain = List.concat_map (Checks.check_unit ~decls ~sums) shipped in
  let reach = if List.mem Reach.rule rules then Reach.check loaded else [] in
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
  let diagnostics =
    List.filter (fun (d : Diagnostic.t) -> List.mem d.rule rules) (domain @ reach)
    (* several capture paths can land on one (rule, site) pair; report
       each once *)
    |> List.sort_uniq Diagnostic.compare
    |> List.filter kept
  in
  {
    units = List.length loaded.units + List.length loaded.interfaces;
    diagnostics;
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
