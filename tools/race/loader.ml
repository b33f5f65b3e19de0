(** Discovery and loading of [.cmt] and [.cmti] typedtrees.

    Roots are source directories ([lib bin bench examples test]); their
    compiled annotations live under dune's hidden [.<lib>.objs/byte]
    directories, so — unlike the source-walking linter — the walk
    descends into dot-directories. The build-order contract
    (tools/race/README.md): [.cmt] files are only as fresh as the last
    [dune build], which is why the [@race] alias depends on [@default].

    When invoked from the repository root (e.g. [dune exec
    tools/race/wlan_race.exe]) the walker transparently prefixes
    [_build/default]; when invoked from inside the build context (the
    [@race] alias) the roots are used as-is. *)

type 'tree compiled = {
  modname : string list;  (** canonical module segments, e.g. [Harness; Pool] *)
  source : string;  (** source path as compiled, e.g. lib/harness/pool.ml *)
  source_on_disk : string option;  (** resolved readable copy, if any *)
  tree : 'tree;
}

type unit_info = Typedtree.structure compiled
type intf_info = Typedtree.signature compiled

(** Whether a source sits in a directory named [dir] — [lib] for the
    interfaces whose exports are checked, [test] for units that are
    only read, never checked themselves. *)
let under dir (u : _ compiled) =
  List.mem dir (List.tl (List.rev (String.split_on_char '/' u.source)))

type error = { file : string; message : string }

(** [_build/default] prefix when running outside the build context. *)
let build_prefix () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default" then
    Some "_build/default"
  else None

let discover ?prefix roots =
  let prefix = match prefix with Some p -> p | None -> Option.value ~default:"" (build_prefix ()) in
  let in_build r = if prefix = "" then r else Filename.concat prefix r in
  let acc = ref [] in
  let rec walk path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort String.compare
      |> List.iter (fun entry -> walk (Filename.concat path entry))
    else if Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
    then acc := path :: !acc
  in
  List.iter (fun r -> let r = in_build r in if Sys.file_exists r then walk r) roots;
  List.rev !acc

(* The recorded path is relative to dune's build context, so it only
   resolves when the analyzer happens to run from the repository root
   (where dune keeps a source copy at the same relative path) or from
   the context itself. The third candidate derives the copy next to the
   .cmt: dune lays artifacts out at <dir>/.<lib>.objs/byte/M.cmt with
   the compiled source at <dir>/<base>, whatever the cwd. *)
let resolve_source ~builddir ~cmt_path source =
  let beside_cmt =
    Filename.concat
      (Filename.dirname (Filename.dirname (Filename.dirname cmt_path)))
      (Filename.basename source)
  in
  let candidates =
    [ source; Filename.concat builddir source; beside_cmt ]
  in
  List.find_opt Sys.file_exists candidates

type loaded = {
  units : unit_info list;
  interfaces : intf_info list;
  errors : error list;
}

let compiled path (infos : Cmt_format.cmt_infos) tree =
  let source =
    Option.value ~default:(Filename.basename path) infos.cmt_sourcefile
  in
  {
    modname = Names.segments_of_string infos.cmt_modname;
    source;
    source_on_disk =
      resolve_source ~builddir:infos.cmt_builddir ~cmt_path:path source;
    tree;
  }

(** Load every implementation and interface unit under [roots];
    deterministic order (sorted by source path). Units that fail to
    load are reported, not fatal: a stale or version-skewed [.cmt] must
    name itself. Partial implementations have nothing to scan. *)
let load ?prefix roots =
  let acc = { units = []; interfaces = []; errors = [] } in
  let acc =
    List.fold_left
      (fun acc path ->
        match Cmt_format.read_cmt path with
        | exception exn ->
            { acc with errors = { file = path; message = Printexc.to_string exn } :: acc.errors }
        | { cmt_annots = Implementation str; _ } as infos ->
            { acc with units = compiled path infos str :: acc.units }
        | { cmt_annots = Interface sg; _ } as infos ->
            { acc with interfaces = compiled path infos sg :: acc.interfaces }
        | _ -> acc)
      acc (discover ?prefix roots)
  in
  let by_source l =
    List.sort (fun a b -> compare (a.source, a.modname) (b.source, b.modname)) l
  in
  {
    units = by_source acc.units;
    interfaces = by_source acc.interfaces;
    errors = List.rev acc.errors;
  }
