(** Cross-module value summaries and the interprocedural fixpoint.

    For every top-level (and nested-module) binding of every loaded
    unit we record:

    {ul
    {- {e globals}: non-function bindings whose type sits in the
       mutable region of the lattice — the module-level shared state a
       pooled task must not reach;}
    {- {e summaries}: for function bindings, the set of other top-level
       values the body references, plus the {e direct facts} the body
       exhibits (self-seeded RNG, non-commutative counter-plane
       calls). A branch only the main domain runs ({!descend}) is left
       out.}}

    The fixpoint then propagates facts along the reference edges:
    [facts f = direct f ∪ {global g | g ∈ refs f} ∪ ⋃ {facts h | h ∈
    refs f}], keeping the shortest call chain per distinct fact for the
    diagnostics. Referencing an already-computed {e value} does not
    re-run its definition, so only function-typed bindings propagate —
    a counter cell created at module init does not drag the registry
    Hashtbl into every instrumented hot path. *)

type fact_kind =
  | Shared_mutable of string  (** kind text from the lattice *)
  | Rng_state
  | Self_init_rng of string  (** [Random.State.make_self_init] *)
  | Counter_misuse of string  (** non-commutative Counters entry point *)

type fact = {
  kind : fact_kind;
  origin : string;  (** canonical name of the global / offending call *)
  chain : string list;  (** call chain from the task boundary, outermost first *)
}

(* Distinct facts are keyed by (kind constructor, origin); the chain is
   payload, shortest wins. *)
let fact_key f =
  (match f.kind with
   | Shared_mutable _ -> "g"
   | Rng_state -> "r"
   | Self_init_rng _ -> "a"
   | Counter_misuse _ -> "c")
  ^ ":" ^ f.origin

type global = { g_kind : string; g_rng : bool }

type summary = { refs : string list list;  (** canonical referenced paths *)
                 direct : fact list }

type t = {
  globals : global Names.Table.t;
  summaries : summary Names.Table.t;
  mutable resolved : (string, fact list) Hashtbl.t option;
}

(* ------------------------------------------------------------------ *)
(* Pattern matching on canonical paths                                 *)
(* ------------------------------------------------------------------ *)

let commutative_counter_fns = [ "incr"; "add"; "record_max"; "name"; "enabled" ]

(** Counter-plane entry points that are not commutative aggregates:
    calling any of these from pooled code makes the result (or the
    registry) depend on scheduling. [make] mutates the shared registry;
    [value]/[snapshot] observe in-flight totals; [reset]/[set_enabled]
    are global control flips. *)
let counter_misuse segs =
  match Names.last2 segs with
  | Some ("Counters", fn) when not (List.mem fn commutative_counter_fns) ->
      Some (Names.to_string segs)
  | _ -> None

(** Seeding from the outside world: [Random.State.make_self_init]. A
    direct [Random.*] member is [no-ambient-rng]'s finding wherever it
    sits (see {!Rules}), so it is no fact here. *)
let self_init_rng segs =
  match List.rev segs with
  | "make_self_init" :: "State" :: "Random" :: _ ->
      Some "Random.State.make_self_init"
  | _ -> None

(* [Some true] when [c] is [Domain.is_main_domain ()], so an [if]'s
   [then] branch runs only on the main domain; [Some false] for its
   negation, whose [else] branch does. *)
let rec main_domain_test (c : Typedtree.expression) =
  match c.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, [ (_, Some arg) ]) -> (
      match Names.canon_of_path p with
      | [ "Domain"; "is_main_domain" ] -> Some true
      | [ "not" ] -> Option.map not (main_domain_test arg)
      | _ -> None)
  | _ -> None

(** Walk [e]'s children as a worker domain can run them: the branch of
    an [if Domain.is_main_domain () ...] guard (or of its negation) that
    only the main domain takes is skipped. [Wlan_obs.Span.with_span] is
    the shape: off the main domain it runs its body bare, so its writes
    to the span stack never reach a pooled task. *)
let descend (it : Tast_iterator.iterator) (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ifthenelse (c, _, el) when main_domain_test c = Some true ->
      it.expr it c;
      Option.iter (it.expr it) el
  | Texp_ifthenelse (c, th, _) when main_domain_test c = Some false ->
      it.expr it c;
      it.expr it th
  | _ -> Tast_iterator.default_iterator.expr it e

(* ------------------------------------------------------------------ *)
(* Collection                                                          *)
(* ------------------------------------------------------------------ *)

(* All canonical paths referenced from an expression: Pdot paths as
   written, plus Pident references resolved through [locals] (the
   enclosing unit's top-level bindings, keyed by ident unique name). *)
let scan_body ~locals (e : Typedtree.expression) =
  let refs = ref [] and direct = ref [] in
  let add_ref segs = if segs <> [] then refs := segs :: !refs in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (path, _, _) -> (
        let segs = Names.canon_of_path path in
        (match path with
        | Path.Pident id -> (
            match Hashtbl.find_opt locals (Ident.unique_name id) with
            | Some key -> add_ref key
            | None -> ())
        | _ -> add_ref segs);
        (match self_init_rng segs with
        | Some fn ->
            direct := { kind = Self_init_rng fn; origin = fn; chain = [] } :: !direct
        | None -> ());
        match counter_misuse segs with
        | Some fn ->
            direct :=
              { kind = Counter_misuse fn; origin = fn; chain = [] } :: !direct
        | None -> ())
    | _ -> ());
    descend it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it e;
  (!refs, !direct)

(* The single ident a top-level binding defines. A type-constrained
   binding ([let store : t = ...]) does not elaborate to a bare
   [Tpat_var], so match the alias shape too; the pattern's own type
   carries the constraint. *)
let binder_of_pat (p : Typedtree.pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

let is_function_type ty =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tpoly (t, _) -> (
      match Types.get_desc t with Tarrow _ -> true | _ -> false)
  | _ -> false

(** One unit's top-level idents, so intra-module references (which are
    [Pident]s) resolve to their canonical keys. *)
let unit_locals (u : Loader.unit_info) =
  let locals = Hashtbl.create 64 in
  let rec walk_items path_rev items =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match binder_of_pat vb.vb_pat with
                | Some id ->
                    Hashtbl.replace locals
                      (Ident.unique_name id)
                      (List.rev (Ident.name id :: path_rev))
                | None -> ())
              vbs
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
    | Some id -> (
        let rec strip (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_constraint (me, _, _, _) -> strip me
          | d -> d
        in
        match strip mb.mb_expr with
        | Tmod_structure str ->
            walk_items (Ident.name id :: path_rev) str.str_items
        | _ -> ())
  in
  walk_items (List.rev u.modname) u.tree.str_items;
  locals

let collect_unit ~decls t (u : Loader.unit_info) =
  let locals = unit_locals u in
  let rec walk_items path_rev items =
    List.iter
      (fun (si : Typedtree.structure_item) ->
        match si.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match binder_of_pat vb.vb_pat with
                | Some id -> (
                    let key = List.rev (Ident.name id :: path_rev) in
                    let ty = vb.vb_pat.pat_type in
                    if is_function_type ty then begin
                      let refs, direct = scan_body ~locals vb.vb_expr in
                      Names.Table.add t.summaries key { refs; direct }
                    end
                    else
                      match
                        Lattice.of_type ~self:(List.rev path_rev) ~decls ty
                      with
                      | Lattice.Mut { kind; _ } ->
                          Names.Table.add t.globals key
                            { g_kind = kind; g_rng = false }
                      | Lattice.Rng _ ->
                          Names.Table.add t.globals key
                            { g_kind = "Random.State"; g_rng = true }
                      | Lattice.Immutable | Lattice.Safe -> ())
                | _ -> ())
              vbs
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
    | Some id -> (
        let rec strip (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_constraint (me, _, _, _) -> strip me
          | d -> d
        in
        match strip mb.mb_expr with
        | Tmod_structure str ->
            walk_items (Ident.name id :: path_rev) str.str_items
        | _ -> ())
  in
  walk_items (List.rev u.modname) u.tree.str_items

let collect ~decls units =
  let t =
    { globals = Names.Table.create ();
      summaries = Names.Table.create ();
      resolved = None }
  in
  List.iter (collect_unit ~decls t) units;
  t

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let merge_facts into fs =
  List.fold_left
    (fun (acc, changed) f ->
      let k = fact_key f in
      match List.assoc_opt k acc with
      | Some old when List.length old.chain <= List.length f.chain ->
          (acc, changed)
      | _ -> ((k, f) :: List.remove_assoc k acc, true))
    (into, false) fs

(* An edge of the reference graph, pre-resolved so the fixpoint loop is
   a plain union over stable keys. *)
type edge =
  | To_global of string * global  (** full key of the referenced global *)
  | To_fn of string  (** full key of the referenced summary *)

let resolve t =
  match t.resolved with
  | Some r -> r
  | None ->
      let edges : (string, edge list) Hashtbl.t = Hashtbl.create 256 in
      let state : (string, (string * fact) list) Hashtbl.t =
        Hashtbl.create 256
      in
      Names.Table.iter
        (fun key (s : summary) ->
          let es =
            List.filter_map
              (fun r ->
                match Names.Table.find_key t.globals r with
                | Some (gk, g) -> Some (To_global (gk, g))
                | None -> (
                    match Names.Table.find_key t.summaries r with
                    | Some (fk, _) when fk <> key -> Some (To_fn fk)
                    | _ -> None))
              s.refs
            |> List.sort_uniq compare
          in
          Hashtbl.replace edges key es;
          Hashtbl.replace state key
            (fst
               (merge_facts []
                  (List.map (fun f -> { f with chain = [] }) s.direct))))
        t.summaries;
      let changed = ref true and rounds = ref 0 in
      while !changed && !rounds < 100 do
        changed := false;
        incr rounds;
        Hashtbl.iter
          (fun key es ->
            let cur = Hashtbl.find state key in
            let incoming =
              List.concat_map
                (function
                  | To_global (gk, g) ->
                      [ { kind =
                            (if g.g_rng then Rng_state
                             else Shared_mutable g.g_kind);
                          origin = gk;
                          chain = [] } ]
                  | To_fn fk ->
                      List.map
                        (fun (_, f) -> { f with chain = fk :: f.chain })
                        (Hashtbl.find state fk))
                es
            in
            let merged, did = merge_facts cur incoming in
            if did then begin
              Hashtbl.replace state key merged;
              changed := true
            end)
          edges
      done;
      let out = Hashtbl.create 256 in
      Hashtbl.iter (fun k fs -> Hashtbl.replace out k (List.map snd fs)) state;
      t.resolved <- Some out;
      out

(** Transitive facts of the value a task references, or [[]]. *)
let facts_of t segs =
  let resolved = resolve t in
  match Names.Table.find_key t.summaries segs with
  | None -> []
  | Some (key, _) ->
      Option.value ~default:[] (Hashtbl.find_opt resolved key)

let global_of t segs = Names.Table.find_key t.globals segs
