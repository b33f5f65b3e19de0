(** The four domain-safety rules (DESIGN.md §4.11), run over one unit's
    typedtree with the whole-tree lattice and summaries in hand.

    Task boundaries — the expressions whose argument closures execute
    on other domains — are:

    {ul
    {- applications of [Harness.Pool.run]/[Pool.submit] and
       [Domain.spawn];}
    {- applications of a parameter literally named [fanout] — the
       repo-wide convention for injectable grid/shard fan-out
       ([Scg.reuse_grid] under the B* grid driver, [Shard.solve],
       [Shard.solve_mnu]); the {e caller}-side
       [~fanout:...] argument is not a boundary (it runs on the
       submitting domain).}}

    Inside a boundary's arguments, every function literal is analyzed
    for its free variables (exact, by ident identity: a variable is free
    iff its binder lies outside the literal), and every reference to a
    known top-level value pulls that value's transitive facts from the
    summaries — the interprocedural escape: a task that calls
    [M.f] which calls [N.g] which touches a mutable global is flagged
    with the full chain. *)

open Summaries

let rule_escape = "shared-mutable-escape"
let rule_counter = "non-commutative-counter"
let rule_rng = "ambient-rng-in-task"
let rule_merge = "order-sensitive-merge"

let all_rules =
  [
    ( rule_escape,
      "no non-Atomic mutable state (local capture or module global, \
       directly or via calls) may reach a pooled task" );
    ( rule_counter,
      "pooled code may only touch Wlan_obs.Counters through the \
       commutative incr/add/record_max API" );
    ( rule_rng,
      "RNG reaching a pooled task must be a split per-task state, not \
       Random.State.make_self_init or a captured shared Random.State" );
    ( rule_merge,
      "float accumulation must not run in unspecified (Hashtbl bucket) \
       or completion order; merge in submission order" );
  ]

type ctx = {
  decls : Lattice.decls;
  sums : Summaries.t;
  self : string list;  (** the unit's canonical module path *)
  source : string;
  add : Diagnostic.t -> unit;
  locals : (string, string list) Hashtbl.t;
      (** unit top-level idents -> canonical key (see Summaries) *)
}

let diag ctx ~rule ~(loc : Location.t) ~(fallback : Location.t) fmt =
  let loc = if loc.loc_start.pos_cnum < 0 then fallback else loc in
  Format.kasprintf
    (fun m ->
      ctx.add (Diagnostic.make ~rule ~file:ctx.source ~loc m))
    fmt

let pp_chain = function
  | [] -> ""
  | chain -> Printf.sprintf " (via %s)" (String.concat " -> " chain)

(* ------------------------------------------------------------------ *)
(* Syntactic helpers over the typedtree                                *)
(* ------------------------------------------------------------------ *)

let ident_segs (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (p, Names.canon_of_path p)
  | _ -> None

(* Canonical segments of an applied function, [None] for non-idents. *)
let applied_fn (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
      match ident_segs f with
      | Some (p, segs) -> Some (p, segs, args)
      | None -> None)
  | _ -> None

let is_task_boundary (p : Path.t) segs =
  match Names.last2 segs with
  | Some ("Pool", ("run" | "submit")) -> true
  | Some ("Domain", "spawn") -> true
  | _ -> ( match p with Path.Pident id -> Ident.name id = "fanout" | _ -> false)

(* Mutator entry points: applying one of these with a free variable as
   the first unlabelled argument is a write to the capture. *)
let mutators =
  [
    ("Array", [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "stable_sort"; "fast_sort" ]);
    ("Hashtbl", [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit" ]);
    ("Buffer", [ "add_string"; "add_char"; "add_bytes"; "add_subbytes";
                 "add_substring"; "clear"; "reset"; "truncate" ]);
    ("Queue", [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Sparse", [ "set_rate" ]);  (* the repo's CSR rate store *)
  ]

let is_mutator segs =
  match Names.last2 segs with
  | Some (m, fn) -> (
      match List.assoc_opt m mutators with
      | Some fns -> List.mem fn fns
      | None -> false)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Free variables of a function literal                                *)
(* ------------------------------------------------------------------ *)

type use = {
  u_id : Ident.t;
  u_loc : Location.t;
  u_type : Types.type_expr;
}

(** [free_uses lit] — every use of an ident whose binder is outside the
    literal, plus the set of free idents written through (and whether
    any write stores a float). Exact up to aliasing: binders are
    compared by unique name. *)
let free_uses (lit : Typedtree.expression) =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let note_pat : type k. k Typedtree.general_pattern -> unit =
   fun p ->
    List.iter
      (fun id -> Hashtbl.replace bound (Ident.unique_name id) ())
      (Typedtree.pat_bound_idents p)
  in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit
      =
   fun it p ->
    note_pat p;
    Tast_iterator.default_iterator.pat it p
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_for (id, _, _, _, _, _) -> Hashtbl.replace bound (Ident.unique_name id) ()
    | Texp_function { param; _ } -> Hashtbl.replace bound (Ident.unique_name param) ()
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let collect_bound =
    { Tast_iterator.default_iterator with pat; expr }
  in
  collect_bound.expr collect_bound lit;
  let uses = ref [] in
  let writes : (string, bool * Location.t) Hashtbl.t = Hashtbl.create 8 in
  let note_write id ~float_w ~loc =
    if not (Hashtbl.mem bound (Ident.unique_name id)) then
      match Hashtbl.find_opt writes (Ident.unique_name id) with
      | Some (true, _) -> ()
      | _ -> Hashtbl.replace writes (Ident.unique_name id) (float_w, loc)
  in
  let first_unlabelled args =
    List.find_map
      (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
      args
  in
  let expr it (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        if not (Hashtbl.mem bound (Ident.unique_name id)) then
          uses := { u_id = id; u_loc = e.exp_loc; u_type = e.exp_type } :: !uses
    | Texp_setfield (tgt, _, _, v) -> (
        match tgt.exp_desc with
        | Texp_ident (Path.Pident id, _, _) ->
            note_write id ~float_w:(Lattice.is_float v.exp_type) ~loc:e.exp_loc
        | _ -> ())
    | Texp_apply (f, args) -> (
        match ident_segs f with
        | Some (_, [ ":=" ]) -> (
            match args with
            | (_, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ })
              :: rest ->
                let float_w =
                  match rest with
                  | [ (_, Some rhs) ] -> Lattice.is_float rhs.exp_type
                  | _ -> false
                in
                note_write id ~float_w ~loc:e.exp_loc
            | _ -> ())
        | Some (_, segs) when is_mutator segs -> (
            match first_unlabelled args with
            | Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ } ->
                note_write id ~float_w:false ~loc:e.exp_loc
            | _ -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let collect_uses = { Tast_iterator.default_iterator with expr } in
  collect_uses.expr collect_uses lit;
  (List.rev !uses, writes)

(* ------------------------------------------------------------------ *)
(* Task-boundary analysis                                              *)
(* ------------------------------------------------------------------ *)

let report_fact ctx ~site ~loc ~prefix (f : fact) =
  match f.kind with
  | Shared_mutable kind ->
      diag ctx ~rule:rule_escape ~loc ~fallback:site
        "%s reaches shared mutable state %s (%s)%s: worker domains would \
         race on it; make it Atomic, pre-split it per task, or suppress \
         with a written disjointness argument"
        prefix f.origin kind (pp_chain f.chain)
  | Rng_state ->
      diag ctx ~rule:rule_rng ~loc ~fallback:site
        "%s reaches shared RNG state %s%s: draws depend on domain \
         interleaving; split a per-task Random.State from the master seed \
         instead"
        prefix f.origin (pp_chain f.chain)
  | Self_init_rng _ ->
      diag ctx ~rule:rule_rng ~loc ~fallback:site
        "%s calls %s%s: it seeds from the outside world, so draws differ \
         on every run; split a per-task Random.State from the master seed"
        prefix f.origin (pp_chain f.chain)
  | Counter_misuse _ ->
      diag ctx ~rule:rule_counter ~loc ~fallback:site
        "%s calls %s%s, which is not one of the commutative counter \
         aggregates (incr/add/record_max): totals would depend on \
         scheduling; move it to the submitting domain"
        prefix f.origin (pp_chain f.chain)

(* Analyze one argument expression of a task boundary. *)
let check_task_arg ctx ~(site : Location.t) (arg : Typedtree.expression) =
  (* 1. transitive facts of every referenced top-level value, and direct
        references to module globals, anywhere in the argument *)
  let seen_fact = Hashtbl.create 16 in
  let fact_once key f = not (Hashtbl.mem seen_fact (key, fact_key f)) && (Hashtbl.replace seen_fact (key, fact_key f) (); true) in
  let scan_refs it (e : Typedtree.expression) =
    (match ident_segs e with
    | Some (p, segs) -> (
        let resolved_local =
          match p with
          | Path.Pident id ->
              Hashtbl.find_opt ctx.locals (Ident.unique_name id)
          | _ -> None
        in
        let segs = Option.value ~default:segs resolved_local in
        (* the counter plane is the audited exception: its API is judged
           here by name (commutative vs not) and its internals — the
           mutex-guarded registry — are deliberately not traversed *)
        if (match Names.last2 segs with Some ("Counters", _) -> true | _ -> false)
        then (
          match counter_misuse segs with
          | Some fn ->
              let f = { kind = Counter_misuse fn; origin = fn; chain = [] } in
              if fact_once "c" f then
                report_fact ctx ~site ~loc:e.exp_loc ~prefix:"pooled task" f
          | None -> ())
        else begin
          (match self_init_rng segs with
          | Some fn ->
              let f = { kind = Self_init_rng fn; origin = fn; chain = [] } in
              if fact_once "a" f then
                report_fact ctx ~site ~loc:e.exp_loc ~prefix:"pooled task" f
          | None -> ());
          (match Summaries.global_of ctx.sums segs with
          | Some (gk, g) ->
              let f =
                { kind =
                    (if g.g_rng then Rng_state else Shared_mutable g.g_kind);
                  origin = gk;
                  chain = [] }
              in
              if fact_once "g" f then
                report_fact ctx ~site ~loc:e.exp_loc
                  ~prefix:"pooled task" f
          | None -> ());
          List.iter
            (fun f ->
              if fact_once (Names.to_string segs) f then
                report_fact ctx ~site ~loc:e.exp_loc
                  ~prefix:(Printf.sprintf "pooled task calling %s"
                             (Names.to_string segs))
                  f)
            (Summaries.facts_of ctx.sums segs)
        end)
    | None -> ());
    descend it e
  in
  let it = { Tast_iterator.default_iterator with expr = scan_refs } in
  it.expr it arg;
  (* 2. free-variable analysis of every outermost function literal *)
  let literals = ref [] in
  let expr it (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function _ -> literals := e :: !literals
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it arg;
  List.iter
    (fun (lit : Typedtree.expression) ->
      let uses, writes = free_uses lit in
      let reported = Hashtbl.create 8 in
      List.iter
        (fun u ->
          let uname = Ident.unique_name u.u_id in
          if not (Hashtbl.mem reported uname) then begin
            Hashtbl.replace reported uname ();
            let name = Ident.name u.u_id in
            let is_local_capture = not (Hashtbl.mem ctx.locals uname) in
            (* module-level idents were handled by the reference scan *)
            if is_local_capture then begin
              let written = Hashtbl.find_opt writes uname in
              (match
                 Lattice.of_type ~self:ctx.self ~decls:ctx.decls u.u_type
               with
              | Lattice.Mut { kind; strong } ->
                  if strong || written <> None then
                    diag ctx ~rule:rule_escape ~loc:u.u_loc ~fallback:site
                      "pooled task captures enclosing %s '%s'%s: worker \
                       domains would share unsynchronised mutable state; \
                       use Atomic, pre-split per task, or suppress with a \
                       written disjointness argument"
                      kind name
                      (if written <> None then " and writes to it" else "")
              | Lattice.Rng _ ->
                  diag ctx ~rule:rule_rng ~loc:u.u_loc ~fallback:site
                    "pooled task captures shared Random.State '%s': draws \
                     depend on domain interleaving; split a per-task state \
                     from the master seed"
                    name
              | Lattice.Immutable | Lattice.Safe -> ());
              match written with
              | Some (true, wloc) ->
                  diag ctx ~rule:rule_merge ~loc:wloc ~fallback:site
                    "pooled task accumulates a float into captured '%s': \
                     merge order becomes completion order; return the \
                     partial and fold over Pool.run's submission-order \
                     results instead"
                    name
              | _ -> ()
            end
          end)
        uses)
    !literals

(* ------------------------------------------------------------------ *)
(* Whole-unit check                                                    *)
(* ------------------------------------------------------------------ *)

let unordered_float_merge ctx (e : Typedtree.expression) =
  match applied_fn e with
  | Some (_, segs, args) -> (
      match Names.last2 segs with
      | Some ("Hashtbl", "fold") when Lattice.is_float e.exp_type ->
          diag ctx ~rule:rule_merge ~loc:e.exp_loc ~fallback:e.exp_loc
            "Hashtbl.fold accumulates a float in unspecified bucket order: \
             summation order (and thus the result bits) depends on \
             insertion history; sort the bindings and fold the sorted list"
      | Some (("List" | "Array" | "Seq"), "fold_left")
        when Lattice.is_float e.exp_type ->
          (* flag only when the folded data demonstrably comes out of a
             Hashtbl in bucket order *)
          let from_hashtbl = ref false in
          let expr it (a : Typedtree.expression) =
            (match ident_segs a with
            | Some (_, segs) -> (
                match Names.last2 segs with
                | Some ("Hashtbl", ("fold" | "to_seq" | "to_seq_keys" | "to_seq_values")) ->
                    from_hashtbl := true
                | _ -> ())
            | None -> ());
            Tast_iterator.default_iterator.expr it a
          in
          let it = { Tast_iterator.default_iterator with expr } in
          List.iter (fun (_, a) -> Option.iter (it.expr it) a) args;
          if !from_hashtbl then
            diag ctx ~rule:rule_merge ~loc:e.exp_loc ~fallback:e.exp_loc
              "float fold over Hashtbl-ordered data: summation runs in \
               unspecified bucket order; sort before folding"
      | _ -> ())
  | None -> ()

let check_unit ~decls ~sums (u : Loader.unit_info) =
  let diags = ref [] in
  let ctx =
    {
      decls;
      sums;
      self = u.modname;
      source = u.source;
      add = (fun d -> diags := d :: !diags);
      locals = Summaries.unit_locals u;
    }
  in
  let expr it (e : Typedtree.expression) =
    unordered_float_merge ctx e;
    (match e.exp_desc with
    | Texp_apply (f, args) -> (
        match ident_segs f with
        | Some (p, segs) when is_task_boundary p segs ->
            List.iter
              (fun ((_ : Asttypes.arg_label), a) ->
                Option.iter (check_task_arg ctx ~site:e.exp_loc) a)
              args
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  it.structure it u.tree;
  !diags
