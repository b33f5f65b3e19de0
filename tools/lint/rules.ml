(** The repo-specific invariant rules (DESIGN.md §4.6).

    Every rule is a purely syntactic pass over one file's parsetree —
    no typing environment is needed, which keeps the linter fast and
    dependency-free, at the price of being a heuristic: each rule
    documents exactly what it matches so false positives can be judged
    (and silenced with [[@lint.allow ...]]) consciously. *)

open Parsetree
open Analysis_common

type ctx = {
  path : string;  (** path as reported in diagnostics *)
  in_lib : bool;  (** path has a [lib] component: library hygiene applies *)
  print_exempt : bool;  (** the designated reporting modules may print *)
}

type t = {
  id : string;
  doc : string;
  check : ctx -> structure -> Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Shared syntactic helpers                                            *)
(* ------------------------------------------------------------------ *)

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

(* The dotted path of an identifier expression, [Stdlib.] prefix erased,
   or [None] for anything that is not a plain identifier. *)
let ident_path (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (Longident.flatten txt))
  | _ -> None

let diag ctx ~rule ~loc fmt =
  Format.kasprintf (fun m -> Diagnostic.make ~rule ~file:ctx.path ~loc m) fmt

(* Does [e] contain a list cons constructor anywhere? Used to recognise
   fold bodies that build lists. *)
let contains_cons e =
  let found = ref false in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

(* Does [e] contain [r := ... :: ...] — a list accumulated through a
   captured ref? *)
let contains_ref_cons e =
  let found = ref false in
  let expr it (e : expression) =
    (match e.pexp_desc with
    | Pexp_apply (f, [ _; (_, rhs) ]) when ident_path f = Some [ ":=" ] ->
        if contains_cons rhs then found := true
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e;
  !found

let is_function_literal (e : expression) =
  match e.pexp_desc with Pexp_fun _ | Pexp_function _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* R1: no-ambient-rng                                                  *)
(* ------------------------------------------------------------------ *)

(* Any direct member of [Random] (Random.int, Random.float,
   Random.self_init, Random.get_state, ...) taps or perturbs the ambient
   stream; only the split-state [Random.State] API is deterministic
   under the Harness.Pool domain fan-out. [Random.State.*] flattens to a
   three-segment path and is therefore never matched here. *)
let no_ambient_rng =
  let check ctx str =
    let diags = ref [] in
    let expr it (e : expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match strip_stdlib (Longident.flatten txt) with
          | [ "Random"; fn ] ->
              diags :=
                diag ctx ~rule:"no-ambient-rng" ~loc
                  "ambient Random.%s taps the shared RNG stream and breaks \
                   byte-identical output across --jobs values; draw from a \
                   split Random.State (see Scenario_gen.scenario_rng)"
                  fn
                :: !diags
          | _ -> ())
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it str;
    !diags
  in
  {
    id = "no-ambient-rng";
    doc =
      "forbid Random.int/float/... outside Random.State (determinism under \
       --jobs N)";
    check;
  }

(* ------------------------------------------------------------------ *)
(* R2: float-eq                                                        *)
(* ------------------------------------------------------------------ *)

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float" ]

let float_unops = [ "~-."; "~+." ]
let float_binops = [ "+."; "-."; "*."; "/."; "**" ]

let float_fns =
  [
    "float_of_int"; "float_of_string"; "sqrt"; "exp"; "expm1"; "log"; "log10";
    "log1p"; "ceil"; "floor"; "abs_float"; "mod_float"; "copysign"; "atan";
    "atan2"; "cos"; "sin"; "tan"; "acos"; "asin"; "cosh"; "sinh"; "tanh";
    "hypot"; "ldexp";
  ]

let float_module_fns =
  [
    "of_int"; "of_string"; "abs"; "neg"; "add"; "sub"; "mul"; "div"; "pow";
    "fma"; "rem"; "sqrt"; "cbrt"; "exp"; "log"; "max"; "min"; "max_num";
    "min_num"; "round"; "trunc"; "succ"; "pred";
  ]

(* Is [e] syntactically a float? Literals, the named float constants,
   float arithmetic, well-known float-returning calls, an explicit
   [(... : float)] constraint — and conditionals whose branches are. *)
let rec is_floaty (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> (
      match strip_stdlib (Longident.flatten txt) with
      | [ c ] -> List.mem c float_consts
      | [ "Float"; c ] ->
          List.mem c
            [ "infinity"; "neg_infinity"; "nan"; "pi"; "epsilon"; "max_float";
              "min_float" ]
      | _ -> false)
  | Pexp_apply (f, args) -> (
      match ident_path f with
      | Some [ op ] when List.mem op float_binops || List.mem op float_unops ->
          true
      | Some [ fn ] when List.mem fn float_fns -> true
      | Some [ "Float"; fn ] when List.mem fn float_module_fns -> true
      | _ -> (
          (* [(-.) x] style sections still apply the float operator *)
          match args with _ -> false))
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt; _ }, []); _ }) ->
      Longident.flatten txt = [ "float" ]
  | Pexp_ifthenelse (_, th, Some el) -> is_floaty th && is_floaty el
  | Pexp_ifthenelse (_, th, None) -> is_floaty th
  | Pexp_sequence (_, e) | Pexp_open (_, e) | Pexp_letmodule (_, _, e) ->
      is_floaty e
  | Pexp_let (_, _, body) -> is_floaty body
  | _ -> false

let structural_cmp_ops = [ "="; "<>"; "=="; "!="; "compare" ]

let float_eq =
  let check ctx str =
    let diags = ref [] in
    let expr it (e : expression) =
      (match e.pexp_desc with
      | Pexp_apply (f, [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ]) -> (
          match ident_path f with
          | Some [ op ]
            when List.mem op structural_cmp_ops && (is_floaty a || is_floaty b)
            ->
              diags :=
                diag ctx ~rule:"float-eq" ~loc:e.pexp_loc
                  "structural %s on float operands is exact: summation-order \
                   noise can flip it and destabilise distributed decisions; \
                   compare through an epsilon-tolerant helper (e.g. \
                   Loads.compare_load_prefixes_eps, Float.abs (a -. b) <= eps) \
                   or annotate [@lint.allow float_eq] if exactness is the \
                   point"
                  (if op = "compare" then "compare" else "(" ^ op ^ ")")
                :: !diags
          | _ -> ())
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it str;
    !diags
  in
  {
    id = "float-eq";
    doc =
      "structural =/<>/compare on syntactically-float operands must use the \
       epsilon helpers";
    check;
  }

(* ------------------------------------------------------------------ *)
(* R3: unordered-fold                                                  *)
(* ------------------------------------------------------------------ *)

let sort_fns = [ "sort"; "stable_sort"; "fast_sort"; "sort_uniq" ]

(* Scope unit: one top-level structure item (one [let] group). A list
   built by [Hashtbl.fold]/[Hashtbl.iter] inside it is fine as long as a
   [List.sort]-family call occurs at or after the fold within the same
   item — the `|> List.sort` pipeline idiom — otherwise the unspecified
   bucket order leaks out and run-to-run determinism is gone. *)
let unordered_fold =
  let check ctx str =
    let diags = ref [] in
    let scan_item (si : structure_item) =
      let folds = ref [] and sort_offs = ref [] in
      let expr it (e : expression) =
        (match e.pexp_desc with
        | Pexp_apply (f, args) -> (
            let fn_args = List.map snd args in
            match ident_path f with
            | Some [ "Hashtbl"; "fold" ]
              when List.exists
                     (fun a -> is_function_literal a && contains_cons a)
                     fn_args ->
                folds := (e.pexp_loc, "Hashtbl.fold") :: !folds
            | Some [ "Hashtbl"; "iter" ]
              when List.exists
                     (fun a -> is_function_literal a && contains_ref_cons a)
                     fn_args ->
                folds := (e.pexp_loc, "Hashtbl.iter") :: !folds
            | Some [ "List"; fn ] when List.mem fn sort_fns ->
                sort_offs := e.pexp_loc.loc_start.pos_cnum :: !sort_offs
            | _ -> ())
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
      in
      let it = { Ast_iterator.default_iterator with expr } in
      it.structure_item it si;
      List.iter
        (fun ((loc : Location.t), what) ->
          let off = loc.loc_start.pos_cnum in
          if not (List.exists (fun s -> s >= off) !sort_offs) then
            diags :=
              diag ctx ~rule:"unordered-fold" ~loc
                "%s builds a list in unspecified bucket order and no \
                 List.sort follows in this definition; sort before the \
                 result escapes, or the output differs between runs"
                what
              :: !diags)
        !folds
    in
    List.iter scan_item str;
    !diags
  in
  {
    id = "unordered-fold";
    doc =
      "Hashtbl.fold/iter building an escaping list must be followed by a \
       List.sort in the same definition";
    check;
  }

(* ------------------------------------------------------------------ *)
(* R4: pool-capture                                                    *)
(* ------------------------------------------------------------------ *)

let mutable_makers =
  [
    ([ "ref" ], "ref cell");
    ([ "Hashtbl"; "create" ], "Hashtbl");
    ([ "Buffer"; "create" ], "Buffer");
    ([ "Queue"; "create" ], "Queue");
    ([ "Stack"; "create" ], "Stack");
    ([ "Array"; "make" ], "array");
    ([ "Array"; "init" ], "array");
    ([ "Array"; "create_float" ], "array");
    ([ "Bytes"; "create" ], "bytes");
    ([ "Bytes"; "make" ], "bytes");
  ]

let rec strip_constraint (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> strip_constraint e
  | _ -> e

(* Closures shipped to [Pool.run]/[Pool.map] execute on arbitrary worker
   domains: any shared mutable state they capture is an unsynchronised
   data race and an ordering leak. We collect the mutable [let]s of the
   surrounding structure item, then flag their occurrences inside
   function literals located anywhere in a Pool call's arguments.
   [Atomic.make] bindings are deliberately not collected. *)
let pool_capture =
  let check ctx str =
    let diags = ref [] in
    let scan_item (si : structure_item) =
      let mutables = Hashtbl.create 8 in
      let vb _it (vb : value_binding) =
        (match (vb.pvb_pat.ppat_desc, strip_constraint vb.pvb_expr) with
        | Ppat_var { txt = name; _ }, { pexp_desc = Pexp_apply (f, _); _ } -> (
            match ident_path f with
            | Some p -> (
                match List.assoc_opt p mutable_makers with
                | Some kind -> Hashtbl.replace mutables name kind
                | None -> ())
            | None -> ())
        | _ -> ());
        Ast_iterator.default_iterator.value_binding _it vb
      in
      let collect =
        { Ast_iterator.default_iterator with value_binding = vb }
      in
      collect.structure_item collect si;
      if Hashtbl.length mutables > 0 then begin
        let scan_pool_arg ~what arg =
          let depth = ref 0 in
          let expr it (e : expression) =
            match e.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                incr depth;
                Ast_iterator.default_iterator.expr it e;
                decr depth
            | Pexp_ident { txt = Longident.Lident n; loc }
              when !depth > 0 && Hashtbl.mem mutables n ->
                diags :=
                  diag ctx ~rule:"pool-capture" ~loc
                    "closure passed to %s captures the enclosing %s \
                     '%s': worker domains would share unsynchronised \
                     mutable state; pre-split the data per job or use \
                     Atomic"
                    what (Hashtbl.find mutables n) n
                  :: !diags
            | _ -> Ast_iterator.default_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with expr } in
          it.expr it arg
        in
        let expr it (e : expression) =
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              match ident_path f with
              | Some p -> (
                  match List.rev p with
                  | fn :: "Pool" :: _ when fn = "run" || fn = "map" ->
                      List.iter
                        (fun (_, a) -> scan_pool_arg ~what:"Pool.run/map" a)
                        args
                  (* the B* grid fan-out: a [~fanout] given to
                     [Scg.solve_grid]/[Scg.solve]/[Bla.run]/[Bla.run_exn]
                     typically wraps [Pool.run], so its closures run the
                     grid thunks on worker domains too *)
                  | fn :: m :: _
                    when (m = "Scg" && (fn = "solve_grid" || fn = "solve"))
                         || (m = "Bla" && (fn = "run" || fn = "run_exn")) ->
                      List.iter
                        (fun ((lbl : Asttypes.arg_label), a) ->
                          match lbl with
                          | Labelled "fanout" | Optional "fanout" ->
                              scan_pool_arg
                                ~what:
                                  (Printf.sprintf "the ~fanout of %s.%s" m fn)
                                a
                          | _ -> ())
                        args
                  | _ -> ())
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e
        in
        let it = { Ast_iterator.default_iterator with expr } in
        it.structure_item it si
      end
    in
    List.iter scan_item str;
    !diags
  in
  {
    id = "pool-capture";
    doc =
      "closures given to Pool.run/Pool.map must not capture enclosing \
       non-Atomic mutable state";
    check;
  }

(* ------------------------------------------------------------------ *)
(* R5: lib-hygiene                                                     *)
(* ------------------------------------------------------------------ *)

let print_fns =
  [
    [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_char" ]; [ "print_int" ]; [ "print_float" ]; [ "print_bytes" ];
    [ "Printf"; "printf" ]; [ "Format"; "printf" ]; [ "Format"; "print_string" ];
    [ "Fmt"; "pr" ];
  ]

let lib_hygiene =
  let check ctx str =
    if not ctx.in_lib then []
    else begin
      let diags = ref [] in
      let expr it (e : expression) =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            let p = strip_stdlib (Longident.flatten txt) in
            if p = [ "Obj"; "magic" ] then
              diags :=
                diag ctx ~rule:"lib-hygiene" ~loc
                  "Obj.magic defeats the type system; no library code may \
                   use it"
                :: !diags
            else if (not ctx.print_exempt) && List.mem p print_fns then
              diags :=
                diag ctx ~rule:"lib-hygiene" ~loc
                  "%s prints to stdout from library code; route output \
                   through Logs or the Harness.Report/Sim.Trace formatters"
                  (String.concat "." p)
                :: !diags)
        | Pexp_apply (f, _) -> (
            match ident_path f with
            | Some [ "exit" ] ->
                diags :=
                  diag ctx ~rule:"lib-hygiene" ~loc:f.pexp_loc
                    "library code must not call exit; raise and let the \
                     binary decide"
                  :: !diags
            | _ -> ())
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
      in
      let it = { Ast_iterator.default_iterator with expr } in
      it.structure it str;
      !diags
    end
  in
  {
    id = "lib-hygiene";
    doc =
      "lib/ may not print to stdout (outside Harness.Report/Sim.Trace), use \
       Obj.magic, or call exit";
    check;
  }

(* ------------------------------------------------------------------ *)
(* R6: arena-escape                                                    *)
(* ------------------------------------------------------------------ *)

(* Is [e] a buffer acquisition — an application of [Arena.floats] or
   [Arena.ints] (under any module prefix)? *)
let is_arena_acquire (e : expression) =
  match (strip_constraint e).pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some p -> (
          match List.rev p with
          | fn :: "Arena" :: _ -> fn = "floats" || fn = "ints"
          | _ -> false)
      | None -> false)
  | _ -> false

(* The result positions of [e]: follow let/sequence/open/if/match down
   to the expressions whose value the whole body evaluates to. *)
let rec result_exprs (e : expression) acc =
  match e.pexp_desc with
  | Pexp_let (_, _, b)
  | Pexp_sequence (_, b)
  | Pexp_open (_, b)
  | Pexp_letmodule (_, _, b)
  | Pexp_constraint (b, _) ->
      result_exprs b acc
  | Pexp_ifthenelse (_, th, el) -> (
      let acc = result_exprs th acc in
      match el with Some e -> result_exprs e acc | None -> acc)
  | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      List.fold_left (fun acc (c : case) -> result_exprs c.pc_rhs acc) acc cases
  | _ -> e :: acc

(* Arena storage is scratch: [with_arena] reuses it for the next caller,
   so nothing acquired from the arena (nor the arena itself) may outlive
   the call, and an arena must never be shared across [Harness.Pool]
   worker domains (it is not synchronised). Two syntactic checks:

   - the result positions of a function literal given to
     [Arena.with_arena] must not be the arena parameter, a name bound to
     [Arena.floats]/[Arena.ints] inside the body, a direct acquisition,
     or a tuple/constructor/record immediately wrapping one of those;
   - closures located in [Pool.run]/[Pool.map] arguments or in any
     [~fanout] argument must not mention an enclosing name bound to
     [Arena.create]/[Arena.floats]/[Arena.ints] (or a [with_arena]
     parameter). Names re-bound inside the shipped expression are
     exempt: a task-local arena created inside the closure is exactly
     the recommended pattern. *)
let arena_escape =
  let check ctx str =
    let diags = ref [] in
    let escape_msg = function
      | Some (kind, name) ->
          Printf.sprintf
            "the %s '%s' escapes in with_arena's result: arena storage is \
             reused scratch that the next arena user overwrites; copy into a \
             fresh array before returning"
            kind name
      | None ->
          "an arena buffer acquired here escapes in with_arena's result: \
           arena storage is reused scratch that the next arena user \
           overwrites; copy into a fresh array before returning"
    in
    let scan_with_arena_body fnlit =
      (* the function literal's parameters are the arena itself *)
      let rec unwrap (e : expression) params =
        match e.pexp_desc with
        | Pexp_fun (_, _, pat, body) ->
            let params =
              match pat.ppat_desc with
              | Ppat_var { txt; _ } -> txt :: params
              | _ -> params
            in
            unwrap body params
        | _ -> (e, params)
      in
      let body, params = unwrap fnlit [] in
      let acquired = Hashtbl.create 4 in
      List.iter (fun p -> Hashtbl.replace acquired p "arena") params;
      let vb it (vb : value_binding) =
        (match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = name; _ } when is_arena_acquire vb.pvb_expr ->
            Hashtbl.replace acquired name "arena buffer"
        | _ -> ());
        Ast_iterator.default_iterator.value_binding it vb
      in
      let collect = { Ast_iterator.default_iterator with value_binding = vb } in
      collect.expr collect body;
      let leaf (t : expression) =
        let t = strip_constraint t in
        if is_arena_acquire t then Some (t.pexp_loc, None)
        else
          match t.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; loc } -> (
              match Hashtbl.find_opt acquired n with
              | Some kind -> Some (loc, Some (kind, n))
              | None -> None)
          | _ -> None
      in
      let flag t =
        match leaf t with
        | Some (loc, who) ->
            diags :=
              diag ctx ~rule:"arena-escape" ~loc "%s" (escape_msg who) :: !diags
        | None -> ()
      in
      let check_result (t : expression) =
        let t = strip_constraint t in
        match leaf t with
        | Some _ -> flag t
        | None -> (
            (* one wrapping layer: (x, buf), Some buf, { f = buf } *)
            match t.pexp_desc with
            | Pexp_tuple es -> List.iter flag es
            | Pexp_construct (_, Some arg) -> (
                match (strip_constraint arg).pexp_desc with
                | Pexp_tuple es -> List.iter flag es
                | _ -> flag arg)
            | Pexp_record (fields, _) -> List.iter (fun (_, e) -> flag e) fields
            | _ -> ())
      in
      List.iter check_result (result_exprs body [])
    in
    (* Per structure item: arena bindings captured by pooled closures. *)
    let scan_item (si : structure_item) =
      let arenas = Hashtbl.create 4 in
      let vb it (vb : value_binding) =
        (match (vb.pvb_pat.ppat_desc, strip_constraint vb.pvb_expr) with
        | Ppat_var { txt = name; _ }, rhs -> (
            match rhs.pexp_desc with
            | Pexp_apply (f, _) -> (
                match ident_path f with
                | Some p -> (
                    match List.rev p with
                    | "create" :: "Arena" :: _ ->
                        Hashtbl.replace arenas name "arena"
                    | fn :: "Arena" :: _ when fn = "floats" || fn = "ints" ->
                        Hashtbl.replace arenas name "arena buffer"
                    | _ -> ())
                | None -> ())
            | _ -> ())
        | _ -> ());
        Ast_iterator.default_iterator.value_binding it vb
      in
      let cexpr it (e : expression) =
        (match e.pexp_desc with
        | Pexp_apply (f, args) -> (
            match ident_path f with
            | Some p
              when (match List.rev p with
                   | "with_arena" :: "Arena" :: _ -> true
                   | _ -> false) ->
                List.iter
                  (fun (_, a) ->
                    match a.pexp_desc with
                    | Pexp_fun (_, _, { ppat_desc = Ppat_var { txt; _ }; _ }, _)
                      ->
                        Hashtbl.replace arenas txt "arena"
                    | _ -> ())
                  args
            | _ -> ())
        | _ -> ());
        Ast_iterator.default_iterator.expr it e
      in
      let collect =
        { Ast_iterator.default_iterator with value_binding = vb; expr = cexpr }
      in
      collect.structure_item collect si;
      if Hashtbl.length arenas > 0 then begin
        let scan_pool_arg ~what arg =
          (* names re-bound inside the shipped expression shadow the
             outer arena (task-local arenas): exempt *)
          let locals = Hashtbl.create 4 in
          let pat it (p : pattern) =
            (match p.ppat_desc with
            | Ppat_var { txt; _ } when Hashtbl.mem arenas txt ->
                Hashtbl.replace locals txt ()
            | _ -> ());
            Ast_iterator.default_iterator.pat it p
          in
          let locals_it = { Ast_iterator.default_iterator with pat } in
          locals_it.expr locals_it arg;
          let depth = ref 0 in
          let expr it (e : expression) =
            match e.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                incr depth;
                Ast_iterator.default_iterator.expr it e;
                decr depth
            | Pexp_ident { txt = Longident.Lident n; loc }
              when !depth > 0 && Hashtbl.mem arenas n
                   && not (Hashtbl.mem locals n) ->
                diags :=
                  diag ctx ~rule:"arena-escape" ~loc
                    "closure passed to %s captures the enclosing %s '%s': an \
                     arena is single-domain scratch and must never be shared \
                     across Harness.Pool domains; create a task-local arena \
                     inside the closure"
                    what (Hashtbl.find arenas n) n
                  :: !diags
            | _ -> Ast_iterator.default_iterator.expr it e
          in
          let it = { Ast_iterator.default_iterator with expr } in
          it.expr it arg
        in
        let expr it (e : expression) =
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
              (match ident_path f with
              | Some p -> (
                  match List.rev p with
                  | fn :: "Pool" :: _ when fn = "run" || fn = "map" ->
                      List.iter
                        (fun (_, a) -> scan_pool_arg ~what:"Pool.run/map" a)
                        args
                  | _ -> ())
              | None -> ());
              (* any ~fanout is assumed to wrap Pool.run: its closures
                 ship to worker domains *)
              List.iter
                (fun ((lbl : Asttypes.arg_label), a) ->
                  match lbl with
                  | Labelled "fanout" | Optional "fanout" ->
                      scan_pool_arg ~what:"a ~fanout" a
                  | _ -> ())
                args)
          | _ -> ());
          Ast_iterator.default_iterator.expr it e
        in
        let it = { Ast_iterator.default_iterator with expr } in
        it.structure_item it si
      end
    in
    let expr it (e : expression) =
      (match e.pexp_desc with
      | Pexp_apply (f, args) -> (
          match ident_path f with
          | Some p
            when (match List.rev p with
                 | "with_arena" :: "Arena" :: _ -> true
                 | _ -> false) ->
              List.iter
                (fun (_, a) -> if is_function_literal a then scan_with_arena_body a)
                args
          | _ -> ())
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it str;
    List.iter scan_item str;
    !diags
  in
  {
    id = "arena-escape";
    doc =
      "arena buffers must not escape the with_arena extent or be captured by \
       closures shipped to Pool.run or a ~fanout";
    check;
  }

(* ------------------------------------------------------------------ *)

let all =
  [ no_ambient_rng; float_eq; unordered_fold; pool_capture; arena_escape;
    lib_hygiene ]
let find id = List.find_opt (fun r -> r.id = id) all
