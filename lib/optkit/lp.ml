(** Two-phase primal simplex, on a full tableau, for linear programs.

    The paper compares its approximation algorithms against optimal
    solutions computed by ILPs "based on the ILP of set cover" (Fig. 12).
    We cannot link a commercial solver in a sealed environment, so this
    module provides the LP engine (and {!Ilp} the branch-and-bound on top).

    Problems are over variables [x >= 0] with constraints [a·x {<=,>=,=} b]
    and a linear objective. Phase 1 drives artificial variables out to find
    a basic feasible solution; phase 2 optimizes. Entering-variable choice
    is Dantzig's rule, degrading to Bland's rule after an iteration
    threshold so the algorithm provably terminates. *)

type cmp = Le | Ge | Eq

type constr = { coeffs : float array; cmp : cmp; rhs : float }

type problem = {
  n_vars : int;
  maximize : bool;
  objective : float array;
  constraints : constr array;
}

type solution = { x : float array; objective_value : float }
type result = Optimal of solution | Infeasible | Unbounded

let eps = 1e-9

type tableau = {
  m : int;  (** rows *)
  n : int;  (** columns excluding rhs *)
  a : float array array;  (** m x (n+1); last column is rhs *)
  basis : int array;  (** basic variable of each row *)
  obj : float array;  (** n+1; objective row (maximization), reduced costs *)
}

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  for j = 0 to t.n do
    arow.(j) <- arow.(j) /. p
  done;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.a.(i).(col) in
      if Float.abs f > 0. then begin
        let r = t.a.(i) in
        for j = 0 to t.n do
          r.(j) <- r.(j) -. (f *. arow.(j))
        done
      end
    end
  done;
  let f = t.obj.(col) in
  if Float.abs f > 0. then
    for j = 0 to t.n do
      t.obj.(j) <- t.obj.(j) -. (f *. arow.(j))
    done;
  t.basis.(row) <- col

(* Choose entering column: Dantzig (most positive reduced cost) or Bland
   (lowest index with positive reduced cost). The objective row stores
   reduced costs for maximization: entering needs obj.(j) > eps. *)
let entering t ~bland =
  if bland then begin
    let rec go j = if j >= t.n then None
      else if t.obj.(j) > eps then Some j else go (j + 1)
    in
    go 0
  end
  else begin
    let best = ref (-1) and best_v = ref eps in
    for j = 0 to t.n - 1 do
      if t.obj.(j) > !best_v then begin
        best := j;
        best_v := t.obj.(j)
      end
    done;
    if !best < 0 then None else Some !best
  end

(* Leaving row by minimum ratio; ties broken by smallest basis index
   (anti-cycling with Bland). Returns None when unbounded. *)
let leaving t ~col =
  let best = ref (-1) and best_ratio = ref infinity in
  for i = 0 to t.m - 1 do
    let aij = t.a.(i).(col) in
    if aij > eps then begin
      let ratio = t.a.(i).(t.n) /. aij in
      if
        ratio < !best_ratio -. eps
        || (ratio < !best_ratio +. eps
           && !best >= 0
           && t.basis.(i) < t.basis.(!best))
      then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  if !best < 0 then None else Some !best

type phase_outcome = Opt | Unbd

let optimize ?(max_iters = 50_000) t =
  let bland_after = 2_000 in
  let rec go iter =
    if iter > max_iters then Opt (* numerical stall: accept current basis *)
    else
      match entering t ~bland:(iter > bland_after) with
      | None -> Opt
      | Some col -> (
          match leaving t ~col with
          | None -> Unbd
          | Some row ->
              pivot t ~row ~col;
              go (iter + 1))
  in
  go 0

(** Solve an LP. *)
let solve (p : problem) : result =
  let m = Array.length p.constraints in
  Array.iter
    (fun c ->
      if Array.length c.coeffs <> p.n_vars then
        invalid_arg "Lp.solve: constraint arity mismatch")
    p.constraints;
  if Array.length p.objective <> p.n_vars then
    invalid_arg "Lp.solve: objective arity mismatch";
  (* Normalize rows to rhs >= 0. *)
  let rows =
    Array.map
      (fun c ->
        if c.rhs < 0. then
          {
            coeffs = Array.map (fun v -> -.v) c.coeffs;
            rhs = -.c.rhs;
            cmp = (match c.cmp with Le -> Ge | Ge -> Le | Eq -> Eq);
          }
        else c)
      p.constraints
  in
  let n_slack =
    Array.fold_left
      (fun acc c -> match c.cmp with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let n_art =
    Array.fold_left
      (fun acc c -> match c.cmp with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let n = p.n_vars + n_slack + n_art in
  let a = Array.make_matrix m (n + 1) 0. in
  let basis = Array.make m 0 in
  let slack_base = p.n_vars in
  let art_base = p.n_vars + n_slack in
  let si = ref 0 and ai = ref 0 in
  Array.iteri
    (fun i c ->
      Array.blit c.coeffs 0 a.(i) 0 p.n_vars;
      a.(i).(n) <- c.rhs;
      (match c.cmp with
      | Le ->
          a.(i).(slack_base + !si) <- 1.;
          basis.(i) <- slack_base + !si;
          incr si
      | Ge ->
          a.(i).(slack_base + !si) <- -1.;
          incr si;
          a.(i).(art_base + !ai) <- 1.;
          basis.(i) <- art_base + !ai;
          incr ai
      | Eq ->
          a.(i).(art_base + !ai) <- 1.;
          basis.(i) <- art_base + !ai;
          incr ai))
    rows;
  (* Phase 1: maximize -(sum of artificials). Reduced-cost row must be
     expressed in terms of nonbasic variables: start from obj = -sum(art
     rows' columns) and add each artificial-basic row. *)
  let t = { m; n; a; basis; obj = Array.make (n + 1) 0. } in
  if n_art > 0 then begin
    for j = 0 to n do
      let s = ref 0. in
      for i = 0 to m - 1 do
        if basis.(i) >= art_base then s := !s +. a.(i).(j)
      done;
      t.obj.(j) <- !s
    done;
    (* zero out the (basic) artificial columns in the objective row *)
    for j = art_base to art_base + n_art - 1 do
      t.obj.(j) <- 0.
    done;
    (match optimize t with Opt -> () | Unbd -> assert false);
    if t.obj.(n) > 1e-6 then (* residual infeasibility: -obj value is stored
                                with opposite sign in position n *)
      ()
  end;
  let phase1_value =
    (* sum of artificial basic variables at the end of phase 1 *)
    let s = ref 0. in
    for i = 0 to m - 1 do
      if t.basis.(i) >= art_base then s := !s +. t.a.(i).(n)
    done;
    !s
  in
  if n_art > 0 && phase1_value > 1e-6 then Infeasible
  else begin
    (* Drive remaining (degenerate) artificials out of the basis. *)
    for i = 0 to m - 1 do
      if t.basis.(i) >= art_base then begin
        let found = ref (-1) in
        for j = 0 to art_base - 1 do
          if !found < 0 && Float.abs t.a.(i).(j) > 1e-7 then found := j
        done;
        match !found with
        | -1 -> () (* redundant row; leave the zero artificial basic *)
        | j -> pivot t ~row:i ~col:j
      end
    done;
    (* Phase 2: block artificial columns, install the real objective. *)
    let sign = if p.maximize then 1. else -1. in
    let c = Array.make (n + 1) 0. in
    for j = 0 to p.n_vars - 1 do
      c.(j) <- sign *. p.objective.(j)
    done;
    (* reduced costs: c_j - c_B B^-1 A_j; compute by eliminating basics *)
    Array.blit c 0 t.obj 0 (n + 1);
    for i = 0 to m - 1 do
      let cb = if t.basis.(i) < p.n_vars then c.(t.basis.(i)) else 0. in
      if Float.abs cb > 0. then
        for j = 0 to n do
          t.obj.(j) <- t.obj.(j) -. (cb *. t.a.(i).(j))
        done
    done;
    (* forbid artificials from re-entering *)
    for j = art_base to n - 1 do
      t.obj.(j) <- neg_infinity
    done;
    match optimize t with
    | Unbd -> Unbounded
    | Opt ->
        let x = Array.make p.n_vars 0. in
        for i = 0 to m - 1 do
          if t.basis.(i) < p.n_vars then x.(t.basis.(i)) <- t.a.(i).(n)
        done;
        let objective_value =
          let s = ref 0. in
          for j = 0 to p.n_vars - 1 do
            s := !s +. (p.objective.(j) *. x.(j))
          done;
          !s
        in
        Optimal { x; objective_value }
  end
