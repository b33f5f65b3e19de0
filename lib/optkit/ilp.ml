(** 0/1 integer programming by LP-based branch and bound.

    Sits on {!Lp}. Variables marked binary are branched to 0/1 by adding
    equality rows; continuous variables (like the BLA makespan variable [z])
    are never branched. Upper bounds [x <= 1] on binaries are added lazily:
    only when the relaxation actually pushes a binary above 1 do we add the
    bound row, keeping tableaus small (coverage-style LPs rarely exceed 1).

    Used for the paper's Fig. 12 optimal-solution baselines (MNU and BLA
    ILPs; exact MLA uses the specialized {!Set_cover.exact}). *)

type t = { base : Lp.problem; binary : bool array }

type solution = {
  x : float array;
  objective_value : float;
  proved_optimal : bool;
}

let integral ?(tol = 1e-6) v =
  Float.abs (v -. Float.round v) <= tol

let row_fixing n_vars j v : Lp.constr =
  let coeffs = Array.make n_vars 0. in
  coeffs.(j) <- 1.;
  { coeffs; cmp = Lp.Eq; rhs = v }

let row_upper n_vars j : Lp.constr =
  let coeffs = Array.make n_vars 0. in
  coeffs.(j) <- 1.;
  { coeffs; cmp = Lp.Le; rhs = 1. }

(** [solve t] finds an optimal 0/1 assignment.

    [initial_bound] is a known objective value (e.g. from the greedy
    approximation): nodes that cannot beat it are pruned. If no strictly
    better integral solution exists, the result is [None] — the caller keeps
    its greedy solution, now proved optimal.

    [integral_objective] enables rounding-based pruning when every feasible
    objective value is an integer (e.g. "number of users served").

    [node_limit] bounds the search; when exhausted, [proved_optimal] is
    false on the returned incumbent (or the result is [None]). *)
let solve ?(node_limit = 200_000) ?initial_bound ?(integral_objective = false)
    (t : t) : solution option =
  let n = t.base.n_vars in
  if Array.length t.binary <> n then invalid_arg "Ilp.solve: binary mask arity";
  let maximize = t.base.maximize in
  let better a b = if maximize then a > b +. 1e-9 else a < b -. 1e-9 in
  let best : solution option ref = ref None in
  let bound_cut = ref initial_bound in
  let nodes = ref 0 in
  let truncated = ref false in
  (* lazily-discovered global upper-bound rows for binaries *)
  let lazy_bounds : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let cannot_beat lp_obj =
    let target =
      match (!best, !bound_cut) with
      | Some b, Some c ->
          if maximize then Float.max b.objective_value c
          else Float.min b.objective_value c
      | Some b, None -> b.objective_value
      | None, Some c -> c
      | None, None -> if maximize then neg_infinity else infinity
    in
    (* lint: allow float-eq — "no bound yet" is the exact infinity sentinel *)
    if target = (if maximize then neg_infinity else infinity) then false
    else if integral_objective then
      if maximize then Float.round (lp_obj -. 0.5 +. 1e-6) <= target +. 1e-9
      else Float.round (lp_obj +. 0.5 -. 1e-6) >= target -. 1e-9
    else if maximize then lp_obj <= target +. 1e-9
    else lp_obj >= target -. 1e-9
  in
  let rec node fixings =
    if !nodes >= node_limit then truncated := true
    else begin
      incr nodes;
      let constraints () =
        Array.concat
          [
            t.base.constraints;
            Array.of_list
              (Hashtbl.fold (fun j () acc -> j :: acc) lazy_bounds []
              |> List.sort Int.compare
              |> List.map (row_upper n));
            Array.of_list (List.map (fun (j, v) -> row_fixing n j v) fixings);
          ]
      in
      (* solve, adding violated binary bounds until clean *)
      let rec relax () =
        match Lp.solve { t.base with constraints = constraints () } with
        | Lp.Infeasible -> None
        | Lp.Unbounded -> None (* bounded by construction in our uses *)
        | Lp.Optimal sol ->
            let violated = ref [] in
            Array.iteri
              (fun j v ->
                if t.binary.(j) && v > 1. +. 1e-6
                   && not (Hashtbl.mem lazy_bounds j) then
                  violated := j :: !violated)
              sol.x;
            if !violated = [] then Some sol
            else begin
              List.iter (fun j -> Hashtbl.replace lazy_bounds j ()) !violated;
              relax ()
            end
      in
      match relax () with
      | None -> ()
      | Some sol ->
          if not (cannot_beat sol.objective_value) then begin
            (* most fractional binary *)
            let frac = ref (-1) and frac_d = ref 0. in
            Array.iteri
              (fun j v ->
                if t.binary.(j) && not (integral v) then begin
                  let d = Float.abs (v -. Float.round v) in
                  if d > !frac_d then begin
                    frac := j;
                    frac_d := d
                  end
                end)
              sol.x;
            if !frac < 0 then begin
              (* integral on binaries: new incumbent *)
              let keep =
                match !best with
                | None -> true
                | Some b -> better sol.objective_value b.objective_value
              in
              if keep then
                best :=
                  Some
                    {
                      x = sol.x;
                      objective_value = sol.objective_value;
                      proved_optimal = false;
                    }
            end
            else begin
              let j = !frac in
              (* explore x_j = 1 first: covers faster, finds incumbents early *)
              node ((j, 1.) :: fixings);
              node ((j, 0.) :: fixings)
            end
          end
    end
  in
  node [];
  match !best with
  | None -> None
  | Some b -> Some { b with proved_optimal = not !truncated }
