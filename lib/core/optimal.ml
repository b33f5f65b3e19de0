(** Exact (optimal) solvers for MLA, BLA and MNU on small instances — the
    Fig. 12 baselines. The paper computed these with ILPs "based on the ILP
    of set cover"; we do the same on top of {!Optkit.Ilp} (MNU, BLA) and the
    specialized exact set-cover branch and bound (MLA). All three take
    exponential time in the worst case and are meant for small networks
    (the paper limits its optimality evaluation to 30 APs / 50 users).

    A brute-force enumerator over complete associations is also provided
    for cross-checking on tiny instances in the test suite. *)

open Wlan_model
module Lp = Optkit.Lp
module Ilp = Optkit.Ilp

type 'a verdict = { value : 'a; solution : Solution.t; proved_optimal : bool }

(** {1 Exact MLA — weighted set cover, specialized branch and bound} *)

let mla ?node_limit p =
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  match Optkit.Set_cover.exact ?node_limit ~universe inst with
  | None -> None
  | Some r ->
      (* attribute each covered user to the first chosen set covering it *)
      let solution =
        Reduction.association_of_sets inst ~universe r.sets
        |> Solution.make ~algorithm:"MLA-optimal" p
      in
      Some
        { value = solution.total_load; solution;
          proved_optimal = r.proved_optimal }

(** {1 Exact MNU — ILP}

    Variables: one binary [y_j] per reduction subset (AP transmits session
    at rate), one continuous [x_u <= 1] per coverable user. Maximize
    [sum x_u] subject to [x_u <= sum of covering y_j] and, per AP,
    [sum c_j y_j <= budget]. At binary [y] the optimal [x] is 0/1, so only
    [y] is branched. *)

let mnu ?node_limit ?initial_bound p =
  let inst = Reduction.cover_instance ~filter_over_budget:true p in
  let universe = Reduction.coverable_users p in
  let users = Optkit.Bitset.to_list universe in
  let n_y = Optkit.Cover_instance.n_sets inst in
  let sets = Array.init n_y (Optkit.Cover_instance.set inst) in
  let n_u = List.length users in
  let n_vars = n_y + n_u in
  let user_slot = Hashtbl.create 64 in
  List.iteri (fun i u -> Hashtbl.replace user_slot u (n_y + i)) users;
  let constraints = ref [] in
  (* coverage: x_u - sum_{j covers u} y_j <= 0 *)
  List.iter
    (fun u ->
      let c = Array.make n_vars 0. in
      c.(Hashtbl.find user_slot u) <- 1.;
      for j = 0 to n_y - 1 do
        if Optkit.Bitset.mem sets.(j) u then
          c.(j) <- -1.
      done;
      constraints := Lp.{ coeffs = c; cmp = Le; rhs = 0. } :: !constraints)
    users;
  (* x_u <= 1 *)
  List.iter
    (fun u ->
      let c = Array.make n_vars 0. in
      c.(Hashtbl.find user_slot u) <- 1.;
      constraints := Lp.{ coeffs = c; cmp = Le; rhs = 1. } :: !constraints)
    users;
  (* per-AP budget *)
  for a = 0 to Optkit.Cover_instance.n_groups inst - 1 do
    let c = Array.make n_vars 0. in
    let any = ref false in
    for j = 0 to n_y - 1 do
      if Optkit.Cover_instance.group inst j = a then begin
        c.(j) <- Optkit.Cover_instance.cost inst j;
        any := true
      end
    done;
    if !any then
      constraints :=
        Lp.{ coeffs = c; cmp = Le; rhs = Problem.ap_budget p a } :: !constraints
  done;
  let objective = Array.make n_vars 0. in
  List.iter (fun u -> objective.(Hashtbl.find user_slot u) <- 1.) users;
  let binary = Array.init n_vars (fun j -> j < n_y) in
  let base =
    Lp.
      {
        n_vars;
        maximize = true;
        objective;
        constraints = Array.of_list !constraints;
      }
  in
  match
    Ilp.solve ?node_limit ?initial_bound ~integral_objective:true
      { base; binary }
  with
  | None -> None
  | Some sol ->
      (* chosen transmissions, in cost-effectiveness order for attribution *)
      let chosen =
        List.init n_y Fun.id
        |> List.filter (fun j -> sol.x.(j) > 0.5)
      in
      let solution =
        Reduction.association_of_sets inst ~universe chosen
        |> Solution.make ~algorithm:"MNU-optimal" p
      in
      Some
        {
          value = solution.satisfied;
          solution;
          proved_optimal = sol.proved_optimal;
        }

(** {1 Exact BLA — ILP}

    Variables: binary [y_j] per subset plus continuous makespan [z] (the
    last variable). Minimize [z] subject to coverage [sum y_j >= 1] per
    user and [sum c_j y_j - z <= 0] per AP. *)

let bla ?node_limit ?initial_bound p =
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  let users = Optkit.Bitset.to_list universe in
  let n_y = Optkit.Cover_instance.n_sets inst in
  let sets = Array.init n_y (Optkit.Cover_instance.set inst) in
  let n_vars = n_y + 1 in
  let z = n_y in
  let constraints = ref [] in
  List.iter
    (fun u ->
      let c = Array.make n_vars 0. in
      for j = 0 to n_y - 1 do
        if Optkit.Bitset.mem sets.(j) u then
          c.(j) <- 1.
      done;
      constraints := Lp.{ coeffs = c; cmp = Ge; rhs = 1. } :: !constraints)
    users;
  for a = 0 to Optkit.Cover_instance.n_groups inst - 1 do
    let c = Array.make n_vars 0. in
    let any = ref false in
    for j = 0 to n_y - 1 do
      if Optkit.Cover_instance.group inst j = a then begin
        c.(j) <- Optkit.Cover_instance.cost inst j;
        any := true
      end
    done;
    if !any then begin
      c.(z) <- -1.;
      constraints := Lp.{ coeffs = c; cmp = Le; rhs = 0. } :: !constraints
    end
  done;
  let objective = Array.make n_vars 0. in
  objective.(z) <- 1.;
  let binary = Array.init n_vars (fun j -> j < n_y) in
  let base =
    Lp.
      {
        n_vars;
        maximize = false;
        objective;
        constraints = Array.of_list !constraints;
      }
  in
  match Ilp.solve ?node_limit ?initial_bound { base; binary } with
  | None -> None
  | Some sol ->
      let chosen =
        List.init n_y Fun.id |> List.filter (fun j -> sol.x.(j) > 0.5)
      in
      let solution =
        Reduction.association_of_sets inst ~universe chosen
        |> Solution.make ~algorithm:"BLA-optimal" p
      in
      Some
        {
          value = solution.max_load;
          solution;
          proved_optimal = sol.proved_optimal;
        }

(** {1 Brute force} — enumerate every complete assignment of users to
    neighbor APs (or unserved, where allowed). Exponential; for tiny test
    instances only. *)

type brute_objective = Max_served | Min_max_load | Min_total_load

let brute_force ~objective p =
  let _, n_users = Problem.dims p in
  let choices =
    Array.init n_users (fun u ->
        let ns = Problem.neighbor_aps p u in
        match objective with
        | Max_served -> Association.none :: ns
        | Min_max_load | Min_total_load ->
            (* all coverable users must be served *)
            if ns = [] then [ Association.none ] else ns)
  in
  let assoc = Association.empty ~n_users in
  let best = ref None in
  let score sol =
    match objective with
    | Max_served -> (float_of_int (-sol.Solution.satisfied), sol.total_load)
    | Min_max_load -> (sol.Solution.max_load, sol.total_load)
    | Min_total_load -> (sol.Solution.total_load, sol.max_load)
  in
  let consider () =
    let ok =
      match objective with
      | Max_served -> Loads.respects_budget p assoc
      | Min_max_load | Min_total_load -> true
    in
    if ok then begin
      let sol = Solution.make ~algorithm:"brute-force" p assoc in
      match !best with
      | None -> best := Some (score sol, sol)
      | Some (bs, _) -> if score sol < bs then best := Some (score sol, sol)
    end
  in
  let rec go u =
    if u = n_users then consider ()
    else
      List.iter
        (fun a ->
          assoc.(u) <- a;
          go (u + 1))
        choices.(u)
  in
  go 0;
  Option.map snd !best
