(* The single-instance SCG reference: one run at a fixed B* over one
   cover instance, every round through one MCG session, and the grid
   solved guess by guess with no probe reuse. The grid driver
   ([Optkit.Scg.solve_grid], lockstep over shards with whole-probe and
   per-shard reuse) is proven against it in test_optkit.ml and, through
   [Bla.run], in test_flat.ml. *)

open Optkit

type result = {
  bstar : float;
  rounds : Mcg.result list;  (* one MCG result per iteration *)
  feasible : bool;  (* all universe elements covered *)
  group_cost : float array;  (* summed over rounds *)
}

let selections r = List.concat_map (fun (m : Mcg.result) -> m.kept) r.rounds
let max_group_cost r = Array.fold_left Float.max 0. r.group_cost

(* One run at [bstar]. An explicit [universe] is taken literally
   (uncoverable members make the run infeasible); the default is
   everything coverable. *)
let solve_for ?(mode = `Soft) ?arena inst ~bstar ?universe () =
  let remaining =
    match universe with
    | Some u -> Bitset.copy u
    | None -> Cover_instance.coverable inst
  in
  let n_groups = Cover_instance.n_groups inst in
  let group_cost = Array.make n_groups 0. in
  let session =
    Mcg.session ~mode ?arena inst ~budgets:(Array.make n_groups bstar)
  in
  let rec go k acc =
    if k = 0 || Bitset.is_empty remaining then List.rev acc
    else
      let r = Mcg.session_round session ~remaining in
      if Bitset.is_empty r.Mcg.covered then List.rev acc
      else begin
        Scg.add_round_cost group_cost r.Mcg.group_cost;
        Bitset.diff_inplace remaining r.Mcg.covered;
        go (k - 1) (r :: acc)
      end
  in
  let rounds = go (Scg.max_rounds_for (Bitset.cardinal remaining)) [] in
  { bstar; rounds; feasible = Bitset.is_empty remaining; group_cost }

(* The default grid: 12 (or [n_guesses]) geometric guesses from the
   tight lower end over [universe] to 1. *)
let default_grid ?n_guesses ?universe inst =
  let universe =
    match universe with
    | Some u -> u
    | None -> Cover_instance.coverable inst
  in
  Scg.grid_points ?n_guesses (Scg.grid_lo ~universe inst)

(* Every guess of [grid] solved from scratch, feasible runs by ascending
   max group cost, stable on ties — the driver's order. *)
let exhaustive ?mode ?universe inst grid =
  List.map (fun bstar -> solve_for ?mode inst ~bstar ?universe ()) grid
  |> List.filter (fun r -> r.feasible)
  |> List.stable_sort (fun a b ->
         Float.compare (max_group_cost a) (max_group_cost b))
