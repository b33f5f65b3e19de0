(** Centralized MNU — Maximize the Number of Users (§4.1).

    Reduces the instance to Maximum Coverage with Group Budgets (Theorem 1):
    one group per AP with the AP's multicast airtime budget, no overall
    budget. Runs the budgeted greedy with the H1/H2 split — an
    8-approximation (Theorem 2). The returned association always respects
    every AP's budget. *)

open Wlan_model

let name = "MNU-centralized"

(** [run p] is {!Shard.solve_mnu} on the instance's interaction
    components ({!Shard.plan}), relabelled: the one centralized MNU
    driver. *)
let run p = { (Shard.solve_mnu p) with Solution.algorithm = name }

(** Revenue-weighted MNU: maximize the total {e value} of satisfied users
    rather than their count — the paper's pay-per-view revenue model
    (§3.2) with heterogeneous per-user prices. [weights.(u)] is user [u]'s
    value (non-negative). Returns the solution plus the realized revenue.
    With all-1 weights this is exactly {!run}. *)
let run_weighted ~weights p =
  let inst = Reduction.cover_instance ~filter_over_budget:true p in
  let universe = Reduction.coverable_users p in
  let budgets =
    Array.init (Optkit.Cover_instance.n_groups inst) (Problem.ap_budget p)
  in
  let r = Optkit.Mcg.greedy ~element_weights:weights inst ~budgets ~universe () in
  let sol =
    Reduction.association_of_sets inst ~universe
      (List.map (fun (s : Optkit.Mcg.selection) -> s.set) r.kept)
    |> Solution.make ~algorithm:"MNU-weighted" p
  in
  let revenue =
    Array.to_list (Array.mapi (fun u a -> (u, a)) sol.Solution.assoc)
    |> List.fold_left
         (fun acc (u, a) ->
           if a <> Wlan_model.Association.none then acc +. weights.(u) else acc)
         0.
  in
  (sol, revenue)

(** Extension (not in the paper's algorithm, off in the figure harness):
    after the greedy cover, admit remaining users that can listen to an
    already-scheduled transmission for free — a user in range of an AP
    already transmitting its session at a rate it can decode costs no extra
    airtime. *)
let run_with_free_riders p =
  let sol = run p in
  let assoc = Association.copy sol.assoc in
  let _, n_users = Problem.dims p in
  let tx = Loads.tx_rates p assoc in
  for u = 0 to n_users - 1 do
    if not (Association.is_served assoc u) then begin
      let s = Problem.user_session p u in
      let joined = ref false in
      Array.iteri
        (fun a tx_row ->
          if (not !joined) && tx_row.(s) > 0.
             && Problem.link_rate p ~ap:a ~user:u >= tx_row.(s)
          then begin
            Association.serve assoc ~user:u ~ap:a;
            joined := true
          end)
        tx
    end
  done;
  Solution.make ~algorithm:"MNU-centralized+freeride" p assoc
