(** Adaptive per-AP transmit power control — the paper's §8 future work
    ("approximation algorithms based on a generalized network model that
    allows nodes to choose from a finite set of discrete power levels").

    Lowering an AP's power scales all of its Table-1 rate regions down, so
    its links get slower — but its multicast airtime stops bleeding into as
    many co-channel neighbor cells. The optimizer trades those off
    explicitly: coordinate descent over per-AP discrete levels, minimizing

    {v J(levels) = total_mla_load + mu * total_co_channel_interference v}

    subject to never losing a user that was coverable at full power. Each
    candidate level is evaluated by rebuilding the rate matrix at the
    mixed powers and re-running centralized MLA — power control and
    association control are optimized jointly, which is exactly the
    flexibility the paper says single-power models leave on the table. *)

open Wlan_model

type plan = {
  levels : int array;  (** AP index -> index into [factors] *)
  factors : float array;  (** available power scalings, [factors.(0) = 1.] *)
  problem : Problem.t;  (** the instance at the chosen powers *)
  solution : Solution.t;  (** centralized MLA at the chosen powers *)
  objective : float;  (** J at the chosen powers *)
  full_power_objective : float;  (** J with every AP at [factors.(0)] *)
}

(* The power scalings every AP chooses from, full power first. *)
let factors = [| 1.0; 0.8; 0.6; 0.4 |]

(** Compile [sc] with per-AP power scalings: AP [a]'s rate regions are
    those of the scenario's table with thresholds scaled by
    [factors.(levels.(a))]. Signal stays [-distance]. *)
let problem_with_powers (sc : Scenario.t) ~factors ~levels =
  let n_aps = Scenario.n_aps sc and n_users = Scenario.n_users sc in
  if Array.length levels <> n_aps then
    invalid_arg "Power.problem_with_powers: levels arity";
  let tables =
    Array.map
      (fun f -> Rate_table.scale_thresholds f sc.Scenario.rate_table)
      factors
  in
  let dists = Scenario.distances sc in
  let rates =
    Array.init n_aps (fun a ->
        let table = tables.(levels.(a)) in
        Array.init n_users (fun u ->
            match Rate_table.rate_at_distance table dists.(a).(u) with
            | Some r -> r
            | None -> 0.))
  in
  let signal = Array.map (Array.map (fun d -> -.d)) dists in
  (* a scaled-down level may strand a user; [optimize] rejects such
     levels by comparing coverage, so it must be able to build them *)
  Problem.make ~allow_uncovered:true ~signal
    ~session_rates:(Array.map Session.rate_mbps sc.Scenario.sessions)
    ~user_session:(Array.copy sc.Scenario.user_session)
    ~rates ~budget:sc.Scenario.budget ()

let evaluate ~channels ~mu p =
  let sol = Mla.run p in
  let interference =
    Channels.total_interference channels ~loads:sol.Solution.ap_loads
  in
  (sol, sol.Solution.total_load +. (mu *. interference))

(** [optimize ~channels sc] runs coordinate descent from full power.
    [mu] weighs interference against raw airtime (0 disables power
    reduction entirely — lower power can only slow links). Passes repeat
    until no AP improves [J], four passes at most. *)
let optimize ?(mu = 0.1) ~(channels : Channels.assignment) (sc : Scenario.t) =
  let max_passes = 4 in
  let n_aps = Scenario.n_aps sc in
  let levels = Array.make n_aps 0 in
  let base_problem = problem_with_powers sc ~factors ~levels in
  let must_cover = Problem.coverable_users base_problem in
  let base_sol, base_j = evaluate ~channels ~mu base_problem in
  let best_j = ref base_j in
  let best_sol = ref base_sol in
  let best_problem = ref base_problem in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    improved := false;
    incr passes;
    for a = 0 to n_aps - 1 do
      (* try stepping this AP one level down *)
      if levels.(a) + 1 < Array.length factors then begin
        levels.(a) <- levels.(a) + 1;
        let p = problem_with_powers sc ~factors ~levels in
        let still_covered =
          List.for_all
            (fun u -> Problem.neighbor_aps p u <> [])
            must_cover
        in
        if still_covered then begin
          let sol, j = evaluate ~channels ~mu p in
          if j < !best_j -. 1e-9 then begin
            best_j := j;
            best_sol := sol;
            best_problem := p;
            improved := true
          end
          else levels.(a) <- levels.(a) - 1
        end
        else levels.(a) <- levels.(a) - 1
      end
    done
  done;
  {
    levels;
    factors;
    problem = !best_problem;
    solution = !best_sol;
    objective = !best_j;
    full_power_objective = base_j;
  }

(** How many APs ended below full power. *)
let reduced_count plan =
  Array.fold_left (fun n l -> if l > 0 then n + 1 else n) 0 plan.levels
