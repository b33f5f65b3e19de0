(** Centralized MLA — Minimize the total Load of APs (§6.1).

    Reduces the instance to weighted Set Cover (Theorem 5) and runs the
    greedy [CostSC] algorithm, a [(ln n + 1)]-approximation (Theorem 6).
    Covers every coverable user; the per-AP budget is not a constraint of
    the MLA formulation (the objective itself drives loads down). *)


let name = "MLA-centralized"

let c_runs = Wlan_obs.Counters.make "mla.runs"

let solution_of ~algorithm p inst ~universe (r : Optkit.Set_cover.result) =
  Reduction.association_of_sets inst ~universe
    (List.map
       (fun (s : Optkit.Set_cover.selection) -> s.set)
       r.Optkit.Set_cover.chosen)
  |> Solution.make ~algorithm p

let run p =
  Wlan_obs.Counters.incr c_runs;
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  solution_of ~algorithm:name p inst ~universe
    (Optkit.Set_cover.greedy ~universe inst)

(** The layering alternative the paper mentions (§6.1): an f-approximation
    where [f] is the largest number of (AP, session, rate) subsets any one
    user appears in — a constant when users hear a bounded number of APs. *)
let run_layered p =
  Wlan_obs.Counters.incr c_runs;
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  solution_of ~algorithm:"MLA-layered" p inst ~universe
    (Optkit.Set_cover.layered ~universe inst)

(** LP-relaxation rounding, also an f-approximation; solves a dense LP, so
    use on small / medium instances only. [None] if the LP solver fails
    (never happens on coverable instances). *)
let run_lp_rounding p =
  Wlan_obs.Counters.incr c_runs;
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  Option.map
    (solution_of ~algorithm:"MLA-lp-rounding" p inst ~universe)
    (Optkit.Set_cover.lp_rounding ~universe inst)

(** Explicit interference modeling — the paper's §8 future work.

    Airtime spent at an AP with many co-channel conflict neighbors hurts
    more than the same airtime at an isolated AP: every conflicting cell
    loses that medium time too. This variant reweights each reduction
    subset's cost by the transmitting AP's {e co-channel conflict degree}
    [d(a)] under the given channel assignment:

    {v cost'(a, s, t) = (rate(s) / t) * (1 + lambda * d(a)) v}

    and runs the same greedy cover. [lambda = 0] recovers plain MLA;
    larger [lambda] trades raw airtime for fewer interference-weighted
    seconds. The returned solution's metrics are still the {e plain}
    Definition-1 loads, so callers can quantify the trade directly. *)
let run_interference_aware ~(channels : Wlan_model.Channels.assignment)
    ?(lambda = 1.0) p =
  if lambda < 0. then invalid_arg "Mla.run_interference_aware: lambda < 0";
  let n_aps, _ = Wlan_model.Problem.dims p in
  (* co-channel conflict degree per AP *)
  let degree = Array.make n_aps 0 in
  List.iter
    (fun (i, j) ->
      if channels.Wlan_model.Channels.channels.(i)
         = channels.Wlan_model.Channels.channels.(j)
      then begin
        degree.(i) <- degree.(i) + 1;
        degree.(j) <- degree.(j) + 1
      end)
    channels.Wlan_model.Channels.conflict_edges;
  let inst = Reduction.cover_instance p in
  (* the same sets over the same planes, at interference-weighted costs *)
  let { Optkit.Cover_instance.n_elements; members; lo; hi; group_of; payload; _ }
      =
    inst
  in
  let costs =
    Array.init (Optkit.Cover_instance.n_sets inst) (fun j ->
        Optkit.Cover_instance.cost inst j
        *. (1. +. (lambda *. float_of_int degree.(group_of.(j)))))
  in
  let weighted =
    Optkit.Cover_instance.of_planes ~n_elements ~members ~lo ~hi ~costs
      ~group_of ~n_groups:n_aps ~payload
  in
  let universe = Reduction.coverable_users p in
  solution_of ~algorithm:"MLA-interference-aware" p weighted ~universe
    (Optkit.Set_cover.greedy ~universe weighted)
