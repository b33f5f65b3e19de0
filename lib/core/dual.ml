(** Dual association: independent unicast and multicast APs per user.

    §3.1 of the paper adopts the multi-association framework of Lee,
    Chandrasekaran & Sinha (WiMesh'05) for users that are simultaneously
    unicast and multicast clients: the user keeps its strongest-signal AP
    for unicast (latency and per-user QoS live there) while the multicast
    stream is taken from whichever AP the association-control algorithm
    picked, exploiting overlapping coverage.

    This module models the combined airtime economy. Every user has a
    unicast demand in Mbps; delivering demand [d] over a link running at
    rate [r] costs [d / r] of the AP's airtime, on top of the multicast
    load of Definition 1. Comparing the combined per-AP airtime of

    - {e single association}: one SSA-chosen AP carries both roles, vs.
    - {e dual association}: SSA for unicast + MLA/BLA for multicast,

    quantifies how much unicast capacity association control returns to
    the network — the paper's core motivation. *)

open Wlan_model

type t = {
  unicast : Association.t;
  multicast : Association.t;
}

(** Airtime each AP spends serving its unicast users' demands:
    [sum over its users of demand / link_rate]. Unserved users (no AP in
    range) cost nothing. *)
let unicast_loads p ~(demands : float array) (assoc : Association.t) =
  let n_aps, n_users = Problem.dims p in
  if Array.length demands <> n_users then
    invalid_arg "Dual.unicast_loads: demands arity";
  let loads = Array.make n_aps 0. in
  Array.iteri
    (fun u a ->
      if a <> Association.none then begin
        let r = Problem.link_rate p ~ap:a ~user:u in
        if r > 0. then loads.(a) <- loads.(a) +. (demands.(u) /. r)
      end)
    assoc;
  loads

type combined = {
  total : float;  (** unicast + multicast airtime over every AP *)
  max : float;  (** the busiest AP's unicast + multicast airtime *)
}

(** Combined airtime of a dual association. *)
let combined p ~demands t =
  let uni = unicast_loads p ~demands t.unicast in
  let multi = Loads.ap_loads p t.multicast in
  let per_ap = Array.map2 ( +. ) uni multi in
  {
    total = Array.fold_left ( +. ) 0. per_ap;
    max = Array.fold_left Float.max 0. per_ap;
  }

(** Unicast side: every user on its strongest-signal AP (no admission
    control — unicast capacity planning is out of scope here). *)
let unicast_ssa p =
  let _, n_users = Problem.dims p in
  let assoc = Association.empty ~n_users in
  for u = 0 to n_users - 1 do
    match Problem.strongest_ap p u with
    | Some a -> Association.serve assoc ~user:u ~ap:a
    | None -> ()
  done;
  assoc

(** Single association: the SSA AP carries both unicast and multicast. *)
let single_association p =
  let uni = unicast_ssa p in
  { unicast = uni; multicast = Association.copy uni }

(** Dual association: SSA unicast + association-controlled multicast. *)
let plan ?(objective = `Mla) p =
  let multicast =
    match objective with
    | `Mla -> (Mla.run p).Solution.assoc
    | `Bla -> (Bla.run_exn ~mode:`Hard p).Solution.assoc
    | `Mnu -> (Mnu.run p).Solution.assoc
  in
  { unicast = unicast_ssa p; multicast }

(** Uniform unicast demand for quick studies. *)
let uniform_demands p ~mbps =
  Array.make (snd (Problem.dims p)) mbps

type comparison = {
  single : combined;
  dual : combined;
  total_saving_pct : float;
}

(** Head-to-head single vs dual association at the given demands. *)
let compare_single_vs_dual ?(objective = `Mla) p ~demands =
  let single = combined p ~demands (single_association p) in
  let dual = combined p ~demands (plan ~objective p) in
  let pct a b =
    if (a = 0.) [@lint.allow float_eq] then 0. else (a -. b) /. a *. 100.
  in
  {
    single;
    dual;
    total_saving_pct = pct single.total dual.total;
  }
