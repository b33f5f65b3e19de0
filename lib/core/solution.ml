(** Uniform output of every association algorithm: the association plus the
    evaluation metrics the paper reports (satisfied users, per-AP loads,
    total load, maximum load). *)

open Wlan_model

type t = {
  algorithm : string;
  assoc : Association.t;
  satisfied : int;  (** users served *)
  ap_loads : float array;
  total_load : float;  (** MLA objective *)
  max_load : float;  (** BLA objective *)
}

(** Evaluate an association against a problem. *)
let make ~algorithm p assoc =
  let ap_loads = Loads.ap_loads p assoc in
  {
    algorithm;
    assoc;
    satisfied = Association.served_count assoc;
    ap_loads;
    total_load = Array.fold_left ( +. ) 0. ap_loads;
    max_load = Array.fold_left Float.max 0. ap_loads;
  }

(** Sanity of a solution w.r.t. its problem: every served user in range of
    its AP. *)
let in_range_ok p t = Association.in_range_ok p t.assoc

(** Budget feasibility: every AP load within the per-AP multicast budget. *)
let respects_budget p t = Loads.respects_budget p t.assoc

let unsatisfied p t =
  let _, n_users = Problem.dims p in
  n_users - t.satisfied

let pp ppf t =
  Fmt.pf ppf
    "@[<v>%s: %d users served, total load %.4f, max load %.4f@]" t.algorithm
    t.satisfied t.total_load t.max_load
