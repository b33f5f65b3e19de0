(* The list-and-Set cover reduction: per AP and session, a
   [Set.Make (Float)] of the distinct link rates over boxed (user, rate)
   list cells. The reference for [Reduction.cover_instance]'s flat
   build, which must emit the same sets, costs, groups and payloads in
   the same (AP, session, ascending rate) order; the qcheck in
   test_flat.ml holds it to that. *)

open Wlan_model
open Mcast_core

let cover_instance ?(filter_over_budget = false) p =
  let n_aps, n_users = Problem.dims p in
  let n_sessions = Problem.n_sessions p in
  let sets = ref [] and costs = ref [] and groups = ref [] and pay = ref [] in
  for a = 0 to n_aps - 1 do
    (* one member-list pass groups the AP's receivers by session *)
    let by_session = Array.make n_sessions [] in
    Problem.iter_members p a (fun u r ->
        let s = Problem.user_session p u in
        by_session.(s) <- (u, r) :: by_session.(s));
    for s = 0 to n_sessions - 1 do
      let members = by_session.(s) in
      (* distinct link rates of session-s users reachable from a, in
         ascending order *)
      let module FS = Set.Make (Float) in
      let rates =
        List.fold_left (fun acc (_, r) -> FS.add r acc) FS.empty members
      in
      FS.iter
        (fun t ->
          let cost = Problem.session_rate p s /. t in
          if (not filter_over_budget) || cost <= Problem.ap_budget p a +. 1e-12
          then begin
            let set = Optkit.Bitset.create n_users in
            List.iter
              (fun (u, r) -> if r >= t then Optkit.Bitset.add set u)
              members;
            sets := set :: !sets;
            costs := cost :: !costs;
            groups := a :: !groups;
            pay := { Reduction.ap = a; session = s; tx_rate = t } :: !pay
          end)
        rates
    done
  done;
  let sets = Array.of_list (List.rev !sets) in
  let costs = Array.of_list (List.rev !costs) in
  let group_of = Array.of_list (List.rev !groups) in
  let payload = Array.of_list (List.rev !pay) in
  Optkit.Cover_instance.make ~n_elements:n_users ~sets ~costs ~group_of
    ~n_groups:n_aps ~payload ()

(* Attribution by (set, newly covered users) pairs: each user goes to
   the AP of its pair. The unsharded references map their runs back
   through it, so the drivers' replay of bare set ids
   ([Reduction.association_of_sets]) is held to per-round attributions. *)
let association_of_selections p inst selections =
  let _, n_users = Problem.dims p in
  let assoc = Association.empty ~n_users in
  List.iter
    (fun (set, newly) ->
      let { Reduction.ap; _ } = Optkit.Cover_instance.payload inst set in
      Optkit.Bitset.iter (fun u -> Association.serve assoc ~user:u ~ap) newly)
    selections;
  assoc
