(* The strongest-signal references, shared by the test suites: the
   signal-sorted neighbour list whose head [Problem.strongest_ap] must
   be, and the SSA baseline as an eager admission loop whose every
   hypothetical load is a full scan of the users ([Loads.load_if_joins])
   — what [Ssa.run]'s per-AP transmission rows must reproduce bit for
   bit. *)

open Wlan_model

(* APs within range of user [u], strongest signal first (a stable sort:
   ties keep the lower AP index first) *)
let neighbors_by_signal p u =
  Problem.neighbor_aps p u
  |> List.stable_sort (fun a b ->
         Float.compare
           (Problem.signal p ~ap:b ~user:u)
           (Problem.signal p ~ap:a ~user:u))

(* users in index order, each admitted to the head of its list when the
   scanned hypothetical load stays within the AP's budget *)
let ssa p =
  let _, n_users = Problem.dims p in
  let assoc = Association.empty ~n_users in
  for u = 0 to n_users - 1 do
    match neighbors_by_signal p u with
    | [] -> ()
    | a :: _ ->
        let load = Loads.load_if_joins p assoc ~user:u ~ap:a in
        if load <= Problem.ap_budget p a +. 1e-12 then
          Association.serve assoc ~user:u ~ap:a
  done;
  Mcast_core.Solution.make ~algorithm:Mcast_core.Ssa.name p assoc
