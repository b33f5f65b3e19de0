(* The boxed reference loop of the distributed rule, shared by the
   lockstep batteries of test_flat.ml and test_churn.ml: rounds over
   every user, each decision from the public [Distributed.decide] (the
   list-and-array rule) against loads recomputed by the eager scan — no
   dirty set, no tracker, no scratch planes.

   - [Sequential] visits users in ascending order and applies each move
     at once.
   - [Simultaneous] decides the round on one snapshot, applies it, and
     stops on a revisited association.
   - [Locked] starts round [r] (from 0) at user [r mod n_users]. A user
     with an empty neighborhood or a locked neighbor AP sits the round
     out; otherwise it locks its neighborhood and decides on live state.
     A mover keeps its locks to the round's end, a stayer releases them.

   A round with no move converges. Mutates [assoc], which the outcome
   returns. *)

open Wlan_model
open Mcast_core

let run ~max_rounds ~scheduler ~objective p assoc =
  let n_aps, n_users = Problem.dims p in
  let decide u =
    Distributed.decide p assoc ~loads:(Loads.ap_loads p assoc) ~objective u
  in
  let rounds = ref 0 and moves = ref 0 in
  let converged = ref false and oscillated = ref false in
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen (Array.to_list assoc) ();
  while (not !converged) && (not !oscillated) && !rounds < max_rounds do
    let origin = if n_users = 0 then 0 else !rounds mod n_users in
    incr rounds;
    let moved = ref false in
    let move u a =
      assoc.(u) <- a;
      incr moves;
      moved := true
    in
    (match scheduler with
    | Distributed.Sequential ->
        for u = 0 to n_users - 1 do
          Option.iter (move u) (decide u)
        done
    | Distributed.Simultaneous ->
        let ds =
          List.filter_map
            (fun u -> Option.map (fun a -> (u, a)) (decide u))
            (List.init n_users Fun.id)
        in
        List.iter (fun (u, a) -> move u a) ds;
        if ds <> [] then begin
          let key = Array.to_list assoc in
          if Hashtbl.mem seen key then oscillated := true
          else Hashtbl.replace seen key ()
        end
    | Distributed.Locked ->
        let locked = Array.make n_aps false in
        for i = 0 to n_users - 1 do
          let u = (i + origin) mod n_users in
          let ns = Problem.neighbor_aps p u in
          if ns <> [] && List.for_all (fun a -> not locked.(a)) ns then begin
            List.iter (fun a -> locked.(a) <- true) ns;
            match decide u with
            | None -> List.iter (fun a -> locked.(a) <- false) ns
            | Some a -> move u a
          end
        done);
    if not !moved then converged := true
  done;
  {
    Distributed.assoc;
    rounds = !rounds;
    moves = !moves;
    converged = !converged;
    oscillated = !oscillated;
  }
