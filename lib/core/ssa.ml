(** Signal-Strength-based Association (SSA) — the 802.11 default and the
    paper's baseline: every user associates with the AP offering the
    strongest signal among its neighbors.

    Admission control follows the paper's MNU walk-through (§4.1 example):
    users arrive in index order, and a user is turned away when admitting it
    would push its strongest AP past the multicast load budget — it does
    {e not} fall back to a weaker AP, because 802.11 association considers
    signal strength only. *)

open Wlan_model

let name = "SSA"

(* Admission keeps each AP's per-session transmission-rate row as users
   join: the hypothetical load is {!Loads.load_of_tx} over the row with
   the user's session entry replaced — the same fold, over the same
   row, as a scan of every member user (the per-session min is
   order-insensitive), without the scan. *)
let run p =
  let n_aps, n_users = Problem.dims p in
  let assoc = Association.empty ~n_users in
  let tx = Array.make_matrix n_aps (Problem.n_sessions p) 0. in
  for u = 0 to n_users - 1 do
    match Problem.strongest_ap p u with
    | None -> ()
    | Some a ->
        let row = tx.(a) and s = Problem.user_session p u in
        let cur = row.(s) and r = Problem.link_rate p ~ap:a ~user:u in
        (* 0. is the exact "no member yet" sentinel *)
        if (cur = 0.) [@lint.allow float_eq] || r < cur then row.(s) <- r;
        if Loads.load_of_tx p row <= Problem.ap_budget p a +. 1e-12 then
          Association.serve assoc ~user:u ~ap:a
        else row.(s) <- cur
  done;
  Solution.make ~algorithm:name p assoc
