(* The brute-force all-pairs compile: every AP-user pair through the
   scenario's link predicate into (AP × user) matrices, then
   [Problem.make]. It is the oracle the grid compile
   ([Scenario.to_problem]) is checked against: the grid may only skip
   pairs that the predicate rejects. *)

open Wlan_model

let problem (sc : Scenario.t) =
  let n_aps = Scenario.n_aps sc and n_users = Scenario.n_users sc in
  let rates = Array.make_matrix n_aps n_users 0. in
  let signal = Array.make_matrix n_aps n_users 0. in
  for a = 0 to n_aps - 1 do
    for u = 0 to n_users - 1 do
      let dist = Point.dist sc.Scenario.ap_pos.(a) sc.Scenario.user_pos.(u) in
      match Rate_model.link sc.Scenario.model ~ap:a ~user:u ~dist with
      | Some (r, s) ->
          rates.(a).(u) <- r;
          signal.(a).(u) <- s
      | None -> ()
    done
  done;
  Problem.make ~signal ~allow_uncovered:true
    ~session_rates:(Array.map Session.rate_mbps sc.Scenario.sessions)
    ~user_session:(Array.copy sc.Scenario.user_session)
    ~rates ~budget:sc.Scenario.budget ()
