(** Quasi-static user mobility across association epochs.

    The paper assumes users "tend to stay at one place for a relatively
    long time period before changing their location" (§3.1, citing the
    SIGMETRICS'02 / MobiCom'02 campus measurement studies). This driver
    models exactly that regime: long epochs during which the network is
    static and the association protocol runs to convergence, separated by
    instants at which a fraction of users relocate.

    Each epoch re-runs the {!Runner} pipeline seeded with the previous
    epoch's association (users whose old AP fell out of range rejoin from
    scratch), so the per-epoch reports expose the re-convergence cost —
    how many protocol passes and re-associations a mobility burst incurs —
    and the steady-state quality after each burst. *)

open Wlan_model

type epoch_report = {
  epoch : int;
  relocated : int;  (** users moved at the start of this epoch *)
  report : Runner.report;
  rejoin_moves : int;
      (** users whose association changed relative to the previous epoch *)
}

let relocate ~rng ~fraction (sc : Scenario.t) =
  let n = Scenario.n_users sc in
  let k =
    Int.min n (int_of_float (ceil (fraction *. float_of_int n)))
  in
  let user_pos = Array.copy sc.Scenario.user_pos in
  (* pick k distinct users by shuffling indices *)
  let idx = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- t
  done;
  let moved = Array.sub idx 0 k in
  Array.iter
    (fun u ->
      user_pos.(u) <-
        Point.random ~rng ~w:sc.Scenario.area_w ~h:sc.Scenario.area_h)
    moved;
  ( Scenario.make ~area_w:sc.Scenario.area_w ~area_h:sc.Scenario.area_h
      ~ap_pos:sc.Scenario.ap_pos ~user_pos
      ~user_session:sc.Scenario.user_session ~sessions:sc.Scenario.sessions
      ~rate_table:sc.Scenario.rate_table ~model:sc.Scenario.model
      ~budget:sc.Scenario.budget (),
    k )

let diff_count (a : Association.t) (b : Association.t) =
  let n = Int.min (Array.length a) (Array.length b) in
  let d = ref 0 in
  for u = 0 to n - 1 do
    if a.(u) <> b.(u) then incr d
  done;
  !d

(** [run ~epochs ~move_fraction ~policy sc] simulates [epochs] association
    epochs; before every epoch after the first, [move_fraction] of the
    users relocate uniformly. Returns one report per epoch, in order. *)
let run ?(seed = 0) ?(move_fraction = 0.1) ?(ap_failure_fraction = 0.) ?(epochs = 5) ?loss_rate ~policy
    (sc : Scenario.t) =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let rec go epoch sc prev_assoc acc =
    if epoch > epochs then List.rev acc
    else begin
      let sc, relocated =
        if epoch = 1 then (sc, 0) else relocate ~rng ~fraction:move_fraction sc
      in
      (* transient AP outages: a fresh sample every epoch after the first *)
      let disabled_aps =
        if epoch = 1 || ap_failure_fraction <= 0. then []
        else begin
          let n = Scenario.n_aps sc in
          let k =
            Int.min n
              (int_of_float (ceil (ap_failure_fraction *. float_of_int n)))
          in
          let idx = Array.init n Fun.id in
          for i = n - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = idx.(i) in
            idx.(i) <- idx.(j);
            idx.(j) <- t
          done;
          Array.to_list (Array.sub idx 0 k)
        end
      in
      let report =
        Runner.run ~seed:(seed + epoch) ?loss_rate ~disabled_aps
          ?init:prev_assoc ~policy sc
      in
      let rejoin_moves =
        match prev_assoc with
        | None -> 0
        | Some prev -> diff_count prev report.Runner.assoc
      in
      go (epoch + 1) sc
        (Some (Association.copy report.Runner.assoc))
        ({ epoch; relocated; report; rejoin_moves } :: acc)
    end
  in
  go 1 sc None []
