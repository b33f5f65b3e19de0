(** End-to-end simulation runs: scan → associate (under a policy) → stream
    → measure. This is the harness that replaces the paper's ns-2 setup.

    Phases:
    + {b Scanning} — active probe scan (see {!Scanning}); users learn their
      neighbor APs, link rates and signal strengths.
    + {b Association} — per the policy: SSA joins the strongest AP with
      admission control; the distributed policies run the query/response
      protocol of {!Proto} in passes (sequential, one user at a time, or
      simultaneous, everyone deciding on the same snapshot); [Static]
      installs a precomputed association (how the centralized algorithms
      are deployed: computed offline, pushed to users).
    + {b Streaming} — every served (AP, session) pair transmits periodic
      multicast frames ({!Mac}); per-AP airtime over the window gives the
      measured load, which the tests cross-check against Definition 1. *)

open Wlan_model

let src = Logs.Src.create "wlansim.runner" ~doc:"End-to-end simulation runs"

module Log = (val Logs.src_log src : Logs.LOG)

type policy =
  | Ssa_policy
  | Distributed_policy of {
      objective : Mcast_core.Distributed.objective;
      mode : [ `Sequential | `Simultaneous ];
      max_passes : int;
    }
  | Static_policy of Association.t

type report = {
  problem : Problem.t;
  assoc : Association.t;
  solution : Mcast_core.Solution.t;
  analytic_loads : float array;  (** Definition 1 on the final association *)
  measured_loads : float array;  (** airtime counted by the MAC *)
  passes : int;
  converged : bool;
  oscillated : bool;
  events : int;  (** simulation events processed *)
  sim_time : float;
}

(* message timing *)
let query_proc = 1e-3
let user_slot = 10e-3 (* sequential decision slot per user *)

(** [run ~policy sc] simulates the whole pipeline on scenario [sc].

    [init], when given, is installed as the starting association right
    after scanning (users already associated from a previous epoch); users
    whose old AP is no longer within range are left unserved and rejoin
    through the protocol.

    [loss_rate] drops each protocol query/response exchange independently
    with that probability (deterministically from [seed]); the distributed
    decision rule degrades gracefully to the neighbors it heard from.

    [disabled_aps] models failed or administratively-down APs: they never
    answer probes, so no user can discover or associate with them (users
    arriving with a stale [init] association to a dead AP rejoin through
    the protocol). *)
let run ?(seed = 0) ?(streaming_window = 1.0) ?(loss_rate = 0.)
    ?(disabled_aps = []) ?init ~policy (sc : Scenario.t) =
  let p = Scenario.to_problem sc in
  let radio = Radio.of_scenario sc in
  let engine = Engine.create ~seed () in
  let n_aps = Scenario.n_aps sc and n_users = Scenario.n_users sc in
  let session_rates = Array.map Session.rate_mbps sc.Scenario.sessions in
  let user_session = sc.Scenario.user_session in
  let aps = Array.init n_aps Proto.ap_create in
  let assoc = Association.empty ~n_users in
  let neighbors : Proto.neighbor_info list array = Array.make n_users [] in
  let passes = ref 0 and converged = ref false and oscillated = ref false in
  let assoc_done = ref 0. in

  let link_rate u a =
    (List.find (fun (n : Proto.neighbor_info) -> n.ap = a) neighbors.(u))
      .Proto.link_rate
  in
  let in_range u a =
    List.exists (fun (n : Proto.neighbor_info) -> n.Proto.ap = a) neighbors.(u)
  in
  let apply_move u target =
    (match Association.ap_of assoc u with
    | Some old when old <> target ->
        Proto.ap_leave aps.(old) ~user:u
    | _ -> ());
    if Association.ap_of assoc u <> Some target then begin
      Proto.ap_join aps.(target) ~user:u ~session:user_session.(u)
        ~link_rate:(link_rate u target);
      Association.serve assoc ~user:u ~ap:target
    end
  in

  (* one user's query -> responses -> decision; [commit] receives the
     decision once all responses have arrived *)
  let query_and_decide ~objective u ~commit =
    let resps = ref [] in
    let pending = ref (List.length neighbors.(u)) in
    if !pending = 0 then commit None
    else begin
      let finish () =
        decr pending;
        if !pending = 0 then
          commit
            (Proto.decide ~objective ~session_rates
               ~session:user_session.(u)
               ~current:(Association.ap_of assoc u)
               ~neighbors:neighbors.(u) ~responses:!resps)
      in
      List.iter
        (fun (n : Proto.neighbor_info) ->
          let lost =
            loss_rate > 0.
            && Random.State.float (Engine.rng engine) 1. < loss_rate
          in
          if lost then
            (* the user gives this AP up after a response timeout *)
            Engine.after engine ~delay:5e-3 finish
          else begin
            let rtt =
              (2. *. Radio.propagation_delay radio ~ap:n.ap ~user:u)
              +. query_proc
              +. Engine.jitter engine ~max:0.5e-3
            in
            Engine.after engine ~delay:rtt (fun () ->
                resps :=
                  Proto.ap_answer aps.(n.ap) ~session_rates
                    ~budget:(Problem.ap_budget p n.ap) ~user:u
                  :: !resps;
                finish ())
          end)
        neighbors.(u)
    end
  in

  (* association phase entry point, invoked after scanning completes *)
  let start_association () =
    (match init with
    | Some a ->
        Array.iteri
          (fun u ap ->
            (* a user may have moved out of its old AP's range since the
               previous epoch; it rejoins through the protocol instead *)
            if ap >= 0 && in_range u ap then apply_move u ap)
          a
    | None -> ());
    let t0 = Engine.now engine in
    match policy with
    | Static_policy a ->
        Array.iteri
          (fun u ap ->
            if ap >= 0 then begin
              if not (in_range u ap) then
                invalid_arg
                  (Printf.sprintf
                     "Runner.run: Static_policy puts user %d on AP %d, \
                      not among the APs its scan found"
                     u ap);
              apply_move u ap
            end)
          a;
        converged := true;
        assoc_done := t0 +. 1e-3;
        passes := 1
    | Ssa_policy ->
        (* users join their strongest AP in index order; the AP admits the
           user only if its budget allows (no fallback to weaker APs) *)
        for u = 0 to n_users - 1 do
          Engine.schedule engine
            ~at:(t0 +. (float_of_int u *. user_slot))
            (fun () ->
              match neighbors.(u) with
              | [] -> ()
              | best :: _ ->
                  let st = aps.(best.Proto.ap) in
                  Proto.ap_join st ~user:u ~session:user_session.(u)
                    ~link_rate:best.Proto.link_rate;
                  if
                    Proto.ap_load st ~session_rates
                    <= Problem.ap_budget p best.Proto.ap +. 1e-12
                  then Association.serve assoc ~user:u ~ap:best.Proto.ap
                  else Proto.ap_leave st ~user:u)
        done;
        converged := true;
        passes := 1;
        assoc_done := t0 +. (float_of_int n_users *. user_slot)
    | Distributed_policy { objective; mode; max_passes } ->
        let seen = Hashtbl.create 64 in
        let rec pass k t_pass =
          passes := k;
          let moves = ref 0 in
          let pending_decisions = ref [] in
          let decided = ref 0 in
          let finish_pass () =
            (match mode with
            | `Sequential -> ()
            | `Simultaneous ->
                (* apply the snapshot decisions all at once; a state seen
                   before (after a round that did move someone) means the
                   protocol is cycling *)
                List.iter (fun (u, ap) -> apply_move u ap) !pending_decisions;
                moves := List.length !pending_decisions;
                if !moves > 0 then begin
                  let key = Array.to_list assoc in
                  if Hashtbl.mem seen key then oscillated := true
                  else Hashtbl.replace seen key ()
                end);
            let t_next = Engine.now engine +. user_slot in
            if !moves = 0 then begin
              converged := true;
              assoc_done := t_next
            end
            else if k >= max_passes || !oscillated then assoc_done := t_next
            else pass (k + 1) t_next
          in
          for u = 0 to n_users - 1 do
            let at =
              match mode with
              | `Sequential -> t_pass +. (float_of_int u *. user_slot)
              | `Simultaneous -> t_pass
            in
            Engine.schedule engine ~at (fun () ->
                query_and_decide ~objective u ~commit:(fun d ->
                    (match (d, mode) with
                    | Some ap, `Sequential ->
                        apply_move u ap;
                        incr moves
                    | Some ap, `Simultaneous ->
                        pending_decisions := (u, ap) :: !pending_decisions
                    | None, _ -> ());
                    incr decided;
                    if !decided = n_users then finish_pass ()))
          done;
          if n_users = 0 then begin
            converged := true;
            assoc_done := t_pass
          end
        in
        pass 1 t0
  in

  (* phase 1: scanning *)
  Scanning.start engine radio ~on_complete:(fun results ->
      let sorted = Scanning.sort_by_signal results in
      Array.iteri
        (fun u l ->
          neighbors.(u) <-
            List.filter_map
              (fun (n : Scanning.neighbor) ->
                if List.mem n.Scanning.ap disabled_aps then None
                else
                  Some
                    {
                      Proto.ap = n.Scanning.ap;
                      link_rate = n.Scanning.link_rate_mbps;
                      signal = n.Scanning.signal;
                    })
              l)
        sorted;
      start_association ());
  ignore (Engine.run engine);

  (* phase 3: streaming over a fresh window after association settles *)
  let t_stream = !assoc_done +. 10e-3 in
  let acc =
    Mac.start engine ~n_aps
      ~window:(t_stream, t_stream +. streaming_window)
      (Mac.plan_of_association p assoc)
  in
  let sim_time = Engine.run engine in
  let solution = Mcast_core.Solution.make ~algorithm:"simulated" p assoc in
  Log.debug (fun m ->
      m
        "run done: %d events, %.3fs virtual, passes %d, converged %b, \
         oscillated %b, served %d"
        (Engine.processed engine) sim_time !passes !converged !oscillated
        solution.Mcast_core.Solution.satisfied);
  {
    problem = p;
    assoc;
    solution;
    analytic_loads = Loads.ap_loads p assoc;
    measured_loads = Mac.measured_loads acc;
    passes = !passes;
    converged = !converged;
    oscillated = !oscillated;
    events = Engine.processed engine;
    sim_time;
  }
