(* Distributed convergence, oscillation, and the lock-based fix.

   Replays the paper's Figure 4 counter-example: four users of one stream
   between two APs. When u2 and u3 re-decide simultaneously they swap
   associations forever; deciding one at a time (Lemma 1) converges, and
   so does the paper's §8 future-work idea — implemented here — of taking
   locks on the neighborhood APs before committing a move.

   The same comparison is then run on a 100-AP network, at both the
   abstract level and inside the discrete-event simulator (real messages,
   real latencies).

   Run with: dune exec examples/distributed_convergence.exe *)

open Wlan_model
open Mcast_core

let describe name (o : Distributed.outcome) p =
  Fmt.pr "%-14s rounds %3d  moves %3d  converged %-5b oscillated %-5b \
          total load %.4f@."
    name o.Distributed.rounds o.Distributed.moves o.Distributed.converged
    o.Distributed.oscillated
    (Loads.total_load p o.Distributed.assoc)

let () =
  Fmt.pr "=== Figure 4: two users deciding simultaneously ===@.";
  let p = Examples.fig4 in
  let init = Examples.fig4_initial in
  Fmt.pr "initial loads: %a@.@." Loads.pp_loads (Loads.ap_loads p init);
  List.iter
    (fun (name, sched) ->
      describe name
        (Distributed.run ~init ~scheduler:sched
           ~objective:Distributed.Min_total_load p)
        p)
    [
      ("sequential", Distributed.Sequential);
      ("simultaneous", Distributed.Simultaneous);
      ("locked", Distributed.Locked);
    ];

  Fmt.pr "@.=== Same comparison on a 100-AP / 200-user campus ===@.";
  let cfg = { Scenario_gen.paper_default with n_aps = 100; n_users = 200 } in
  let p =
    List.hd (Scenario_gen.problems ~seed:5 ~n:1 cfg)
  in
  List.iter
    (fun (name, sched) ->
      describe name
        (Distributed.run ~scheduler:sched
           ~objective:Distributed.Min_total_load p)
        p)
    [
      ("sequential", Distributed.Sequential);
      ("simultaneous", Distributed.Simultaneous);
      ("locked", Distributed.Locked);
    ];

  Fmt.pr "@.=== And over the air (message-level protocol, DES) ===@.";
  let rng = Random.State.make [| 5 |] in
  let scenario = Scenario_gen.generate ~rng { cfg with n_users = 60; n_aps = 30 } in
  List.iter
    (fun (name, mode) ->
      let r =
        Wlan_sim.Runner.run
          ~policy:
            (Wlan_sim.Runner.Distributed_policy
               {
                 objective = Distributed.Min_total_load;
                 mode;
                 max_passes = 40;
               })
          scenario
      in
      Fmt.pr "%-14s passes %3d  converged %-5b oscillated %-5b events %6d  \
              total load %.4f@."
        name r.Wlan_sim.Runner.passes r.Wlan_sim.Runner.converged
        r.Wlan_sim.Runner.oscillated r.Wlan_sim.Runner.events
        r.Wlan_sim.Runner.solution.Solution.total_load)
    [
      ("sequential", `Sequential);
      ("simultaneous", `Simultaneous);
    ]
