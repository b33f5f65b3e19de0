(** Centralized BLA — Balance the Load among APs (§5.1).

    Reduces the instance to Set Cover with Group Budgets (Theorem 3) and
    runs the iterated-MCG algorithm of Fig. 6: guess the optimal bound
    [B*], give every AP that budget, and repeat Centralized MNU
    [log_{8/7} n + 1] times until every user is covered — a
    [(log_{8/7} n + 1)]-approximation of the minimum maximum AP load
    (Theorem 4). The [B*] guesses form a grid between the maximum single-set
    cost and 1 (the paper: "try several values of B* between c_max and 1");
    among the feasible runs we keep the one whose {e realized} association
    has the smallest maximum AP load (merging transmissions at one AP can
    only improve on the covering cost). *)


let name = function
  | `Hard -> "BLA-centralized"
  | `Soft -> "BLA-centralized-soft"

let c_runs = Wlan_obs.Counters.make "bla.runs"

let src = Logs.Src.create "mcast.bla" ~doc:"Centralized BLA"

module Log = (val Logs.src_log src : Logs.LOG)

let solution_of_scg ~mode p inst (r : Optkit.Scg.result) =
  let assoc =
    Reduction.association_of_selections p inst
      (List.map
         (fun (s : Optkit.Mcg.selection) -> (s.set, s.newly))
         (Optkit.Scg.selections r))
  in
  Solution.make ~algorithm:(name mode) p assoc

(** [run ?n_guesses p] — [n_guesses] is the size of the [B*] grid
    (default 12). Returns [None] when some coverable user cannot be covered
    within any [B* <= 1] (never happens with budgets at the paper's 0.9 and
    coverable users, since serving one user costs at most
    [session_rate / basic_rate]).

    [fanout] passes through to {!Optkit.Scg.solve_grid} and parallelizes
    the grid with an identical result. *)
let run ?(mode = `Soft) ?fanout ?(n_guesses = 12) p =
  Wlan_obs.Counters.incr c_runs;
  let inst = Reduction.cover_instance p in
  let universe = Reduction.coverable_users p in
  let grid = Optkit.Scg.default_grid ~n_guesses ~universe inst in
  (* grid probes reuse one arena's scratch planes — but only when they
     run on the default sequential fanout; an injected fanout may be a
     pool, and arenas must never cross domains *)
  let arena =
    match fanout with
    | None -> Some (Optkit.Arena.create ())
    | Some _ -> None
  in
  let feasible =
    Optkit.Scg.solve_grid ~mode ?arena ?fanout inst ~universe
      ~grid ()
  in
  match feasible with
  | [] -> None
  | runs ->
      Log.debug (fun m ->
          m "%d feasible B* guesses out of %d" (List.length runs)
            (List.length grid));
      let sols = List.map (solution_of_scg ~mode p inst) runs in
      let best =
        List.fold_left
          (fun (best : Solution.t) (s : Solution.t) ->
            if s.max_load < best.max_load -. 1e-12 then s else best)
          (List.hd sols) (List.tl sols)
      in
      Log.debug (fun m -> m "best realized max load %.4f" best.max_load);
      Some best

(** [run_exn] for instances known feasible (raises otherwise). *)
let run_exn ?mode ?fanout ?n_guesses p =
  match run ?mode ?fanout ?n_guesses p with
  | Some s -> s
  | None -> failwith "Bla.run: no feasible B* found"
