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
    only improve on the covering cost). The grid runs through the one
    driver, {!Shard.solve_bla}, over the instance's interaction
    components. *)

let name = function
  | `Hard -> "BLA-centralized"
  | `Soft -> "BLA-centralized-soft"

let c_runs = Wlan_obs.Counters.make "bla.runs"

(** [run ?n_guesses p] — [n_guesses] is the size of the [B*] grid
    (default 12). Returns [None] when some coverable user cannot be covered
    within any [B* <= 1] (never happens with budgets at the paper's 0.9 and
    coverable users, since serving one user costs at most
    [session_rate / basic_rate]). *)
let run ?(mode = `Soft) ?n_guesses p =
  Wlan_obs.Counters.incr c_runs;
  Option.map
    (fun (s : Solution.t) -> { s with algorithm = name mode })
    (Shard.solve_bla ~mode ?n_guesses p)

(** [run_exn] for instances known feasible (raises otherwise). *)
let run_exn ?mode ?n_guesses p =
  match run ?mode ?n_guesses p with
  | Some s -> s
  | None -> failwith "Bla.run: no feasible B* found"
