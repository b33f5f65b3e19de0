(** Exact (optimal) solvers for the three problems on small instances —
    the paper's Fig. 12 baselines, via set-cover branch and bound (MLA)
    and 0/1 ILPs (MNU, BLA) on {!Optkit.Ilp}. All exponential in the worst
    case; node-limited searches report [proved_optimal = false]. A
    brute-force association enumerator is provided for cross-checks on
    tiny instances. *)

open Wlan_model

type 'a verdict = { value : 'a; solution : Solution.t; proved_optimal : bool }

(** Exact MLA (specialized weighted-set-cover branch and bound); [None]
    only for genuinely uncoverable formulations (never with the default
    coverable universe). *)
val mla : ?node_limit:int -> Problem.t -> float verdict option

(** Exact MNU via ILP, with no incumbent to start from. Serving nobody
    is always feasible, so [None] means only that the node limit ran out
    before the search reached an integral solution. *)
val mnu : ?node_limit:int -> Problem.t -> int verdict option

(** Exact BLA via ILP (binary transmission variables + continuous
    makespan). With [initial_bound] (a known max load), [None] means
    nothing strictly better was found — keep the greedy solution. *)
val bla :
  ?node_limit:int -> ?initial_bound:float -> Problem.t -> float verdict option

(** {1 Brute force} — enumerate complete assignments; tiny instances
    only. [Max_served] enforces the budget; the minimization objectives
    serve every coverable user. *)

type brute_objective = Max_served | Min_max_load | Min_total_load

(* lint: allow export-reachability — exhaustive oracle the exact solvers are checked against *)
val brute_force :
  objective:brute_objective -> Problem.t -> Solution.t option
