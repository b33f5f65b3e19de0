(* The paper's NP-hardness constructions (Appendix A–C). Each turns an
   instance of the source problem into the equivalent association-control
   instance; test_optimal.ml uses them to cross-check the solvers against
   the exact source-problem solvers (Subset_sum, Makespan) and the
   set-cover branch and bound. *)

open Wlan_model

(** Appendix A: Subset Sum -> MNU. One AP with multicast budget [target];
    number [g_i] becomes session [i] with load [g_i] (unit link rates, one
    session per number, [g_i] users requesting it). Every value is scaled by
    [scale] so loads stay below 1, mirroring the proof's normalization. *)
let of_subset_sum ~numbers ~target =
  let scale = float_of_int (List.fold_left ( + ) 1 numbers + target) in
  let k = List.length numbers in
  let session_rates =
    Array.of_list (List.map (fun g -> float_of_int g /. scale) numbers)
  in
  let user_session =
    List.concat (List.mapi (fun i g -> List.init g (fun _ -> i)) numbers)
    |> Array.of_list
  in
  let n_users = Array.length user_session in
  let rates = [| Array.make n_users 1. |] in
  ignore k;
  Problem.make ~session_rates ~user_session ~rates
    ~budget:(float_of_int target /. scale)
    ()

(** Appendix B: Minimum Makespan Scheduling -> BLA. [m] identical machines
    become [m] APs with a single unit transmission rate to everyone; job [i]
    with processing time [p_i] becomes session [i] (one user) with stream
    rate [p_i] scaled below 1. *)
let of_makespan ~jobs ~machines =
  let scale = List.fold_left ( +. ) 1. jobs in
  let session_rates = Array.of_list (List.map (fun p -> p /. scale) jobs) in
  let n_users = Array.length session_rates in
  let user_session = Array.init n_users (fun i -> i) in
  let rates = Array.init machines (fun _ -> Array.make n_users 1.) in
  Problem.make ~session_rates ~user_session ~rates ~budget:1. ()

(** Appendix C: cardinality Set Cover -> MLA. Subset [S_j] becomes AP [j]
    that reaches exactly the users in [S_j]; all users request one session
    with load [c] over unit-rate links. [subsets] are lists of user indices
    in [0, n_users). *)
let of_set_cover ~n_users ~subsets ~cost =
  let rates =
    Array.of_list
      (List.map
         (fun s ->
           let row = Array.make n_users 0. in
           List.iter (fun u -> row.(u) <- 1.) s;
           row)
         subsets)
  in
  Problem.make ~session_rates:[| cost |]
    ~user_session:(Array.make n_users 0)
    ~rates ~budget:1. ()
