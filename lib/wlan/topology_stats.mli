(** Deployment statistics: coverage, overlap (the slack association
    control exploits), link-rate mix and session audiences. *)

type t = {
  n_aps : int;
  n_users : int;
  covered_users : int;
  mean_user_degree : float;  (** mean APs in range per covered user *)
  max_user_degree : int;
  multi_covered_users : int;  (** users with >= 2 APs in range *)
  mean_best_rate : float;  (** mean best link rate per covered user (Mbps) *)
  rate_histogram : (float * int) list;
      (** distinct best-link rates -> user counts, highest first *)
  session_audience : int array;  (** session index -> subscriber count *)
}

val of_problem : Problem.t -> t

val pp : Format.formatter -> t -> unit
