(** Uniform output of every association algorithm: the association plus
    the metrics the paper reports. *)

open Wlan_model

type t = {
  algorithm : string;
  assoc : Association.t;
  satisfied : int;  (** users served *)
  ap_loads : float array;
  total_load : float;  (** MLA objective *)
  max_load : float;  (** BLA objective *)
}

(** Evaluate an association against a problem. *)
val make : algorithm:string -> Problem.t -> Association.t -> t

(** Every served user in range of its AP. *)
val in_range_ok : Problem.t -> t -> bool

(** Every AP load within the per-AP multicast budget (tolerance
    [1e-9]). *)
val respects_budget : Problem.t -> t -> bool

val unsatisfied : Problem.t -> t -> int
val pp : Format.formatter -> t -> unit
