(** Aggregation over random scenarios: the paper reports min/avg/max over
    40 scenarios for every figure point. *)

(* the drivers golden pins each summary's sample count —
   lint: allow field-reachability *)
type summary = { mean : float; min : float; max : float; n : int }

(** @raise Invalid_argument on the empty sample. *)
val summarize : float list -> summary

(** Percent improvement when lower is better: [(a - b) / a * 100]. *)
val pct_reduction : baseline:float -> improved:float -> float

(** Percent improvement when higher is better: [(b - a) / a * 100]. *)
val pct_gain : baseline:float -> improved:float -> float
