(** Aggregation over random scenarios. The paper reports the average,
    minimum and maximum over 40 random scenarios for every figure. *)

type summary = { mean : float; min : float; max : float; n : int }

let summarize = function
  | [] -> invalid_arg "Stats.summarize: empty sample"
  | xs ->
      let n = List.length xs in
      {
        mean = List.fold_left ( +. ) 0. xs /. float_of_int n;
        min = List.fold_left Float.min infinity xs;
        max = List.fold_left Float.max neg_infinity xs;
        n;
      }

(** Percentage by which [b] improves on [a] when lower is better:
    [(a - b) / a * 100]. *)
let pct_reduction ~baseline ~improved =
  (* exact zero guards a division, not a tolerance decision *)
  if (baseline = 0.) [@lint.allow float_eq] then 0.
  else (baseline -. improved) /. baseline *. 100.

(** Percentage by which [b] improves on [a] when higher is better:
    [(b - a) / a * 100]. *)
let pct_gain ~baseline ~improved =
  if (baseline = 0.) [@lint.allow float_eq] then 0.
  else (improved -. baseline) /. baseline *. 100.
