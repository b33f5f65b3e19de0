(** Deterministic JSON/CSV rendering of churn disruption metrics.

    Pure functions of the runs: floats print with [%.17g], steps
    chronological, runs in caller order, and no wall-clock or job-count
    fields — the same replay renders byte-identical output at every
    [--jobs] value (the CI churn-smoke diff relies on this). Renders
    strings only; file IO belongs to the binary. *)

open Wlan_sim

type run = {
  label : string;  (** e.g. ["mnu"] — names the algorithm variant *)
  objective : string;
  mode : string;  (** ["sequential"] or ["simultaneous"] *)
  outcome : Churn.outcome;
}

(** The full JSON document for the runs. Non-finite floats (the
    disabled-baseline [nan]s) render as [null]. *)
val json : seed:int -> run list -> string

(** One row per step per run. Fields are RFC-4180 quoted: a label
    containing a comma, quote or line break is wrapped in double quotes
    with embedded quotes doubled, so hostile labels cannot corrupt the
    column layout. *)
val csv : run list -> string
