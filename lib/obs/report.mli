(** Versioned profile report (schema {!schema}).

    The JSON payload carries only deterministic fields — label, seed,
    scenario count, target list, counter snapshot — so two runs of the
    same workload produce byte-identical files at any [--jobs]. Wall
    times live exclusively in the {!Span} tree, rendered separately by
    {!pp_text}. *)

type t = {
  label : string;
  seed : int;
  scenarios : int;  (** per-point scenario draws of the experiment config *)
  targets : string list;  (** profiled targets, in run order *)
  counters : (string * int) list;  (** sorted by name *)
}

val make : label:string -> seed:int -> scenarios:int -> targets:string list -> t
(** Capture {!Counters.snapshot} into a report. *)

val escape : string -> string
(** JSON string-literal escaping (without the surrounding quotes): the
    one escaper every JSON sink of the repository uses. *)

val json : t -> string
(** Deterministic JSON rendering, trailing newline included. *)

val pp_text : Format.formatter -> t -> unit
(** Human-readable counter table (name-sorted, like the JSON). *)
