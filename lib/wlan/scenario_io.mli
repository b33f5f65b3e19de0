(** Plain-text serialization of scenarios: save a deployment, share it,
    replay it exactly (floats round-trip bit for bit). The line-oriented
    format is documented in the implementation; it is versioned and
    strict — unknown lines raise {!Parse_error}. Scenarios carrying a
    {!Rate_model.Path_loss} model write version 2 (extra [model] /
    [shadow] / [radio] / [snr] lines); [Table] scenarios write the
    historical version-1 bytes. The reader accepts both. *)

exception Parse_error of string

val to_string : Scenario.t -> string

(** @raise Parse_error on malformed input — including construction-time
    validation failures (hostile [rates] lines, unknown session indices,
    ill-formed models), which surface as [Parse_error] rather than raw
    [Invalid_argument]. *)
val of_string : string -> Scenario.t

val to_file : string -> Scenario.t -> unit

(** @raise Parse_error on malformed input; [Sys_error] on IO failure. *)
val of_file : string -> Scenario.t

(** {1 Churn scripts}

    A {!Churn_script.t} serializes to its own versioned line format
    ([wlan-mcast-churn 1]) so dynamic workloads ship next to — not
    inside — the static deployment they run against. Times round-trip
    bit for bit ([%.17g]). *)

(* lint: allow export-reachability — the string half of churn file IO the round-trip test drives *)
val churn_to_string : Churn_script.t -> string

(** @raise Parse_error on malformed input. *)
(* lint: allow export-reachability — the string half of churn file IO the round-trip test drives *)
val churn_of_string : string -> Churn_script.t

val churn_to_file : string -> Churn_script.t -> unit

(** @raise Parse_error on malformed input; [Sys_error] on IO failure. *)
val churn_of_file : string -> Churn_script.t
