(* optional-reachability corpus: one optional parameter per pass shape.
   Every export is read by [bin/], so export-reachability is silent. *)

val by_bin : ?l:int -> unit -> int
(** [?l] passed by [bin/]: shipped. *)

val unpassed : ?l:int -> unit -> int
(** [bin/] calls it without [?l]: the omitted argument is no pass. *)

val tested : ?l:int -> unit -> int
(** [?l] passed only by [test/]: flagged as test-only. *)

val forwarder : ?l:int -> unit -> int
(** Forwards its own [?l], which nobody passes: flagged. *)

val forwarded : ?l:int -> unit -> int
(** Passed only by {!forwarder}'s forward: flagged through it. *)

val computed : ?l:int -> unit -> int
(** Passed a computed option by [bin/]: shipped. *)

val by_helper : ?l:int -> unit -> int
(** Forwarded from a helper's parameter in [bin/]: shipped. *)

val inside : ?l:int -> unit -> int
(** Passed only by a call inside this unit: shipped. *)

val as_value : ?l:int -> unit -> int
(** Passed to [bin/] as a [unit -> int]: the typer eliminates [?l],
    which is no pass. *)

val listed : (string * (?l:int -> unit -> int)) list
(** The label is inside the list, not on the [val]'s own spine: no
    parameter. *)

val kept :
  (* the test pins the value this label selects:
     lint: allow optional-reachability *)
  ?l:int ->
  unit ->
  int
(** Passed by no call; the allow comment keeps it. *)

val escaped : ?l:int -> unit -> int
(** Kept as a value by [bin/], with its label: whoever holds it may
    pass [?l], so it is shipped. *)
