(** Wall-clock span plane (DESIGN.md §4.9).

    Spans measure {e time}, which is inherently nondeterministic, so
    this plane is strictly separated from {!Counters}: nothing recorded
    here ever reaches a deterministic output (profile counter JSON,
    traces, metrics). Spans are a diagnostic side channel printed to a
    human or written to an explicitly separate file.

    The plane has no clock of its own — a library must not choose one —
    and is a no-op until a binary installs a monotonic clock with
    {!set_clock} (e.g. bechamel's [Monotonic_clock]). Spans are only
    recorded on the main domain: worker-domain timings are
    scheduling-dependent and would demand synchronisation on the hot
    path, so [with_span] on a worker just runs its thunk. *)

type clock = unit -> float
(** Monotonic seconds. Only differences are used. *)

val set_clock : clock option -> unit
(** Install ([Some]) or remove ([None], the default) the timing sink.
    Install it before the work you want spans for; libraries must never
    call this. *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], and — when a clock is installed and we
    are on the main domain — accounts its wall time to the tree node
    [name] under the innermost open span. Same-named siblings
    aggregate: [count] increments and the elapsed time adds up.
    Exceptions propagate; the span still closes. *)

type node = {
  name : string;
  count : int;  (** completed activations *)
  total_s : float;  (** wall seconds, summed over activations *)
  minor_words : float;
      (** main-domain words allocated in the minor heap during the
          span's activations ([Gc.quick_stat] deltas) — allocation
          pressure per driver, same nondeterminism caveats as time *)
  promoted_words : float;  (** words promoted to the major heap *)
  children : node list;  (** first-opened first *)
}

val tree : unit -> node list
(** The aggregated span forest accumulated since the last {!reset},
    roots first-opened first. Open (unfinished) spans are not
    included. *)

val reset : unit -> unit

val pp_tree : Format.formatter -> node list -> unit
(** Indented text rendering: one line per node —
    [name  count  total-ms  minor-Mw  promoted-Mw] — children indented
    two spaces. *)
