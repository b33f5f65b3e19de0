(** The [wlan-mcast-evlog 1] deterministic replay log: an event-sourced
    write-ahead record of one serve session.

    A log is the header (everything needed to re-create the server —
    objective, settle mode, round cap, queue limit, drift tier ladder
    and the scenario digest) followed by one line per accepted input
    ([ev <canonical payload>]) and one line per emitted decision
    ([out <payload>]). [ev] lines {e drive} state on replay; [out]
    lines are derived output, regenerated and compared. Because the
    server is a pure function of (scenario, header, event sequence),
    feeding the [ev] lines of any line-boundary prefix reproduces the
    exact state the live server had at that point — the crash-recovery
    story — and replaying a complete log regenerates it byte-for-byte.

    Rejected inputs (frame garbage, out-of-range indices, non-monotone
    times) change nothing and are deliberately {e not} logged. *)

type header = {
  objective : Mcast_core.Distributed.objective;
  obj_label : string;  (** ["mnu"], ["bla"] or ["mla"] *)
  mode : [ `Sequential | `Simultaneous ];
  max_rounds : int;
  queue_limit : int;  (** pending events that force a settle *)
  tiers : float list;  (** drift rate ladder, descending *)
  scenario_digest : string option;
      (** hex digest of the scenario text the session served *)
}

(** [mnu]/[mla] ↦ [Min_total_load], [bla] ↦ [Min_load_vector].
    @raise Invalid_argument on any other label. *)
val objective_of_label : string -> Mcast_core.Distributed.objective

val render_header : header -> string

type entry = Ev of string | Out of string

(** Raised by {!parse} on malformed logs (bad magic/version, unknown
    directives, malformed header fields). *)
exception Parse_error of string

(** Parse a log, possibly truncated mid-write: an unterminated final
    line is dropped (that is the crash case), terminated lines must
    parse. *)
val parse : string -> header * entry list

(** The [ev] payloads in order — what {!Server.replay} feeds. *)
val events : entry list -> string list
