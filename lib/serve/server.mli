(** The serve daemon's channel-agnostic core: a resident
    {!Mcast_core.Distributed.Online} network that ingests
    {!Protocol.input} messages, batches same-timestamp events into
    atomic settle steps, applies bounded-queue backpressure, and
    appends every accepted event and emitted decision to an in-memory
    {!Replay_log}.

    {2 Batching}

    Events carry timestamps; all events at the current batch timestamp
    apply immediately (through [Online.apply]) but the network
    settles only when the batch {e closes}: the timestamp advances, a
    [flush]/[snapshot]/[bye] arrives, or the pending count reaches the
    header's [queue_limit] (backpressure — the settle is flagged
    [forced]). One settle emits the batch's [delta] lines (ascending
    user) and one [settled] summary. Timestamps must never go backwards;
    a regression is refused with a [non-monotone] error and the session
    survives. A new batch at the {e same} timestamp as the last settled
    one is allowed (it is what a forced settle leaves behind).

    {2 Determinism}

    A session is a pure function of (problem, header, input sequence):
    no randomness, ascending-index iteration everywhere, [%.17g]
    floats. The optional [fanout] (a {!Harness.Pool.run}-shaped hook)
    parallelizes only the snapshot baselines — fresh solves whose
    results merge in submission order — so the log and every reply are
    byte-identical at any [--jobs]. *)

open Wlan_model

(** Runs independent thunks and returns their results in submission
    order — pass [Harness.Pool.run pool] for a parallel snapshot
    baseline, or omit for in-process evaluation. *)
type fanout = (unit -> float * float) list -> (float * float) list

type t

(** Session statistics (also exported as [serve.*] counters). *)
type stats = {
  events : int;  (** accepted event messages *)
  batches : int;  (** settles executed *)
  emitted_deltas : int;
  errors : int;  (** refused inputs *)
  queue_peak : int;  (** largest pending batch *)
  forced_settles : int;  (** settles triggered by [queue_limit] *)
}

(** [create ~config p] starts an {e empty} network over [p]'s topology —
    every AP alive, every user absent until an [arrive] — awaiting the
    protocol handshake. The header's [tiers] must be finite, positive
    and sorted descending.
    @raise Invalid_argument on a bad header. *)
val create : ?fanout:fanout -> config:Replay_log.header -> Problem.t -> t

val config : t -> Replay_log.header

(** Handle one message; returned outputs must be framed to the peer in
    order. Refusals come back as [Error] outputs (never logged, state
    unchanged); everything else is appended to the replay log. *)
val handle_input : t -> Protocol.input -> Protocol.output list

(** Decode-and-handle one frame payload. *)
val handle_frame : t -> string -> Protocol.output list

(** End of stream without [bye]: settle the pending batch (logged), as
    [flush] would. Idempotent. *)
val finish : t -> Protocol.output list

(** [bye] seen (or {!finish} called): no further input is accepted. *)
val closed : t -> bool

(** The replay log so far: header + [ev]/[out] lines. *)
val log_contents : t -> string

(** Hex digest of the complete live state — present/alive flags, the
    association, tracker loads, drifted link rates and the pending
    batch. Two sessions with equal digests are indistinguishable to
    every future input. *)
val state_digest : t -> string

val stats : t -> stats

(** The live association (shared, not a copy). *)
val assoc : t -> Association.t

(** {1 Replay}

    [replay ~config ~events p] re-ingests a log's [ev] payloads through
    a fresh session: the result's {!log_contents} regenerates the live
    log — byte-identical for a complete log. For a truncated log both
    the input's complete-line portion and the regenerated log are
    prefixes of the uninterrupted log (so one is a prefix of the other):
    the regenerated log falls short exactly when the crash tore the log
    inside a settle's out-block whose triggering event was never
    written — the batch is left pending, and those lines re-derive once
    the missing trigger arrives. The state — per {!state_digest} — is
    exactly the live server's at that point.
    @raise Invalid_argument if an [ev] payload does not parse or is
    refused (a corrupt log, impossible for logs this module wrote). *)
val replay :
  ?fanout:fanout ->
  config:Replay_log.header ->
  events:string list ->
  Problem.t ->
  t
