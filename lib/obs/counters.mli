(** Deterministic counter plane (DESIGN.md §4.9).

    A counter counts {e algorithmic events} — candidate evaluations,
    heap pops, decision rounds — never wall-clock time. Counters are
    [int Atomic.t] cells behind a process-wide enable gate; every
    mutation is a commutative aggregate (sum or max), so totals depend
    only on {e what} work was submitted, not on which domain ran it or
    in what order. That is the determinism contract: with the same
    inputs, a snapshot is byte-identical at any [--jobs].

    Instrumentation sites must therefore never record
    scheduling-dependent quantities (per-domain tallies, queue depths
    observed from workers); only event totals and high-water marks of
    deterministically-evolving state.

    When the gate is off (the default) every operation is a single
    atomic load and a branch, so instrumented hot paths stay within
    noise of their uninstrumented timings. *)

type t
(** A named counter. Creation is idempotent: [make name] returns the
    same cell for the same name, so modules can create their counters
    at initialisation without coordinating. *)

val make : string -> t
(** [make name] registers (or finds) the counter [name]. Names are
    dot-scoped by subsystem, e.g. ["mcg.candidate_evals"]. *)

val name : t -> string

val set_enabled : bool -> unit
(** Flip the gate. Flip it {e before} submitting work; flipping it
    while worker domains are mid-task makes totals depend on timing. *)

val incr : t -> unit
(** Add 1 when the gate is on; no-op otherwise. *)

val add : t -> int -> unit
(** Add [n] when the gate is on; no-op otherwise. *)

val record_max : t -> int -> unit
(** Raise the counter to [n] if [n] is larger (high-water mark), when
    the gate is on. Only meaningful for values that evolve
    deterministically (e.g. the dirty-set size at round boundaries). *)

val value : t -> int

val reset : unit -> unit
(** Zero every registered counter (the registry itself is kept). *)

val snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name —
    the deterministic payload of a profile report. *)
