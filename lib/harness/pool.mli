(** Fixed-size domain pool for deterministic scenario fan-out.

    A pool spawns its worker domains once at {!create} and reuses them for
    every subsequent batch: {!run} submits a list of [unit -> 'a] jobs,
    idle domains steal the next unclaimed job from the shared batch, and
    results come back in submission order regardless of which domain ran
    what — so a caller that derives any randomness from pre-split seeds
    gets bit-identical output at every pool size.

    With [jobs = 1] the pool spawns no domain at all and {!run} degrades
    to an in-process [List.map], so sequential use pays nothing. *)

type t

(** Number of worker domains actually spawned: [jobs - 1], hence [0]
    for a sequential pool. *)
(* lint: allow export-reachability — test_pool pins the worker count a pool spawns *)
val domain_count : t -> int

(** [run t fs] executes every job of [fs] and returns their results in
    submission order. Jobs may run on any domain and in any order; if one
    or more jobs raise, the exception of the earliest-submitted failing
    job is re-raised in the caller (with its backtrace) after the batch
    has drained. Not reentrant: a pool runs one batch at a time, and jobs
    must not themselves call [run] on the same pool.
    @raise Invalid_argument if the pool has been shut down. *)
val run : t -> (unit -> 'a) list -> 'a list

(** [with_pool ~jobs f] spawns [jobs - 1] worker domains (the caller is
    the remaining worker: it drains each batch alongside them during
    {!run}), applies [f] and always terminates and joins the workers;
    a {!run} on the pool after [f] returns raises [Invalid_argument].
    @raise Invalid_argument if [jobs < 1]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** What [--jobs] should default to: [Domain.recommended_domain_count ()]. *)
val default_jobs : unit -> int
