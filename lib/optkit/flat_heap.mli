(** Structure-of-arrays lazy max-heap bank: one max-heap per group in two
    flat CSR planes (float priorities, int values), with zero per-entry
    allocation. Priorities may silently {e decrease} between operations;
    {!top} re-validates the stored root in place and re-keys it when
    stale, so each entry is re-scored an amortized O(log) number of
    times instead of rescanning every candidate. Equal priorities put
    the lower value first, so results never depend on layout history.
    Capacities are fixed at {!make} (the greedy cores only push while
    seeding); planes can be arena-backed and reused across solves. *)

(** Read-only planes: a hot loop reads group [g]'s root bound as
    [prio.(off.(g))] when [size.(g) > 0]. *)
type t = private {
  prio : float array;
  value : int array;
  off : int array;
  size : int array;
  n_groups : int;
  cell : float array;
      (** one slot through which every priority moves, so none is
          boxed: see {!push} and {!top} *)
}

(** [make ~capacities ()] builds an empty bank with
    [Array.length capacities] groups. With [?arena] the planes (not the
    cell) are acquired from, and reusable through, the arena under [?slot]. *)
val make :
  ?arena:Arena.t -> ?slot:string -> capacities:int array -> unit -> t

(** [push t g v] inserts [v] into group [g]'s heap at priority
    [t.cell.(0)].
    @raise Invalid_argument past the group's capacity. *)
val push : t -> int -> int -> unit

(** [top t g ~revalidate] validates group [g]'s root in place and
    returns the plane index [i] of its element of maximal fresh priority
    ([-1] when the heap empties): the value [t.value.(i)], its fresh
    priority [t.prio.(i)], also left in [t.cell.(0)]. [revalidate v]
    must write [v]'s fresh priority, never above its stored one, to
    [t.cell.(0)]: roots revalidating to [neg_infinity] are dropped,
    stale ones re-keyed to their fresh priority, and a root within
    [1e-12] of its stored bound accepted. The accepted entry stays in the
    heap; [i] holds until the group's heap next changes. The
    revalidations are those of popping stale tops and re-pushing them. *)
val top : t -> int -> revalidate:(int -> unit) -> int

(** [remove t g i] deletes the entry at plane index [i] of group [g]'s
    heap (typically a {!top} answer).
    @raise Invalid_argument if [i] is not a live entry of [g]. *)
val remove : t -> int -> int -> unit
