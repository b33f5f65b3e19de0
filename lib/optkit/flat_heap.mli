(** Structure-of-arrays lazy max-heap bank: one max-heap per group in two
    flat CSR planes (float priorities, int values), with zero per-entry
    allocation. Priorities may silently {e decrease} between operations;
    {!pop_max} re-validates the stored top and re-inserts it when stale,
    so each entry is re-scored an amortized O(log) number of times
    instead of rescanning every candidate. Equal priorities pop the lower
    value first, so pop results never depend on layout history.
    Capacities are fixed at {!make} (the greedy cores never exceed their
    seed counts); planes can be arena-backed and reused across solves. *)

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
          boxed: see {!push} and {!pop_max} *)
}

(** [make ~capacities ()] builds an empty bank with
    [Array.length capacities] groups. With [?arena] the planes (not the
    cell) are acquired from, and reusable through, the arena under [?slot]. *)
val make :
  ?arena:Arena.t -> ?slot:string -> capacities:int array -> unit -> t

(** Empty every heap; planes (and their contents) are untouched. *)
val clear : t -> unit

(** [push t g v] inserts [v] into group [g]'s heap at priority
    [t.cell.(0)].
    @raise Invalid_argument past the group's capacity. *)
val push : t -> int -> int -> unit

(** [pop_max t g ~revalidate] pops group [g]'s element of maximal fresh
    priority. [revalidate v] must write [v]'s fresh priority, never above
    its stored one, to [t.cell.(0)]: stale tops are re-inserted, entries
    revalidating to [neg_infinity] dropped, and a top within [1e-12] of
    its stored bound accepted. [-1] when the heap empties; otherwise the
    value, its fresh priority left in [t.cell.(0)]. *)
val pop_max : t -> int -> revalidate:(int -> unit) -> int
