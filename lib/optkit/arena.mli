(** Scratch-buffer arena for the flat greedy kernels (DESIGN.md §4.12).

    Named, growable, reusable int/float buffers. Acquired contents are
    {e unspecified}: callers initialize the prefix they use. Buffers must
    not escape the owner that holds the arena, and an arena must never
    be shared across [Harness.Pool] domains — the latter is flagged by
    the [shared-mutable-escape] rule of [dune build @race]. An arena
    never changes what is computed, only where scratch lives. *)

type t

val create : unit -> t

(** [floats t slot n] is the buffer named [slot], grown to hold at least
    [n] floats. Contents unspecified on every call. *)
val floats : t -> string -> int -> float array

(** [ints t slot n] is the buffer named [slot], grown to hold at least
    [n] ints. Contents unspecified on every call. *)
val ints : t -> string -> int -> int array
