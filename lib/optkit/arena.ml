(** Scratch-buffer arena (DESIGN.md §4.12).

    The flat greedy kernels work on preallocated int/float array planes.
    Repeated solves — the shard sessions and rounds of one
    [Scg.solve_grid] probe, the churn-driven [Distributed.Online]
    settles, every round of a distributed run — would re-allocate those
    planes each time; an arena lets them be fetched once and reused,
    turning the inner loops allocation-free. A B* probe owns its arena,
    so grid probes on pool domains never share one.

    An arena is a set of named mutable buffers. {!floats}/{!ints} return
    the buffer registered under a slot name, growing it when the
    requested length exceeds the current capacity; the contents are
    {e unspecified} on every acquisition — callers must fully initialize
    the prefix they use. Because buffers are reused, nothing read from an
    arena buffer may outlive the computation that wrote it.

    Lifetime rules (enforced by the [arena-escape] lint rule):
    - a buffer must not escape the owner record that produced it — copy
      it out instead;
    - an arena must never be captured by a task submitted to a
      [Harness.Pool]: arenas are single-domain scratch, and two domains
      sharing one would race on the buffers. Give each task its own
      arena (or none).

    Determinism: an arena only changes {e where} scratch lives, never
    what is computed — every kernel result is bit-identical with and
    without one. The [arena.*] counters expose the reuse rate. *)

let c_acquires = Wlan_obs.Counters.make "arena.acquires"
let c_grows = Wlan_obs.Counters.make "arena.grows"
let c_hits = Wlan_obs.Counters.make "arena.hits"

type t = {
  f : (string, float array) Hashtbl.t;
  i : (string, int array) Hashtbl.t;
}

let create () = { f = Hashtbl.create 8; i = Hashtbl.create 8 }

let next_pow2 n =
  let c = ref 16 in
  while !c < n do
    c := !c * 2
  done;
  !c

let acquire tbl ~make ~length slot n =
  Wlan_obs.Counters.incr c_acquires;
  match Hashtbl.find_opt tbl slot with
  | Some a when length a >= n ->
      Wlan_obs.Counters.incr c_hits;
      a
  | Some _ ->
      Wlan_obs.Counters.incr c_grows;
      let a = make (next_pow2 n) in
      Hashtbl.replace tbl slot a;
      a
  | None ->
      let a = make (next_pow2 (Int.max 1 n)) in
      Hashtbl.replace tbl slot a;
      a

(** [floats t slot n] is the float buffer registered under [slot], grown
    to at least [n] entries. Contents unspecified. *)
let floats t slot n =
  acquire t.f ~make:(fun c -> Array.make c 0.) ~length:Array.length slot n

(** [ints t slot n] is the int buffer registered under [slot], grown to
    at least [n] entries. Contents unspecified. *)
let ints t slot n =
  acquire t.i ~make:(fun c -> Array.make c 0) ~length:Array.length slot n
