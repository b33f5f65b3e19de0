(** Structure-of-arrays lazy max-heap bank (DESIGN.md §4.12).

    A bank holds one max-heap per group in two flat planes — a float
    priority plane and an int value plane — laid out CSR-style by a fixed
    per-group capacity: append + sift-up on push, re-key + sift-down when
    {!top} validates a root, move-last + sift on {!remove}, with no
    [{prio; value}] record allocated per entry. Equal priorities resolve
    toward the lower value, a total order, so the root — and with it
    every {!top} result — depends only on the multiset of entries, never
    on layout history.

    Capacities are fixed at {!make}: the greedy cores only push while
    seeding, so the seed count is a static bound. Planes can live in an
    {!Arena} and be reused across probes. *)

type t = {
  prio : float array;  (** priority plane, CSR by [off] *)
  value : int array;  (** value plane, same layout *)
  off : int array;  (** group [g]'s heap occupies [off.(g) .. off.(g+1)-1] *)
  size : int array;  (** live entries per group *)
  cell : float array;
      (** one slot: the priority {!push} inserts and {!top}'s
          [revalidate] writes, so no float crosses a module boundary
          boxed *)
}

let make ?arena ?(slot = "flat_heap") ~capacities () =
  let n_groups = Array.length capacities in
  let total = Array.fold_left ( + ) 0 capacities in
  let off, size, prio, value =
    match arena with
    | None ->
        ( Array.make (n_groups + 1) 0,
          Array.make (Int.max 1 n_groups) 0,
          Array.make (Int.max 1 total) 0.,
          Array.make (Int.max 1 total) 0 )
    | Some a ->
        ( Arena.ints a (slot ^ ".off") (n_groups + 1),
          Arena.ints a (slot ^ ".size") (Int.max 1 n_groups),
          Arena.floats a (slot ^ ".prio") (Int.max 1 total),
          Arena.ints a (slot ^ ".value") (Int.max 1 total) )
  in
  off.(0) <- 0;
  Array.iteri (fun g c -> off.(g + 1) <- off.(g) + c) capacities;
  Array.fill size 0 n_groups 0;
  { prio; value; off; size; cell = [| neg_infinity |] }

(* Heap order: priority first; exactly equal priorities fall to the lower
   value. [i]/[j] are plane indices. *)
let beats t i j =
  t.prio.(i) > t.prio.(j)
  || ((t.prio.(i) = t.prio.(j)) [@lint.allow float_eq]
     && t.value.(i) < t.value.(j))

let swap t i j =
  let p = t.prio.(i) and v = t.value.(i) in
  t.prio.(i) <- t.prio.(j);
  t.value.(i) <- t.value.(j);
  t.prio.(j) <- p;
  t.value.(j) <- v

let rec sift_up t ~base i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if beats t (base + i) (base + parent) then begin
      swap t (base + i) (base + parent);
      sift_up t ~base parent
    end
  end

(* returns the entry's final heap position *)
let rec sift_down t ~base ~size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < size && beats t (base + l) (base + i) then l else i in
  let m = if r < size && beats t (base + r) (base + m) then r else m in
  if m <> i then begin
    swap t (base + i) (base + m);
    sift_down t ~base ~size m
  end
  else i

let push t g v =
  let base = t.off.(g) in
  let sz = t.size.(g) in
  if base + sz >= t.off.(g + 1) then
    invalid_arg "Flat_heap.push: group capacity exceeded";
  t.prio.(base + sz) <- t.cell.(0);
  t.value.(base + sz) <- v;
  t.size.(g) <- sz + 1;
  sift_up t ~base sz

(** [remove t g i] deletes the entry at plane index [i]: the last entry
    takes its place and sifts whichever way restores the order. *)
let remove t g i =
  let base = t.off.(g) in
  let k = i - base and sz = t.size.(g) - 1 in
  if k < 0 || k > sz then invalid_arg "Flat_heap.remove: no such entry";
  t.size.(g) <- sz;
  if k < sz then begin
    t.prio.(i) <- t.prio.(base + sz);
    t.value.(i) <- t.value.(base + sz);
    if sift_down t ~base ~size:sz k = k then sift_up t ~base k
  end

(** [top t g ~revalidate] validates group [g]'s root in place: dropped
    when [revalidate] writes [neg_infinity] to [cell], otherwise re-keyed
    to that fresh priority and sifted down. A root within [1e-12] of its
    stored bound is the answer, still in the heap; a stale one sends the
    loop to the next root. The multiset after each step is the one a
    pop and a re-push at the fresh priority would leave, so the sequence
    of revalidations is that of a pop-based lazy heap. Returns the
    answer's plane index, or [-1] when the heap empties. *)
let rec top t g ~revalidate =
  if t.size.(g) = 0 then -1
  else begin
    let base = t.off.(g) in
    let stored = t.prio.(base) in
    revalidate t.value.(base);
    let fresh = t.cell.(0) in
    if (fresh = neg_infinity) [@lint.allow float_eq] then begin
      remove t g base;
      top t g ~revalidate
    end
    else begin
      t.prio.(base) <- fresh;
      let i = base + sift_down t ~base ~size:t.size.(g) 0 in
      if fresh >= stored -. 1e-12 then i else top t g ~revalidate
    end
  end
