(** Fixed-capacity bitsets over dense integer universes.

    The covering algorithms spend almost all their time computing
    [|S ∩ X'|]; representing element sets as bit vectors makes that a
    word-wise AND plus popcount. Words hold 62 bits so every word stays a
    non-negative OCaml [int]. *)

let bits_per_word = 62

(* Branchless SWAR popcount — no table, no cache pressure. Words carry 62
   bits in a 63-bit OCaml int, so the even-bit mask is truncated to bits
   0..60 (bit 61 is the highest a [w lsr 1] can reach) while the wider
   masks fit max_int as-is; the final byte-fold multiply accumulates the
   total (<= 62) into bits 56.., which a logical shift recovers. *)
let m55 = 0x1555555555555555 (* even bits of a 62-bit word *)
let m33 = 0x3333333333333333
let m0f = 0x0f0f0f0f0f0f0f0f
let m01 = 0x0101010101010101

let popcount_word w =
  let x = w - ((w lsr 1) land m55) in
  let x = (x land m33) + ((x lsr 2) land m33) in
  let x = (x + (x lsr 4)) land m0f in
  (x * m01) lsr 56

type t = { words : int array; capacity : int }

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  let n_words = (capacity + bits_per_word - 1) / bits_per_word in
  { words = Array.make (Int.max n_words 1) 0; capacity }

let capacity t = t.capacity
let copy t = { t with words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of bounds"

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words
let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

(** [inter_cardinal a b] is [|a ∩ b|] without allocating. *)
let inter_cardinal a b =
  same_capacity a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_word (a.words.(i) land b.words.(i))
  done;
  !acc

let inter a b =
  same_capacity a b;
  { a with words = Array.mapi (fun i w -> w land b.words.(i)) a.words }

let diff a b =
  same_capacity a b;
  { a with words = Array.mapi (fun i w -> w land lnot b.words.(i)) a.words }

(** [diff_inplace a b] removes the elements of [b] from [a]. *)
let diff_inplace a b =
  same_capacity a b;
  for i = 0 to Array.length a.words - 1 do
    a.words.(i) <- a.words.(i) land lnot b.words.(i)
  done

let subset a b =
  same_capacity a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let equal a b = a.capacity = b.capacity && a.words = b.words

let full capacity =
  let t = create capacity in
  for i = 0 to capacity - 1 do
    add t i
  done;
  t

let count_in t a lo hi =
  let k = ref 0 in
  for i = lo to hi - 1 do
    let e = a.(i) in
    k := !k + ((t.words.(e / bits_per_word) lsr (e mod bits_per_word)) land 1)
  done;
  !k

let add_in t a lo hi =
  for i = lo to hi - 1 do
    let e = a.(i) in
    let w = e / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (e mod bits_per_word))
  done

let remove_in t a lo hi =
  for i = lo to hi - 1 do
    let e = a.(i) in
    let w = e / bits_per_word in
    t.words.(w) <- t.words.(w) land lnot (1 lsl (e mod bits_per_word))
  done

let move_in ~src ~dst a lo hi =
  same_capacity src dst;
  let k = ref 0 in
  for i = lo to hi - 1 do
    let e = a.(i) in
    let w = e / bits_per_word and b = 1 lsl (e mod bits_per_word) in
    if src.words.(w) land b <> 0 then begin
      src.words.(w) <- src.words.(w) land lnot b;
      dst.words.(w) <- dst.words.(w) lor b;
      incr k
    end
  done;
  !k

(* Visit the set bits of word [w] (based at [base]) in ascending order:
   peel the lowest set bit with [w land (-w)]; its index is the popcount
   of the ones below it. *)
let iter_word f base w =
  let w = ref w in
  while !w <> 0 do
    let low = !w land - !w in
    f (base + popcount_word (low - 1));
    w := !w land (!w - 1)
  done

let iter f t =
  for i = 0 to Array.length t.words - 1 do
    iter_word f (i * bits_per_word) t.words.(i)
  done

(** [iter_inter f a b] visits the elements of [a ∩ b] in ascending
    order without allocating the intersection. *)
let iter_inter f a b =
  same_capacity a b;
  for i = 0 to Array.length a.words - 1 do
    iter_word f (i * bits_per_word) (a.words.(i) land b.words.(i))
  done

let to_list t =
  let acc = ref [] in
  for i = t.capacity - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc

let fold f t acc =
  let acc = ref acc in
  iter (fun i -> acc := f i !acc) t;
  !acc
