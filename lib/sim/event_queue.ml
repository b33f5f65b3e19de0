(** A binary min-heap of timestamped events.

    Ties in time are broken by insertion sequence number, so simultaneous
    events fire in the order they were scheduled — the property every
    deterministic discrete-event simulator needs. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

(* exact equality keeps [before] a strict total order, whose
   transitivity an epsilon would break: lint: allow float-eq *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.data.(i) t.data.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.size && before t.data.(l) t.data.(i) then l else i in
  let m = if r < t.size && before t.data.(r) t.data.(m) then r else m in
  if m <> i then begin
    swap t i m;
    sift_down t m
  end

(** [push t ~time payload] schedules [payload] at [time]. Times must be
    non-negative and finite. *)
let push t ~time payload =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.push: bad time";
  let e = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.data then begin
    let cap = Int.max 16 (2 * Array.length t.data) in
    let data = Array.make cap e in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(** Pop the earliest event: [(time, payload)]. *)
let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (top.time, top.payload)
  end
