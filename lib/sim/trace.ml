(** The churn engine's event log: a bounded chronological record of the
    deltas [Churn.run] applies and the settles that follow them. *)

type kind =
  | Arrive of { user : int }  (** a user enters the network *)
  | Depart of { user : int; ap : int }
      (** a user leaves; [ap] is its serving AP, or
          [Wlan_model.Association.none] if it was unserved *)
  | Ap_down of { ap : int; detached : int }
      (** AP failure, [detached] members forcibly unserved *)
  | Ap_up of { ap : int }  (** AP recovery *)
  | Rate_drift of { user : int; steps : int }
      (** every link of [user] shifted [steps] rate tiers *)
  | Settle of {
      rounds : int;
      moves : int;
      reassociated : int;
      oscillated : bool;
    }  (** one re-convergence to quiescence *)

type record = { time : float; kind : kind }

type t = {
  mutable records : record list;  (** newest first *)
  mutable count : int;
  mutable dropped : int;
}

(* Records beyond this many are dropped, and counted. *)
let limit = 200_000

let create () = { records = []; count = 0; dropped = 0 }

let log t ~time kind =
  if t.count < limit then begin
    t.records <- { time; kind } :: t.records;
    t.count <- t.count + 1
  end
  else t.dropped <- t.dropped + 1

let pp_kind ppf = function
  | Arrive { user } -> Fmt.pf ppf "arrive u%d" user
  | Depart { user; ap } ->
      if ap < 0 then Fmt.pf ppf "depart u%d unserved" user
      else Fmt.pf ppf "depart u%d from a%d" user ap
  | Ap_down { ap; detached } ->
      Fmt.pf ppf "ap-down a%d detached %d" ap detached
  | Ap_up { ap } -> Fmt.pf ppf "ap-up a%d" ap
  | Rate_drift { user; steps } -> Fmt.pf ppf "drift u%d %+d" user steps
  | Settle { rounds; moves; reassociated; oscillated } ->
      Fmt.pf ppf "settle rounds %d moves %d reassoc %d%s" rounds moves
        reassociated
        (if oscillated then " oscillated" else "")

let pp_record ppf r = Fmt.pf ppf "%.6f %a" r.time pp_kind r.kind

(** The whole log as text, one record per line, chronological — the byte
    stream the golden-trace regression tests digest — and a last line
    naming the records dropped, if any. *)
let to_string t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r -> Buffer.add_string buf (Fmt.str "%a\n" pp_record r))
    (List.rev t.records);
  if t.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "dropped %d records past the %d-record limit\n" t.dropped
         limit);
  Buffer.contents buf
