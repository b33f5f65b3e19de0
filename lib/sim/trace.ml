(** Simulation event traces: a bounded log of (time, kind, detail) records
    for assertions in tests and for debugging protocol runs. *)

type kind =
  | Probe_request of { user : int }
  | Probe_response of { ap : int; user : int }
  | Query of { user : int; ap : int }
  | Query_response of { ap : int; user : int }
  | Associate of { user : int; ap : int }
  | Disassociate of { user : int; ap : int }
  | Frame of { ap : int; session : int; airtime : float }
  | Decision of { user : int; moved : bool }
  | Mark of string
  | Arrive of { user : int }  (** churn: a user enters the network *)
  | Depart of { user : int; ap : int }
      (** churn: a user leaves; [ap] is its serving AP, or
          [Wlan_model.Association.none] if it was unserved *)
  | Ap_down of { ap : int; detached : int }
      (** churn: AP failure, [detached] members forcibly unserved *)
  | Ap_up of { ap : int }  (** churn: AP recovery *)
  | Rate_drift of { user : int; steps : int }
      (** churn: every link of [user] shifted [steps] rate tiers *)
  | Settle of {
      rounds : int;
      moves : int;
      reassociated : int;
      oscillated : bool;
    }  (** churn: one re-convergence to quiescence *)

type record = { time : float; kind : kind }

type t = { mutable records : record list; mutable count : int }

(* Records beyond this many are dropped. *)
let limit = 200_000

let create () = { records = []; count = 0 }

let log t ~time kind =
  if t.count < limit then begin
    t.records <- { time; kind } :: t.records;
    t.count <- t.count + 1
  end

(** Records in chronological order. *)
let records t = List.rev t.records

let pp_kind ppf = function
  | Probe_request { user } -> Fmt.pf ppf "probe-req u%d" user
  | Probe_response { ap; user } -> Fmt.pf ppf "probe-rsp a%d->u%d" ap user
  | Query { user; ap } -> Fmt.pf ppf "query u%d->a%d" user ap
  | Query_response { ap; user } -> Fmt.pf ppf "query-rsp a%d->u%d" ap user
  | Associate { user; ap } -> Fmt.pf ppf "assoc u%d->a%d" user ap
  | Disassociate { user; ap } -> Fmt.pf ppf "disassoc u%d-/->a%d" user ap
  | Frame { ap; session; airtime } ->
      Fmt.pf ppf "frame a%d s%d %.6fs" ap session airtime
  | Decision { user; moved } ->
      Fmt.pf ppf "decision u%d %s" user (if moved then "moved" else "stayed")
  | Mark s -> Fmt.pf ppf "mark %s" s
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
    stream the golden-trace regression tests digest. *)
let to_string t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r -> Buffer.add_string buf (Fmt.str "%a\n" pp_record r))
    (records t);
  Buffer.contents buf
