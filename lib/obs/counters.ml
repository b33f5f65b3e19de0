(** Deterministic counter plane. See counters.mli for the contract:
    counters hold commutative aggregates of algorithmic events only, so
    snapshots are byte-identical at any [--jobs]. *)

type t = { name : string; cell : int Atomic.t }

let enabled_flag = Atomic.make false

let set_enabled b = Atomic.set enabled_flag b

(* The registry is touched on counter creation, reset and snapshot —
   all cold paths — so a plain mutex is fine. The hot paths (incr/add)
   never take it. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 64

let registry_mu = Mutex.create ()

let make name =
  Mutex.lock registry_mu;
  let c =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { name; cell = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c
  in
  Mutex.unlock registry_mu;
  c

let name c = c.name

let incr c =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell 1)

let add c n =
  if Atomic.get enabled_flag && n <> 0 then
    ignore (Atomic.fetch_and_add c.cell n)

let rec record_max c n =
  if Atomic.get enabled_flag then begin
    let cur = Atomic.get c.cell in
    if n > cur && not (Atomic.compare_and_set c.cell cur n) then
      record_max c n
  end

let value c = Atomic.get c.cell

let reset () =
  Mutex.lock registry_mu;
  Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry;
  Mutex.unlock registry_mu

let snapshot () =
  Mutex.lock registry_mu;
  let xs =
    Hashtbl.fold (fun _ c acc -> (c.name, Atomic.get c.cell) :: acc) registry
      []
  in
  Mutex.unlock registry_mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs
