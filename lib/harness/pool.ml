(* Fixed-size domain pool. Workers are spawned once and park on a
   condition variable between batches; a batch is an array of erased
   [unit -> unit] tasks drained through one shared atomic cursor, so an
   idle domain "steals" the next unclaimed task no matter who submitted
   it. The caller participates in the drain, which is why [jobs] counts
   the calling domain and a [jobs = 1] pool spawns nothing. *)

type batch = {
  gen : int;  (* batch sequence number, so parked workers can tell a
                 fresh batch from the one they just finished *)
  tasks : (unit -> unit) array;
  next : int Atomic.t;  (* shared cursor: index of the next unclaimed task *)
  completed : int Atomic.t;
}

type t = {
  jobs : int;
  mutable workers : unit Domain.t list;
  m : Mutex.t;
  work_ready : Condition.t;  (* new batch posted, or shutdown *)
  batch_done : Condition.t;  (* last task of the current batch finished *)
  mutable current : batch option;
  mutable next_gen : int;
  mutable stopped : bool;
}

let domain_count t = List.length t.workers
let default_jobs () = Domain.recommended_domain_count ()

(* Tasks never raise (run wraps them), so a drain cannot abandon the
   cursor mid-batch. *)
let drain t b =
  let n = Array.length b.tasks in
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < n then begin
      b.tasks.(i) ();
      if Atomic.fetch_and_add b.completed 1 = n - 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.batch_done;
        Mutex.unlock t.m
      end;
      loop ()
    end
  in
  loop ()

let worker t =
  let seen = ref 0 in
  let rec park () =
    Mutex.lock t.m;
    while
      (not t.stopped)
      && (match t.current with Some b -> b.gen = !seen | None -> true)
    do
      Condition.wait t.work_ready t.m
    done;
    if t.stopped then Mutex.unlock t.m
    else begin
      let b = Option.get t.current in
      seen := b.gen;
      Mutex.unlock t.m;
      drain t b;
      park ()
    end
  in
  park ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      workers = [];
      m = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      next_gen = 0;
      stopped = false;
    }
  in
  (* The pool's own control plane: workers must share [t] by design,
     and every mutable field of it is only ever touched under [t.m] (or
     is the batch's atomic cursor). *)
  (* lint: allow shared-mutable-escape *)
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.m;
  let ws = t.workers in
  t.stopped <- true;
  t.workers <- [];
  Condition.broadcast t.work_ready;
  Mutex.unlock t.m;
  List.iter Domain.join ws

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type 'a outcome = Ok of 'a | Exn of exn * Printexc.raw_backtrace

(* Deterministic event counters (DESIGN.md §4.9), recorded on the
   submission side: which domain executes a task is scheduling noise, but
   what gets submitted is a pure function of the caller's inputs. *)
let c_batches = Wlan_obs.Counters.make "pool.batches"
let c_tasks = Wlan_obs.Counters.make "pool.tasks"

let run t fs =
  if t.stopped then invalid_arg "Pool.run: pool is shut down";
  Wlan_obs.Counters.incr c_batches;
  Wlan_obs.Counters.add c_tasks (List.length fs);
  match fs with
  | [] -> []
  | fs when t.jobs = 1 || List.length fs = 1 ->
      (* in-process: an exception from job i propagates before job i+1
         starts, which is exactly "first failing job in submission
         order" *)
      List.map (fun f -> f ()) fs
  | fs ->
      let fs = Array.of_list fs in
      let n = Array.length fs in
      let results = Array.make n None in
      let tasks =
        Array.mapi
          (fun i f () ->
            let r =
              match f () with
              | v -> Ok v
              | exception e -> Exn (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- Some r)
          fs
      in
      Mutex.lock t.m;
      t.next_gen <- t.next_gen + 1;
      let b =
        {
          gen = t.next_gen;
          tasks;
          next = Atomic.make 0;
          completed = Atomic.make 0;
        }
      in
      t.current <- Some b;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.m;
      drain t b;
      Mutex.lock t.m;
      while Atomic.get b.completed < n do
        Condition.wait t.batch_done t.m
      done;
      t.current <- None;
      Mutex.unlock t.m;
      Array.iter
        (function
          | Some (Exn (e, bt)) -> Printexc.raise_with_backtrace e bt
          | _ -> ())
        results;
      Array.to_list results
      |> List.map (function
           | Some (Ok v) -> v
           | _ -> assert false (* every task completed without Exn *))
