(** The discrete-event simulation engine.

    Events are closures fired at simulated times (seconds). The engine owns
    the clock, a seeded RNG for deterministic jitter, and an event counter.
    Scheduling in the past is rejected — causality is a hard error, not a
    warning. *)

type t = {
  queue : (unit -> unit) Event_queue.t;
  mutable now : float;
  rng : Random.State.t;
  mutable processed : int;
  mutable running : bool;
}

let create ?(seed = 0) () =
  {
    queue = Event_queue.create ();
    now = 0.;
    rng = Random.State.make [| seed |];
    processed = 0;
    running = false;
  }

let now t = t.now
let processed t = t.processed
let rng t = t.rng

(** [schedule t ~at f] fires [f] at absolute time [at] (>= now). *)
let schedule t ~at f =
  if at < t.now -. 1e-12 then
    Fmt.kstr invalid_arg "Engine.schedule: time %g is in the past (now %g)" at
      t.now;
  Event_queue.push t.queue ~time:(Float.max at t.now) f

(** [after t ~delay f] fires [f] [delay] seconds from now. *)
let after t ~delay f = schedule t ~at:(t.now +. delay) f

(** Uniform jitter in [0, max); deterministic for a fixed engine seed. *)
let jitter t ~max = if max <= 0. then 0. else Random.State.float t.rng max

(** Run until the queue drains. Returns the final clock value. *)
let run t =
  if t.running then invalid_arg "Engine.run: re-entrant run";
  t.running <- true;
  Fun.protect
    ~finally:(fun () -> t.running <- false)
    (fun () ->
      let continue = ref true in
      while !continue do
        match Event_queue.pop t.queue with
        | None -> continue := false
        | Some (time, f) ->
            t.now <- time;
            t.processed <- t.processed + 1;
            f ()
      done;
      t.now)
