(** Churn-script → serve-event expansion (see the interface). *)

open Wlan_model

type error = Non_monotone of { index : int; prev : float; time : float }

let error_message = function
  | Non_monotone { index; prev; time } ->
      Printf.sprintf
        "event %d at t=%.17g precedes t=%.17g: serve events must be \
         nondecreasing in time (Churn_script.make sorts; raw event lists \
         are taken as-is and refused when out of order)"
        index time prev

let inputs_of_events timed =
  let rec go acc index prev = function
    | [] -> Ok (List.concat (List.rev acc))
    | { Churn_script.time; event } :: rest ->
        if time < prev then Error (Non_monotone { index; prev; time })
        else
          let inputs =
            List.map
              (fun event -> Protocol.Event { time; event })
              (Mcast_core.Distributed.Online.deltas_of_event event)
          in
          go (inputs :: acc) (index + 1) time rest
  in
  go [] 0 0. timed

let frames_of_script ?(trailer = true) script =
  match inputs_of_events (Churn_script.events script) with
  | Error e -> Error e
  | Ok inputs ->
      let buf = Buffer.create 4096 in
      let add i = Protocol.frame_into buf (Protocol.render_input i) in
      add (Protocol.Hello { version = Protocol.version });
      List.iter add inputs;
      if trailer then begin
        add Protocol.Flush;
        add Protocol.Snapshot;
        add Protocol.Bye
      end;
      Ok (Buffer.contents buf)
