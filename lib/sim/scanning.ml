(** Active scanning (the paper cites SyncScan-style active scanning for
    neighbor discovery): every user broadcasts a probe request; each AP in
    range answers after a processing delay plus deterministic jitter. When
    the last response lands, the user knows its neighbor APs, their signal
    strengths and its link rate to each. *)

type neighbor = { ap : int; link_rate_mbps : float; signal : float }

type result = neighbor list array  (** per user, strongest first *)

let probe_at = 0. (* when users send probe requests *)
let response_base = 2e-3 (* AP processing delay before responding *)
let response_jitter = 1e-3 (* max extra uniform jitter *)

(** Schedule the scan on [engine]; [on_complete] fires (as a simulation
    event) once every expected probe response has been received. *)
let start engine radio ~on_complete =
  let n_users = Radio.n_users radio in
  let results : neighbor list array = Array.make n_users [] in
  let expected = ref 0 in
  let received = ref 0 in
  let maybe_done () =
    incr received;
    if !received = !expected then on_complete results
  in
  (* count expected responses first so completion can't fire early *)
  for u = 0 to n_users - 1 do
    expected := !expected + List.length (Radio.neighbor_aps radio ~user:u)
  done;
  if !expected = 0 then
    Engine.schedule engine ~at:probe_at (fun () -> on_complete results);
  for u = 0 to n_users - 1 do
    Engine.schedule engine ~at:probe_at (fun () ->
        List.iter
          (fun a ->
            let delay =
              response_base
              +. Engine.jitter engine ~max:response_jitter
              +. Radio.propagation_delay radio ~ap:a ~user:u
            in
            Engine.after engine ~delay (fun () ->
                let link_rate_mbps =
                  Option.value ~default:0. (Radio.link_rate radio ~ap:a ~user:u)
                in
                results.(u) <-
                  { ap = a; link_rate_mbps; signal = Radio.signal radio ~ap:a ~user:u }
                  :: results.(u);
                maybe_done ()))
          (Radio.neighbor_aps radio ~user:u))
  done;
  (* sort each user's neighbor list strongest-first on completion is the
     caller's concern; provide the helper *)
  ()

(** Sort a scan result strongest-signal-first (ties by AP index). *)
let sort_by_signal (results : result) =
  Array.map
    (fun l ->
      List.stable_sort
        (fun a b ->
          match Float.compare b.signal a.signal with
          | 0 -> Int.compare a.ap b.ap
          | c -> c)
        l)
    results
