(** MAC-layer multicast airtime accounting.

    During the streaming phase each AP transmits every session it serves as
    a periodic stream of fixed-size frames: a session at [r] Mbps with
    [frame_bits]-bit frames sends one frame every [frame_bits / r] seconds,
    and each frame occupies the medium for [frame_bits / tx_rate] seconds.
    The per-AP busy-time over the measurement window, divided by the window
    length, is the {e measured} multicast load — which must agree with
    Definition 1's analytic [session_rate / tx_rate] sum (the integration
    tests assert exactly that). *)

(* 1500-byte frames. *)
let frame_bits = 12_000.

(** One scheduled transmission: AP [ap] streams a session of rate
    [session_rate_mbps] at transmission rate [tx_rate_mbps]. *)
type stream = {
  ap : int;
  session_rate_mbps : float;
  tx_rate_mbps : float;
}

type accounting = {
  busy : float array;  (** per-AP seconds of airtime used *)
  frames : int array;  (** per-AP frames transmitted *)
  window : float * float;
}

(** Extract the streaming plan from a problem + association: one stream per
    (AP, session) actually served, at the min-link-rate of its receivers. *)
let plan_of_association p assoc =
  let tx = Wlan_model.Loads.tx_rates p assoc in
  let streams = ref [] in
  Array.iteri
    (fun ap tx_row ->
      Array.iteri
        (fun session rate ->
          if rate > 0. then
            streams :=
              {
                ap;
                session_rate_mbps = Wlan_model.Problem.session_rate p session;
                tx_rate_mbps = rate;
              }
              :: !streams)
        tx_row)
    tx;
  List.rev !streams

(** Schedule the streaming phase on [engine]: every stream's frames over
    [window = (start, finish)]. Returns the accounting record, filled in as
    the engine runs. *)
let start engine ~n_aps ~window streams =
  let start_t, finish_t = window in
  if finish_t <= start_t then invalid_arg "Mac.start: empty window";
  let acc =
    { busy = Array.make n_aps 0.; frames = Array.make n_aps 0; window }
  in
  List.iter
    (fun s ->
      let interval = s.session_rate_mbps *. 1e6 in
      let interval = frame_bits /. interval in
      let airtime =
        Radio.frame_airtime ~bits:frame_bits ~rate_mbps:s.tx_rate_mbps
      in
      let rec send_at t =
        if t < finish_t then
          Engine.schedule engine ~at:t (fun () ->
              acc.busy.(s.ap) <- acc.busy.(s.ap) +. airtime;
              acc.frames.(s.ap) <- acc.frames.(s.ap) + 1;
              send_at (t +. interval))
      in
      send_at start_t)
    streams;
  acc

(** Measured load of each AP once the engine has drained the window. *)
let measured_loads acc =
  let start_t, finish_t = acc.window in
  Array.map (fun b -> b /. (finish_t -. start_t)) acc.busy
