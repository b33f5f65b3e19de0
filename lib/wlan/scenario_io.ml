(** Plain-text serialization of scenarios, so deployments can be saved,
    shared and replayed exactly (the reproducibility role the paper's
    published ns-2 scripts served).

    The format is a line-oriented text file:

    {v
    wlan-mcast-scenario 1
    area <w> <h>
    budget <b>
    rates <rate>:<threshold> <rate>:<threshold> ...
    sessions <rate0> <rate1> ...
    ap <x> <y>                 (one line per AP)
    user <x> <y> <session>     (one line per user)
    v}

    Version 2 (emitted only when the scenario carries a
    {!Rate_model.Path_loss} model — a [Table] scenario always writes the
    byte-identical version-1 form above) inserts the model description
    between [rates] and [sessions]:

    {v
    model friis
    model two-ray <ap_height> <user_height>
    model log-distance <exponent>
    shadow <sigma_db> <seed>                  (log-distance only)
    radio <tx_dbm> <freq_ghz> <noise_dbm> <tx_ant> <rx_ant>
    snr <rate>:<min_snr_db> ...
    v}

    where an antenna is [iso] or [par:<gain_dbi>]. The reader accepts
    both versions. Floats are printed with ["%.17g"] so parsing
    reproduces them bit for bit. Unknown lines are an error — the
    format is versioned, not extensible. *)

let version = 2

let antenna_to_string = function
  | Rate_model.Isotropic -> "iso"
  | Rate_model.Parabolic { gain_dbi } -> Printf.sprintf "par:%.17g" gain_dbi

let to_string (sc : Scenario.t) =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match sc.Scenario.model with
  | Rate_model.Table _ -> pf "wlan-mcast-scenario 1\n"
  | Rate_model.Path_loss _ -> pf "wlan-mcast-scenario %d\n" version);
  pf "area %.17g %.17g\n" sc.Scenario.area_w sc.Scenario.area_h;
  pf "budget %.17g\n" sc.Scenario.budget;
  pf "rates";
  List.iter
    (fun (e : Rate_table.entry) ->
      pf " %.17g:%.17g" e.Rate_table.rate_mbps e.Rate_table.threshold_m)
    (Rate_table.entries sc.Scenario.rate_table);
  pf "\n";
  (match sc.Scenario.model with
  | Rate_model.Table _ -> ()
  | Rate_model.Path_loss { loss; radio } ->
      (match loss with
      | Rate_model.Friis -> pf "model friis\n"
      | Rate_model.Two_ray { ap_height_m; user_height_m } ->
          pf "model two-ray %.17g %.17g\n" ap_height_m user_height_m
      | Rate_model.Log_distance { exponent; shadowing } -> (
          pf "model log-distance %.17g\n" exponent;
          match shadowing with
          | Some { Rate_model.sigma_db; seed } ->
              pf "shadow %.17g %d\n" sigma_db seed
          | None -> ()));
      pf "radio %.17g %.17g %.17g %s %s\n" radio.Rate_model.tx_power_dbm
        radio.Rate_model.freq_ghz radio.Rate_model.noise_dbm
        (antenna_to_string radio.Rate_model.tx_antenna)
        (antenna_to_string radio.Rate_model.rx_antenna);
      pf "snr";
      List.iter
        (fun { Rate_model.rate_mbps; min_snr_db } ->
          pf " %.17g:%.17g" rate_mbps min_snr_db)
        radio.Rate_model.snr_tiers;
      pf "\n");
  pf "sessions";
  Array.iter (fun s -> pf " %.17g" (Session.rate_mbps s)) sc.Scenario.sessions;
  pf "\n";
  Array.iter
    (fun (p : Point.t) -> pf "ap %.17g %.17g\n" p.Point.x p.Point.y)
    sc.Scenario.ap_pos;
  Array.iteri
    (fun u (p : Point.t) ->
      pf "user %.17g %.17g %d\n" p.Point.x p.Point.y
        sc.Scenario.user_session.(u))
    sc.Scenario.user_pos;
  Buffer.contents buf

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let float_of s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail "bad float %S" s
  in
  let int_of s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail "bad int %S" s
  in
  let area = ref None and budget = ref None in
  let rates = ref None and sessions = ref None in
  let aps = ref [] and users = ref [] in
  let loss = ref None and shadow = ref None in
  let radio = ref None and snr = ref None in
  let ver =
    match lines with
    | header :: _ -> (
        match String.split_on_char ' ' header with
        | [ "wlan-mcast-scenario"; v ] when int_of v >= 1 && int_of v <= version
          ->
            int_of v
        | [ "wlan-mcast-scenario"; v ] -> fail "unsupported version %s" v
        | _ -> fail "missing header")
    | [] -> fail "empty scenario file"
  in
  let antenna_of s =
    match String.split_on_char ':' s with
    | [ "iso" ] -> Rate_model.Isotropic
    | [ "par"; g ] -> Rate_model.Parabolic { gain_dbi = float_of g }
    | _ -> fail "bad antenna %S (want iso or par:<gain_dbi>)" s
  in
  List.iteri
    (fun i line ->
      if i > 0 then
        match String.split_on_char ' ' line with
        | [ "area"; w; h ] -> area := Some (float_of w, float_of h)
        | [ "budget"; b ] -> budget := Some (float_of b)
        | [ "model"; "friis" ] when ver >= 2 -> loss := Some Rate_model.Friis
        | [ "model"; "two-ray"; ht; hr ] when ver >= 2 ->
            loss :=
              Some
                (Rate_model.Two_ray
                   { ap_height_m = float_of ht; user_height_m = float_of hr })
        | [ "model"; "log-distance"; n ] when ver >= 2 ->
            loss :=
              Some
                (Rate_model.Log_distance
                   { exponent = float_of n; shadowing = None })
        | [ "shadow"; sigma; seed ] when ver >= 2 ->
            shadow := Some { Rate_model.sigma_db = float_of sigma; seed = int_of seed }
        | [ "radio"; tx; freq; noise; ta; ra ] when ver >= 2 ->
            radio :=
              Some
                (fun snr_tiers ->
                  {
                    Rate_model.tx_power_dbm = float_of tx;
                    freq_ghz = float_of freq;
                    noise_dbm = float_of noise;
                    tx_antenna = antenna_of ta;
                    rx_antenna = antenna_of ra;
                    snr_tiers;
                  })
        | "snr" :: entries when ver >= 2 ->
            snr :=
              Some
                (List.map
                   (fun e ->
                     match String.split_on_char ':' e with
                     | [ r; s ] ->
                         { Rate_model.rate_mbps = float_of r;
                           min_snr_db = float_of s }
                     | _ -> fail "bad snr entry %S" e)
                   entries)
        | "rates" :: entries ->
            rates :=
              Some
                (List.map
                   (fun e ->
                     match String.split_on_char ':' e with
                     | [ r; t ] ->
                         let rate_mbps = float_of r in
                         let threshold_m = float_of t in
                         (* catch bad rates here with a line-level error
                            rather than deep inside Rate_table/Loads *)
                         if not (Float.is_finite rate_mbps) || rate_mbps <= 0.
                         then fail "non-positive rate in rate entry %S" e;
                         if
                           not (Float.is_finite threshold_m)
                           || threshold_m <= 0.
                         then fail "non-positive threshold in rate entry %S" e;
                         { Rate_table.rate_mbps; threshold_m }
                     | _ -> fail "bad rate entry %S" e)
                   entries)
        | "sessions" :: rs ->
            sessions :=
              Some
                (Array.of_list
                   (List.map
                      (fun r ->
                        let rate_mbps = float_of r in
                        if not (Float.is_finite rate_mbps) || rate_mbps <= 0.
                        then fail "non-positive session rate %S" r;
                        Session.make ~rate_mbps)
                      rs))
        | [ "ap"; x; y ] -> aps := Point.v (float_of x) (float_of y) :: !aps
        | [ "user"; x; y; s ] ->
            users := (Point.v (float_of x) (float_of y), int_of s) :: !users
        | _ -> fail "unrecognized line %S" line)
    lines;
  let require what = function Some v -> v | None -> fail "missing %s" what in
  let area_w, area_h = require "area" !area in
  let users = List.rev !users in
  let model =
    match !loss with
    | None ->
        if Option.is_some !shadow then fail "shadow line without a model line";
        if Option.is_some !radio then fail "radio line without a model line";
        if Option.is_some !snr then fail "snr line without a model line";
        None
    | Some loss ->
        let loss =
          match (loss, !shadow) with
          | Rate_model.Log_distance { exponent; shadowing = None }, Some s ->
              Rate_model.Log_distance { exponent; shadowing = Some s }
          | (Rate_model.Friis | Rate_model.Two_ray _), Some _ ->
              fail "shadow line requires a log-distance model"
          | loss, _ -> loss
        in
        let radio = (require "radio" !radio) (require "snr" !snr) in
        Some (Rate_model.Path_loss { loss; radio })
  in
  (* the same discipline as [churn_of_string]: construction-time
     validation (Rate_table.make on a hostile rates line, Scenario.make
     on an unknown session index, Rate_model.validate on a bad model)
     surfaces as Parse_error, never as a raw Invalid_argument *)
  try
    Scenario.make ~area_w ~area_h
      ~ap_pos:(Array.of_list (List.rev !aps))
      ~user_pos:(Array.of_list (List.map fst users))
      ~user_session:(Array.of_list (List.map snd users))
      ~sessions:(require "sessions" !sessions)
      ~rate_table:(Rate_table.make (require "rates" !rates))
      ?model
      ~budget:(require "budget" !budget)
      ()
  with Invalid_argument msg -> fail "%s" msg

(** {1 Churn scripts}

    Same discipline, separate stream: a churn script serializes to its
    own versioned line format so dynamic workloads ship next to — not
    inside — the static deployment they run against:

    {v
    wlan-mcast-churn 1
    at <t> join <user>
    at <t> leave <user>
    at <t> ap-fail <ap>
    at <t> ap-recover <ap>
    at <t> drift <user> <steps>
    at <t> burst <user> <user> ...
    v} *)

let churn_version = 1

let churn_to_string (cs : Churn_script.t) =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "wlan-mcast-churn %d\n" churn_version;
  List.iter
    (fun { Churn_script.time; event } ->
      pf "at %.17g " time;
      (match event with
      | Churn_script.Join { user } -> pf "join %d" user
      | Churn_script.Leave { user } -> pf "leave %d" user
      | Churn_script.Ap_fail { ap } -> pf "ap-fail %d" ap
      | Churn_script.Ap_recover { ap } -> pf "ap-recover %d" ap
      | Churn_script.Drift { user; steps } -> pf "drift %d %d" user steps
      | Churn_script.Burst { users } ->
          pf "burst";
          List.iter (pf " %d") users);
      pf "\n")
    (Churn_script.events cs);
  Buffer.contents buf

let churn_of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  let float_of s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail "bad float %S" s
  in
  let int_of s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail "bad int %S" s
  in
  (match lines with
  | header :: _ -> (
      match String.split_on_char ' ' header with
      | [ "wlan-mcast-churn"; v ] when int_of v = churn_version -> ()
      | [ "wlan-mcast-churn"; v ] -> fail "unsupported churn version %s" v
      | _ -> fail "missing churn header")
  | [] -> fail "empty churn script");
  let events = ref [] in
  List.iteri
    (fun i line ->
      if i > 0 then
        let timed time event = { Churn_script.time; event } in
        match String.split_on_char ' ' line with
        | [ "at"; t; "join"; u ] ->
            events :=
              timed (float_of t) (Churn_script.Join { user = int_of u })
              :: !events
        | [ "at"; t; "leave"; u ] ->
            events :=
              timed (float_of t) (Churn_script.Leave { user = int_of u })
              :: !events
        | [ "at"; t; "ap-fail"; a ] ->
            events :=
              timed (float_of t) (Churn_script.Ap_fail { ap = int_of a })
              :: !events
        | [ "at"; t; "ap-recover"; a ] ->
            events :=
              timed (float_of t) (Churn_script.Ap_recover { ap = int_of a })
              :: !events
        | [ "at"; t; "drift"; u; s ] ->
            events :=
              timed (float_of t)
                (Churn_script.Drift { user = int_of u; steps = int_of s })
              :: !events
        | "at" :: t :: "burst" :: us when us <> [] ->
            events :=
              timed (float_of t)
                (Churn_script.Burst { users = List.map int_of us })
              :: !events
        | _ -> fail "unrecognized churn line %S" line)
    lines;
  try Churn_script.make (List.rev !events)
  with Invalid_argument msg -> fail "%s" msg

let churn_to_file path cs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (churn_to_string cs))

let churn_of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> churn_of_string (In_channel.input_all ic))

let to_file path sc =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string sc))

let of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
