(** Pluggable PHY link-rate models — see the interface for the contract.

    Design notes:

    - [Table] reproduces the historical compile path {e bit for bit}:
      the same [Rate_table.rate_at_distance] call on the same distance,
      the same [-. dist] signal. The golden digests pin this.
    - [Path_loss] computes received power = tx + gains − PL(d) −
      shadowing, SNR = rx − noise, then walks the SNR ladder. The
      explicit [dist > max_range] guard in {!link} (not just the SNR
      test) is what makes the bucket-grid compile exact: the grid
      probes a superset of the [max_range] disc and applies this one
      predicate, just as a brute-force all-pairs scan would.
    - Shadowing is a pure function of [(seed, ap, user)] via the
      split-RNG discipline, clamped to ±3σ so [max_range] can include
      the +3σ margin and stay a true upper bound. *)

type antenna = Isotropic | Parabolic of { gain_dbi : float }
type snr_tier = { rate_mbps : float; min_snr_db : float }

type radio = {
  tx_power_dbm : float;
  freq_ghz : float;
  noise_dbm : float;
  tx_antenna : antenna;
  rx_antenna : antenna;
  snr_tiers : snr_tier list;
}

type shadowing = { sigma_db : float; seed : int }

type path_loss =
  | Friis
  | Two_ray of { ap_height_m : float; user_height_m : float }
  | Log_distance of { exponent : float; shadowing : shadowing option }

type t =
  | Table of Rate_table.t
  | Path_loss of { loss : path_loss; radio : radio }

(* Typical 802.11a receiver-sensitivity deltas mapped to SNR-over-noise
   thresholds: each OFDM rate needs roughly these dB over the noise
   floor to decode. *)
let ieee80211a_snr_tiers =
  [
    { rate_mbps = 54.; min_snr_db = 25.5 };
    { rate_mbps = 48.; min_snr_db = 23.5 };
    { rate_mbps = 36.; min_snr_db = 19.5 };
    { rate_mbps = 24.; min_snr_db = 15. };
    { rate_mbps = 18.; min_snr_db = 12. };
    { rate_mbps = 12.; min_snr_db = 9.5 };
    { rate_mbps = 6.; min_snr_db = 6. };
  ]

let default_radio =
  {
    tx_power_dbm = 16.;
    freq_ghz = 5.8;
    noise_dbm = -85.;
    tx_antenna = Isotropic;
    rx_antenna = Isotropic;
    snr_tiers = ieee80211a_snr_tiers;
  }

let friis ?(radio = default_radio) () = Path_loss { loss = Friis; radio }

let two_ray ?(radio = default_radio) ?(ap_height_m = 10.) ?(user_height_m = 1.5)
    () =
  Path_loss { loss = Two_ray { ap_height_m; user_height_m }; radio }

let log_distance ?(radio = default_radio) ?(exponent = 2.2) ?shadowing () =
  Path_loss { loss = Log_distance { exponent; shadowing }; radio }

let antenna_gain_dbi = function
  | Isotropic -> 0.
  | Parabolic { gain_dbi } -> gain_dbi

let validate t =
  let check cond fmt =
    Printf.ksprintf (fun msg -> if not cond then invalid_arg msg) fmt
  in
  let fin v = Float.is_finite v in
  (match t with
  | Table tbl ->
      check (Rate_table.invariant tbl) "Rate_model.validate: bad rate table"
  | Path_loss { loss; radio } ->
      check (fin radio.tx_power_dbm) "Rate_model.validate: tx power not finite";
      check
        (fin radio.freq_ghz && radio.freq_ghz > 0.)
        "Rate_model.validate: frequency must be finite and positive";
      check (fin radio.noise_dbm) "Rate_model.validate: noise floor not finite";
      List.iter
        (fun a ->
          let g = antenna_gain_dbi a in
          check (fin g && g >= 0.)
            "Rate_model.validate: antenna gain must be finite and >= 0")
        [ radio.tx_antenna; radio.rx_antenna ];
      check (radio.snr_tiers <> []) "Rate_model.validate: empty SNR ladder";
      List.iter
        (fun { rate_mbps; min_snr_db } ->
          check
            (fin rate_mbps && rate_mbps > 0.)
            "Rate_model.validate: tier rate must be finite and positive";
          check (fin min_snr_db) "Rate_model.validate: tier SNR not finite")
        radio.snr_tiers;
      List.iter2
        (fun a b ->
          check
            (b.rate_mbps < a.rate_mbps)
            "Rate_model.validate: tier rates must be strictly decreasing";
          check
            (b.min_snr_db < a.min_snr_db)
            "Rate_model.validate: tier SNR thresholds must be strictly \
             decreasing")
        (List.filteri (fun i _ -> i < List.length radio.snr_tiers - 1)
           radio.snr_tiers)
        (List.tl radio.snr_tiers);
      (match loss with
      | Friis -> ()
      | Two_ray { ap_height_m; user_height_m } ->
          check
            (fin ap_height_m && ap_height_m > 0.)
            "Rate_model.validate: AP height must be finite and positive";
          check
            (fin user_height_m && user_height_m > 0.)
            "Rate_model.validate: user height must be finite and positive"
      | Log_distance { exponent; shadowing } -> (
          check
            (fin exponent && exponent > 0.)
            "Rate_model.validate: path-loss exponent must be finite and \
             positive";
          match shadowing with
          | None -> ()
          | Some { sigma_db; seed = _ } ->
              check
                (fin sigma_db && sigma_db >= 0.)
                "Rate_model.validate: shadowing sigma must be finite and >= 0")));
  t

(* ------------------------------------------------------------------ *)
(* Propagation                                                         *)
(* ------------------------------------------------------------------ *)

let light_speed_m_s = 299_792_458.
let wavelength_m radio = light_speed_m_s /. (radio.freq_ghz *. 1e9)

(* Free-space path loss; the 1 m clamp keeps the near field (and d = 0
   self-links) finite. *)
let friis_db radio d =
  let d = Float.max 1. d in
  20. *. Float.log10 (4. *. Float.pi *. d /. wavelength_m radio)

let two_ray_crossover_m radio ~ap_height_m ~user_height_m =
  4. *. Float.pi *. ap_height_m *. user_height_m /. wavelength_m radio

let path_loss_db radio loss dist =
  match loss with
  | Friis -> friis_db radio dist
  | Two_ray { ap_height_m; user_height_m } ->
      let d = Float.max 1. dist in
      let dc = two_ray_crossover_m radio ~ap_height_m ~user_height_m in
      (* continuous at [dc]: both branches equal 20·log₁₀(4π·dc/λ) there *)
      if d <= dc then friis_db radio d
      else
        (40. *. Float.log10 d)
        -. (20. *. Float.log10 (ap_height_m *. user_height_m))
  | Log_distance { exponent; shadowing = _ } ->
      let d = Float.max 1. dist in
      friis_db radio 1. +. (10. *. exponent *. Float.log10 d)

(* Split tag for per-link shadowing streams, disjoint from the scenario
   (0x5ce7a510), city (0x5ced1517) and churn (0x0c817a4) tags. *)
let shadow_split_tag = 0x5fade01

let shadow_db { sigma_db; seed } ~ap ~user =
  if sigma_db <= 0. then 0.
  else
    let rng = Random.State.make [| seed; shadow_split_tag; ap; user |] in
    (* standard Box–Muller deviate, as in Scenario_gen *)
    let u1 = Float.max 1e-12 (Random.State.float rng 1.) in
    let u2 = Random.State.float rng 1. in
    let g = sigma_db *. sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
    Float.max (-3. *. sigma_db) (Float.min (3. *. sigma_db) g)

let gains_dbi radio =
  antenna_gain_dbi radio.tx_antenna +. antenna_gain_dbi radio.rx_antenna

let rx_power_dbm ~loss ~radio ~ap ~user ~dist =
  let shadow =
    match loss with
    | Log_distance { shadowing = Some s; _ } -> shadow_db s ~ap ~user
    | Friis | Two_ray _ | Log_distance { shadowing = None; _ } -> 0.
  in
  radio.tx_power_dbm +. gains_dbi radio
  -. path_loss_db radio loss dist
  -. shadow

(* ------------------------------------------------------------------ *)
(* The model contract                                                  *)
(* ------------------------------------------------------------------ *)

let min_tier_snr_db radio =
  List.fold_left (fun acc t -> Float.min acc t.min_snr_db) infinity
    radio.snr_tiers

(* Largest tolerable path loss for the lowest tier, including the +3σ
   shadowing margin (a −3σ draw boosts the link). *)
let loss_budget_db loss radio =
  let margin =
    match loss with
    | Log_distance { shadowing = Some { sigma_db; _ }; _ } -> 3. *. sigma_db
    | Friis | Two_ray _ | Log_distance { shadowing = None; _ } -> 0.
  in
  radio.tx_power_dbm +. gains_dbi radio -. radio.noise_dbm
  -. min_tier_snr_db radio +. margin

let max_range = function
  | Table tbl -> Rate_table.range tbl
  | Path_loss { loss; radio } ->
      let budget = loss_budget_db loss radio in
      let friis_inv l = wavelength_m radio /. (4. *. Float.pi) *. (10. ** (l /. 20.)) in
      let d =
        match loss with
        | Friis -> friis_inv budget
        | Two_ray { ap_height_m; user_height_m } ->
            let df = friis_inv budget in
            let dc = two_ray_crossover_m radio ~ap_height_m ~user_height_m in
            if df <= dc then df
            else
              10.
              ** ((budget +. (20. *. Float.log10 (ap_height_m *. user_height_m)))
                  /. 40.)
        | Log_distance { exponent; shadowing = _ } ->
            10. ** ((budget -. friis_db radio 1.) /. (10. *. exponent))
      in
      (* the near-field clamp makes every loss constant below 1 m *)
      Float.max 1. d

let tier_rates = function
  | Table tbl -> Rate_table.rates tbl
  | Path_loss { radio; _ } -> List.map (fun t -> t.rate_mbps) radio.snr_tiers

let link t ~ap ~user ~dist =
  match t with
  | Table tbl -> (
      match Rate_table.rate_at_distance tbl dist with
      | Some r -> Some (r, -.dist)
      | None -> None)
  | Path_loss { loss; radio } ->
      if dist > max_range t then None
      else
        let rx = rx_power_dbm ~loss ~radio ~ap ~user ~dist in
        let snr = rx -. radio.noise_dbm in
        let rec pick = function
          | [] -> None
          | { rate_mbps; min_snr_db } :: rest ->
              if snr >= min_snr_db then Some (rate_mbps, rx) else pick rest
        in
        pick radio.snr_tiers

let dead_signal t ~dist =
  match t with Table _ -> -.dist | Path_loss _ -> neg_infinity

let name = function
  | Table _ -> "table"
  | Path_loss { loss = Friis; _ } -> "friis"
  | Path_loss { loss = Two_ray _; _ } -> "two-ray"
  | Path_loss { loss = Log_distance _; _ } -> "log-distance"
