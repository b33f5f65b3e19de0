(** Pluggable PHY link-rate models.

    The paper reduces the PHY to Table 1: a distance-threshold ladder
    ({!Rate_table}). That reduction is one {e instance} of a link-rate
    model; this module makes the interface first-class so the solver
    comparisons can be ablated against physically-derived alternatives:

    - {!Table} — the paper's Table 1 ladder, {e bit-identical} to the
      historical compile path (rate via [Rate_table.rate_at_distance],
      signal metric [-. distance]); the pinned default everywhere.
    - {!Path_loss} — received power from a propagation model (Friis
      free-space, two-ray ground, log-distance with deterministic
      seeded per-link shadowing) plus antenna gains, mapped through an
      SNR-threshold ladder to the same 802.11 rate tiers.

    Every model exposes the same three-point contract the compile and
    simulation layers consume: {!link} (the one rate/signal predicate),
    {!max_range} (the radius beyond which [link] is [None] — the
    compile's bucket-grid cell), and {!tier_rates} (the drift ladder churn and the
    serve daemon share). Shadowing draws use the split-RNG discipline
    (a state keyed by [(seed, tag, ap, user)] per link), so compilation
    is a pure function of the scenario at any [--jobs]. *)

(** Antenna gain pattern, applied symmetrically at both link ends. *)
type antenna =
  | Isotropic  (** 0 dBi *)
  | Parabolic of { gain_dbi : float }
      (** boresight gain of a parabolic dish, assumed aligned *)

(** One rung of the SNR ladder: [rate_mbps] needs at least
    [min_snr_db]. *)
type snr_tier = { rate_mbps : float; min_snr_db : float }

type radio = {
  tx_power_dbm : float;
  freq_ghz : float;
  noise_dbm : float;  (** thermal noise + receiver noise figure *)
  tx_antenna : antenna;
  rx_antenna : antenna;
  snr_tiers : snr_tier list;
      (** strictly decreasing rates and strictly decreasing SNR
          thresholds, highest first *)
}

(** Deterministic log-normal shadowing: link [(ap, user)] draws one
    clamped (±3σ) Gaussian dB offset from an RNG keyed by
    [(seed, tag, ap, user)] — reproducible per link, independent across
    links. *)
type shadowing = { sigma_db : float; seed : int }

type path_loss =
  | Friis  (** free space: PL(d) = 20·log₁₀(4πd/λ) *)
  | Two_ray of { ap_height_m : float; user_height_m : float }
      (** Friis up to the crossover 4π·hₜ·hᵣ/λ, d⁴ ground-reflection
          decay beyond (the ns-2 TwoRayGround switch) *)
  | Log_distance of { exponent : float; shadowing : shadowing option }
      (** PL(d) = PL(1 m) + 10·n·log₁₀(d) + X_σ *)

type t =
  | Table of Rate_table.t
  | Path_loss of { loss : path_loss; radio : radio }

(** 16 dBm transmit, 5.8 GHz, −85 dBm noise floor, isotropic antennas,
    the eight 802.11a SNR tiers — calibrated so Friis reaches ≈ 231 m
    (Table 1 reaches 200 m). *)
(* lint: allow export-reachability — the round-trip test's random path-loss models start from it *)
val default_radio : radio

(** Friis on {!default_radio}. The smart constructors below all use
    it; build a [Path_loss] record for any other radio or parameters. *)
val friis : unit -> t

(** A 10 m AP height and a 1.5 m user height. At 5.8 GHz that puts the
    crossover near 3.6 km — inside WLAN range two-ray {e is} Friis;
    lower heights (or frequencies) pull the d⁴ regime into reach. *)
val two_ray : unit -> t

(** Exponent 2.2; no shadowing unless given. *)
val log_distance : ?shadowing:shadowing -> unit -> t

(** Check the model is well-formed (finite parameters, positive
    frequency/heights/exponent, a strictly-decreasing non-empty SNR
    ladder, non-negative gains and σ) and return it.
    @raise Invalid_argument otherwise. *)
val validate : t -> t

(** The radius beyond which {!link} is [None]: the table's largest
    threshold, or the path-loss inversion at the lowest tier's SNR
    (plus the +3σ shadowing margin when shadowed). This is the
    compile's bucket-grid cell size. *)
val max_range : t -> float

(** The drift tier ladder, highest rate first — [Rate_table.rates] for
    {!Table}, the SNR-ladder rates for {!Path_loss}. *)
val tier_rates : t -> float list

(** [link t ~ap ~user ~dist] is [Some (rate_mbps, signal)] when the link
    is usable, [None] beyond {!max_range} or below the lowest SNR tier.
    For {!Table} this is exactly the historical compile:
    [Rate_table.rate_at_distance] and signal [-. dist]. For
    {!Path_loss} the rate is the highest tier whose threshold the link
    SNR meets and the signal is the received power in dBm (higher =
    stronger, like [-. dist]). Guaranteed [None] whenever
    [dist > max_range t], so a bucket grid with cell [max_range] probes
    a superset of every usable link. *)
val link : t -> ap:int -> user:int -> dist:float -> (float * float) option

(** Short stable identifier: ["table"], ["friis"], ["two-ray"],
    ["log-distance"] — used by figure/bench row labels. *)
val name : t -> string
