(** One driver per table/figure of the paper's evaluation (§7), plus the
    design-choice ablations and the extension studies of DESIGN.md.
    Every driver returns a {!Series.figure}; defaults follow the paper
    (min/avg/max over 40 random scenarios per point). *)

type config = {
  scenarios : int;  (** random scenarios per point (paper: 40) *)
  small_scenarios : int;  (** scenarios per point for the ILP-bound Fig. 12 *)
  seed : int;
  ilp_node_limit : int;  (** branch-and-bound budget per exact solve *)
  jobs : int;
      (** domains fanning scenarios out through {!Pool} (1 = sequential).
          Per-scenario RNG seeds are split from [seed] before dispatch, so
          every driver returns bit-identical figures at any [jobs] value. *)
}

(** 40 scenarios (8 for Fig. 12, with a 4,000-node budget per BLA/MNU
    exact solve), seed 2007, [jobs = 1]. *)
val default_config : config

(** {1 The paper's figures} *)

val fig9a : ?cfg:config -> unit -> Series.figure
val fig9b : ?cfg:config -> unit -> Series.figure
val fig9c : ?cfg:config -> unit -> Series.figure
val fig10a : ?cfg:config -> unit -> Series.figure
val fig10b : ?cfg:config -> unit -> Series.figure
val fig10c : ?cfg:config -> unit -> Series.figure
val fig11 : ?cfg:config -> unit -> Series.figure
val fig12a : ?cfg:config -> unit -> Series.figure
val fig12b : ?cfg:config -> unit -> Series.figure
val fig12c : ?cfg:config -> unit -> Series.figure

(** Table 1 as (rate, distance threshold) pairs. *)
val table1 : unit -> (float * float) list

(** The abstract's claims, recomputed. *)
type headline = {
  mnu_user_gain_pct : float;
  bla_max_load_reduction_pct : float;
  mla_total_load_reduction_pct : float;
}

(** The abstract's claims read off already-computed figures: MLA's total
    load and BLA's max load against SSA at 400 users ([fig9a], [fig10a]),
    MNU's satisfied users against SSA at budget 0.04 ([fig11]). Raises
    [Invalid_argument] if a figure lacks one of those points. *)
val headline :
  fig9a:Series.figure -> fig10a:Series.figure -> fig11:Series.figure ->
  headline

(** {1 Ablations} *)

val ablate_rate : ?cfg:config -> unit -> Series.figure
val ablate_bstar : ?cfg:config -> unit -> Series.figure
val ablate_sched : ?cfg:config -> unit -> Series.figure
val ablate_bla_mode : ?cfg:config -> unit -> Series.figure
val ablate_mla_alg : ?cfg:config -> unit -> Series.figure

(** {1 Extension studies} *)

val ext_popularity : ?cfg:config -> unit -> Series.figure
val ext_interference : ?cfg:config -> unit -> Series.figure
val ext_dual : ?cfg:config -> unit -> Series.figure
val ext_loss : ?cfg:config -> unit -> Series.figure
val ext_mobility : ?cfg:config -> unit -> Series.figure
val ext_power : ?cfg:config -> unit -> Series.figure
val ext_standards : ?cfg:config -> unit -> Series.figure

(** Per-step churn disruption vs script intensity (replays random
    {!Wlan_model.Churn_script}s through {!Wlan_sim.Churn}). *)
val ext_churn : ?cfg:config -> unit -> Series.figure

(** PHY-model ablation: MNU/BLA/MLA/SSA quality and distributed
    convergence rounds under Table 1 vs Friis vs two-ray vs
    log-distance (+ seeded shadowing) link-rate models, same split-RNG
    deployment streams. *)
val ablate_phy : ?cfg:config -> unit -> Series.figure

(** {1 Registry} *)

(** Every figure driver by id ("fig9a" .. "ext-standards"), shared by the
    front ends. *)
val drivers : (string * (?cfg:config -> unit -> Series.figure)) list
