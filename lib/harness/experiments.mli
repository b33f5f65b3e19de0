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

(** {1 Registry} *)

(** Every figure driver by id, in the order [wlan-mcast figures] runs
    them: the paper's Figs. 9(a-c)-12(a-c), the [ablate-*] design-choice
    ablations and the [ext-*] extension studies. Read by the [figures]
    and [profile] subcommands and [bench/e2e/figs.ml]. *)
val drivers : (string * (?cfg:config -> unit -> Series.figure)) list

(** The Fig. 9(a) entry of {!drivers}. *)
val fig9a : ?cfg:config -> unit -> Series.figure
