(** Radio channel planning and co-channel interference accounting.

    The paper assumes neighboring APs are channel-planned not to interfere
    (§3.1) and notes BLA/MLA implicitly reduce whatever interference
    remains. This module provides the conflict graph, a DSATUR greedy
    coloring onto the available channels, and metrics charging each AP the
    multicast load of its same-channel conflict neighbors. *)

(** APs within [range] meters of each other (carrier-sense range;
    typically ~2x the data range). *)
val conflict_edges : range:float -> Point.t array -> (int * int) list

type assignment = {
  channels : int array;  (** AP index -> channel in [0, n_channels) *)
  n_channels : int;
  conflict_edges : (int * int) list;
  residual_conflicts : int;
      (** same-channel conflict edges the coloring could not avoid *)
}

(** DSATUR greedy coloring onto [n_channels] channels (default 12, the
    non-overlapping 802.11a channels in US/Canada); when all colors clash
    at a vertex it takes the color least used among its neighbors
    (graceful degradation).
    @raise Invalid_argument when [n_channels <= 0]. *)
val color : ?n_channels:int -> n_aps:int -> (int * int) list -> assignment

val total_interference : assignment -> loads:float array -> float
val pp : Format.formatter -> assignment -> unit
