(** Structured experiment results: a figure is a list of x-axis points,
    each carrying one {!Stats.summary} per named series (algorithm). *)

type point = { x : float; values : (string * Stats.summary) list }

type figure = {
  id : string;  (** a driver's figure carries its registry id *)
  title : string;
  x_label : string;
  (* the drivers golden pins the axis labels — lint: allow field-reachability *)
  y_label : string;
  points : point list;
}

(** All series names, in order of first appearance across the points. *)
val series_names : figure -> string list

(** Mean of a series at a given x. *)
val mean_at : figure -> string -> float -> float option
