(** Structured experiment results: a figure is a list of x-axis points,
    each carrying one {!Stats.summary} per named series (algorithm). *)

type point = { x : float; values : (string * Stats.summary) list }

type figure = {
  id : string;  (** a driver's figure carries its registry id *)
  title : string;
  x_label : string;
  y_label : string;
  points : point list;
}

(** All series names, in order of first appearance across the points
    (points need not carry identical series — e.g. per-mode ablations). *)
let series_names fig =
  List.fold_left
    (fun acc p ->
      List.fold_left
        (fun acc (name, _) -> if List.mem name acc then acc else acc @ [ name ])
        acc p.values)
    [] fig.points

(** Mean of series [name] at a given x. *)
let mean_at fig name x =
  List.find_opt (fun p -> Float.abs (p.x -. x) < 1e-9) fig.points
  |> Fun.flip Option.bind (fun p ->
         Option.map (fun (s : Stats.summary) -> s.Stats.mean)
           (List.assoc_opt name p.values))
