(** Planar geometry for node placement.

    All coordinates are in meters. The paper places APs and users uniformly
    at random over a rectangular deployment area (1.2 km² in the large-scale
    experiments, 600 m side in the small optimality experiments). *)

type t = { x : float; y : float }

let v x y = { x; y }

let dist2 a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  (dx *. dx) +. (dy *. dy)

(** Euclidean distance in meters. *)
let dist a b = sqrt (dist2 a b)

(** [within r a b] is true when [a] and [b] are at most [r] meters apart. *)
let within r a b = dist2 a b <= r *. r

(** Uniform random point in the [w] × [h] rectangle anchored at the origin. *)
let random ~rng ~w ~h =
  v (Random.State.float rng w) (Random.State.float rng h)
