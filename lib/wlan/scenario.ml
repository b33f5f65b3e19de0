(** Geometric WLAN deployments.

    A scenario is the physical picture: AP positions, user positions, the
    session each user requests, the session stream rates, the link-rate
    model and the per-AP multicast budget. [to_problem] compiles it into
    the abstract {!Problem} instance the algorithms consume, by running
    the model's rate adaptation on every AP-user link and installing the
    model's signal metric (for the default {!Rate_model.Table} model:
    negative distance, nearest AP = strongest signal). *)

type t = {
  area_w : float;  (** deployment area width (m) *)
  area_h : float;  (** deployment area height (m) *)
  ap_pos : Point.t array;
  user_pos : Point.t array;
  user_session : int array;  (** user index -> session index *)
  sessions : Session.t array;
  rate_table : Rate_table.t;
  model : Rate_model.t;
  budget : float;
}

let n_aps t = Array.length t.ap_pos
let n_users t = Array.length t.user_pos

let make ~area_w ~area_h ~ap_pos ~user_pos ~user_session ~sessions
    ?(rate_table = Rate_table.default) ?model ~budget () =
  if Array.length user_session <> Array.length user_pos then
    invalid_arg "Scenario.make: user_session/user_pos length mismatch";
  Array.iter
    (fun s ->
      if s < 0 || s >= Array.length sessions then
        invalid_arg "Scenario.make: user requests unknown session")
    user_session;
  Array.iter
    (fun (p : Point.t) ->
      if not (Float.is_finite p.x && Float.is_finite p.y) then
        Fmt.kstr invalid_arg "Scenario.make: (%g, %g) is not finite" p.x p.y)
    (Array.append ap_pos user_pos);
  let model =
    match model with
    | None -> Rate_model.Table rate_table
    | Some m -> Rate_model.validate m
  in
  (* a [Table] model IS the rate table — keep the two fields coherent so
     [rate_table] consumers (the simulator's MAC timing, serialization)
     agree with the compile *)
  let rate_table =
    match model with Rate_model.Table tbl -> tbl | Rate_model.Path_loss _ -> rate_table
  in
  { area_w; area_h; ap_pos; user_pos; user_session; sessions; rate_table;
    model; budget }

(** The model's radio range — the radius beyond which no link exists. *)
let range t = Rate_model.max_range t.model

(** Distance matrix, AP-major. *)
let distances t =
  Array.map
    (fun ap -> Array.map (fun u -> Point.dist ap u) t.user_pos)
    t.ap_pos

(* The scenario's CSR planes. [Rate_model.link] goes in as one 3-ary
   closure: a partial application would re-curry on every call. *)
let links t =
  let model = t.model in
  Sparse.of_geometry ~cell:(range t) ~ap_pos:t.ap_pos ~user_pos:t.user_pos
    ~link:(fun ~ap ~user ~dist -> Rate_model.link model ~ap ~user ~dist)

(** Compile into the abstract problem instance without ever allocating
    an (AP × user) matrix: {!Sparse.of_geometry} sorts the AP positions
    into a grid (cell = the model's {!Rate_model.max_range}) and writes
    the CSR planes straight from each user's 3×3 cell block, with the
    model's link predicate — [Rate_model.link] on [Point.dist] —
    deciding membership. Random placement can legitimately strand a
    user out of every AP's range, so the compiled instance allows
    uncovered users — {!uncovered_users} reports them. *)
let to_problem t =
  Problem.make_sparse ~allow_uncovered:true ~sparse:(links t)
    ~session_rates:(Array.map Session.rate_mbps t.sessions)
    ~user_session:(Array.copy t.user_session)
    ~budget:t.budget ()

(** Alias of {!to_problem}. *)
let to_problem_sparse = to_problem

(** Users no AP can serve: the empty candidate lists of the compile's
    own planes, so this list agrees with the compiled problem by
    construction, range boundary included. *)
let uncovered_users t =
  let links = links t in
  List.filter
    (fun u -> Sparse.degree links u = 0)
    (List.init (n_users t) Fun.id)

let pp ppf t =
  Fmt.pf ppf "@[<v>scenario: %gx%g m, %d APs, %d users, %d sessions, %s model@]"
    t.area_w t.area_h (n_aps t) (n_users t) (Array.length t.sessions)
    (Rate_model.name t.model)
