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

(** Compile into the abstract problem instance without ever allocating
    an (AP × user) matrix: a {!Sparse.Grid} bucket grid over the AP
    positions (cell = the model's {!Rate_model.max_range}) yields each
    user's candidate superset, and the model's link predicate —
    [Rate_model.link] on [Point.dist] — decides membership. Random
    placement can legitimately strand a user out of every AP's range,
    so the compiled instance allows uncovered users —
    {!uncovered_users} reports them. O(APs + users · candidates). *)
let to_problem t =
  let grid = Sparse.Grid.build ~cell:(range t) t.ap_pos in
  let links =
    Array.mapi
      (fun ui u ->
        (* probe order is ascending, so the candidate list is sorted *)
        List.filter_map
          (fun a ->
            let dist = Point.dist t.ap_pos.(a) u in
            match Rate_model.link t.model ~ap:a ~user:ui ~dist with
            | Some (r, s) -> Some (a, r, s)
            | None -> None)
          (Sparse.Grid.probe grid u))
      t.user_pos
  in
  Problem.make_sparse ~allow_uncovered:true
    ~sparse:(Sparse.make ~n_aps:(n_aps t) ~links)
    ~session_rates:(Array.map Session.rate_mbps t.sessions)
    ~user_session:(Array.copy t.user_session)
    ~budget:t.budget ()

(** Alias of {!to_problem}. *)
let to_problem_sparse = to_problem

(** Users no AP can serve — decided by the same {!Rate_model.link}
    predicate the compile uses, so this list agrees exactly with the
    compiled problem's empty candidate sets (historically it tested
    [Point.within], whose squared-distance comparison could disagree
    with the compile at the range boundary in floating point). *)
let uncovered_users t =
  let n_aps = Array.length t.ap_pos in
  let covered u =
    let up = t.user_pos.(u) in
    let rec probe a =
      a < n_aps
      && (match
            Rate_model.link t.model ~ap:a ~user:u
              ~dist:(Point.dist t.ap_pos.(a) up)
          with
         | Some _ -> true
         | None -> probe (a + 1))
    in
    probe 0
  in
  let acc = ref [] in
  for u = Array.length t.user_pos - 1 downto 0 do
    if not (covered u) then acc := u :: !acc
  done;
  !acc

let fully_covered t = uncovered_users t = []

let pp ppf t =
  Fmt.pf ppf "@[<v>scenario: %gx%g m, %d APs, %d users, %d sessions, %s model@]"
    t.area_w t.area_h (n_aps t) (n_users t) (Array.length t.sessions)
    (Rate_model.name t.model)
