(** An abstract association-control problem instance.

    This is the canonical input to every algorithm in [Mcast_core]: the link
    structure between APs and users, each user's requested session, the
    session stream rates, and the per-AP multicast load budget. It abstracts
    away geometry — instances come either from a geometric {!Scenario} (via
    rate adaptation) or are written down directly (the paper's worked
    examples and NP-hardness constructions specify link rates explicitly).

    The link structure is one {!Sparse.t}: each user's candidate APs and
    each AP's member users in CSR form over a shared rate plane. Every
    rule in the paper reads only such neighbourhoods, so this is the
    paper's data model at any scale; hand-written (AP × user) matrices
    are lowered to it by {!make}.

    Conventions:
    - APs and users are dense integer indices.
    - A link rate is the maximum data rate in Mbps from AP to user; an
      absent or lost slot means out of range (read as [0.]).
    - Signal ranks strength for the SSA baseline (higher is stronger); by
      default it equals the link rate, and geometric scenarios install
      [-. distance] so that "strongest signal" = "nearest AP". *)

type t = {
  n_aps : int;
  n_users : int;
  session_rates : float array;  (** session index -> stream rate (Mbps) *)
  user_session : int array;  (** user index -> session index *)
  links : Sparse.t;  (** the link structure *)
  budget : float;  (** default per-AP multicast load limit, in [0, 1] *)
  ap_budgets : float array option;
      (** optional heterogeneous per-AP budgets overriding [budget] *)
  allow_uncovered : bool;
      (** when false (the default for hand-written instances), {!validate}
          rejects users with an empty candidate list; geometric paths set
          it, since random placement legitimately strands users *)
}

let dims t = (t.n_aps, t.n_users)
let n_sessions t = Array.length t.session_rates
let session_rate t s = t.session_rates.(s)
let user_session t u = t.user_session.(u)
let link_rate t ~ap ~user = Sparse.link_rate t.links ~ap ~user
let signal t ~ap ~user = Sparse.signal t.links ~ap ~user
let in_range t ~ap ~user = link_rate t ~ap ~user > 0.
let budget t = t.budget

(** The multicast budget of one AP: its entry in [ap_budgets] when
    heterogeneous budgets are installed, the uniform [budget] otherwise. *)
let ap_budget t a =
  match t.ap_budgets with Some b -> b.(a) | None -> t.budget

(** [iter_candidates t u f] calls [f ap rate signal] for every AP in
    range of user [u], in ascending AP order. *)
let iter_candidates t u f = Sparse.iter_candidates t.links u f

(** [iter_members t a f] calls [f user rate] for every user in range of
    AP [a], in ascending user order. *)
let iter_members t a f = Sparse.iter_members t.links a f

(** A fresh dense rate matrix equal to the instance's link structure
    (safe to mutate, never aliases the instance). Allocates
    O(APs × users): test/debug helper, not for city scale. *)
let rates_matrix t =
  let m = Array.make_matrix t.n_aps t.n_users 0. in
  for u = 0 to t.n_users - 1 do
    iter_candidates t u (fun a r _ -> m.(a).(u) <- r)
  done;
  m

(** Structural validation; raises [Invalid_argument] on malformed instances.

    Beyond arity/finiteness, rejects any user whose candidate list is
    empty (no AP in range) unless the instance was built with
    [~allow_uncovered:true] — an uncovered user can never be associated,
    so a hand-written instance containing one is almost always a bug. *)
let validate t =
  let fail fmt = Fmt.kstr invalid_arg ("Problem.validate: " ^^ fmt) in
  if t.n_aps < 0 || t.n_users < 0 then fail "negative dimensions";
  if Array.length t.user_session <> t.n_users then
    fail "user_session length %d <> n_users %d"
      (Array.length t.user_session) t.n_users;
  Array.iter
    (fun s ->
      if s < 0 || s >= Array.length t.session_rates then
        fail "user references unknown session %d" s)
    t.user_session;
  (* [r <= 0.] and [r < 0.] are false for nan, so the finiteness check
     must be explicit — a nan or infinite rate would reach the load
     division in {!Loads.tx_rates} and poison every comparison *)
  Array.iter
    (fun r ->
      if not (Float.is_finite r) || r <= 0. then
        fail "session rate %g (must be finite and positive)" r)
    t.session_rates;
  ignore (Sparse.validate t.links);
  if Sparse.n_aps t.links <> t.n_aps then
    fail "link structure has %d APs, instance %d" (Sparse.n_aps t.links)
      t.n_aps;
  if Sparse.n_users t.links <> t.n_users then
    fail "link structure has %d users, instance %d" (Sparse.n_users t.links)
      t.n_users;
  if not t.allow_uncovered then
    for u = 0 to t.n_users - 1 do
      let covered = ref false in
      iter_candidates t u (fun _ _ _ -> covered := true);
      if not !covered then
        fail
          "user %d has an empty candidate list (no AP in range; pass \
           ~allow_uncovered:true if intentional)"
          u
    done;
  if Float.is_nan t.budget || t.budget < 0. then
    fail "negative budget %g" t.budget;
  (match t.ap_budgets with
  | None -> ()
  | Some b ->
      if Array.length b <> t.n_aps then
        fail "ap_budgets length %d <> n_aps %d" (Array.length b) t.n_aps;
      Array.iter
        (fun x ->
          if Float.is_nan x || x < 0. then fail "negative AP budget %g" x)
        b);
  t

(** Build and validate an instance around an existing link structure
    (see {!Sparse.of_geometry} and {!Scenario.to_problem}). *)
let make_sparse ?ap_budgets ?(allow_uncovered = false) ~session_rates
    ~user_session ~sparse ~budget () =
  validate
    {
      n_aps = Sparse.n_aps sparse;
      n_users = Array.length user_session;
      session_rates;
      user_session;
      links = sparse;
      budget;
      ap_budgets;
      allow_uncovered;
    }

(** [make ~session_rates ~user_session ~rates ~budget ()] builds and
    validates an instance written down as an (AP × user) rate matrix,
    [0.] meaning out of range. [signal] defaults to the rate matrix
    (highest rate = strongest signal). The matrices are checked, then
    lowered to one {!Sparse} slot per positive-rate pair. *)
let make ?signal ?ap_budgets ?allow_uncovered ~session_rates ~user_session
    ~rates ~budget () =
  let fail fmt = Fmt.kstr invalid_arg ("Problem.make: " ^^ fmt) in
  let n_users = Array.length user_session in
  let check_rows what m =
    Array.iter
      (fun row ->
        if Array.length row <> n_users then fail "%s row has wrong length" what)
      m
  in
  check_rows "rates" rates;
  Array.iter
    (Array.iter (fun r ->
         if not (Float.is_finite r) || r < 0. then
           fail "link rate %g (must be finite and non-negative)" r))
    rates;
  let signal =
    match signal with
    | None -> rates
    | Some s ->
        if Array.length s <> Array.length rates then
          fail "signal has wrong AP dimension";
        check_rows "signal" s;
        s
  in
  make_sparse ?ap_budgets ?allow_uncovered ~session_rates ~user_session
    ~sparse:(Sparse.of_dense ~n_users ~rates ~signal)
    ~budget ()

(** A copy whose link rates may be mutated through {!set_link_rate}
    without affecting the original (signal and structure are shared). *)
let copy_for_mutation t = { t with links = Sparse.copy_values t.links }

(** In-place link rate update, the churn primitive. The pair must have
    been in range at build time: setting an absent link to [0.] is a
    no-op, raising it from nothing is [Invalid_argument] (see
    {!Sparse.set_rate}). Only call on a {!copy_for_mutation} copy. *)
let set_link_rate t ~ap ~user r = Sparse.set_rate t.links ~ap ~user r

(** A copy with dead APs' and absent users' links zeroed — the effective
    instance mid-churn. Not validated (masking legitimately strands
    users). *)
let masked t ~ap_alive ~user_present =
  {
    t with
    links = Sparse.masked t.links ~ap_alive ~user_present;
    allow_uncovered = true;
  }

(** APs within range of user [u], ascending index order. *)
let neighbor_aps t u = Sparse.candidate_aps t.links u

(** APs within range of user [u], strongest signal first (ties by lower AP
    index, making the SSA baseline deterministic). *)
let neighbors_by_signal t u =
  neighbor_aps t u
  |> List.stable_sort (fun a b ->
         Float.compare (signal t ~ap:b ~user:u) (signal t ~ap:a ~user:u))

(** The strongest-signal AP of user [u], or [None] if no AP covers [u]. *)
let strongest_ap t u =
  match neighbors_by_signal t u with [] -> None | a :: _ -> Some a

(** Users covered by at least one AP. *)
let coverable_users t =
  let acc = ref [] in
  for u = t.n_users - 1 downto 0 do
    if neighbor_aps t u <> [] then acc := u :: !acc
  done;
  !acc

(** Users of session [s] reachable from AP [a] at link rate at least [r],
    ascending. [min_rate] must be positive (rates are; out-of-range pairs
    never qualify). *)
let receivers t ~ap ~session ~min_rate =
  let acc = ref [] in
  iter_members t ap (fun u r ->
      if t.user_session.(u) = session && r >= min_rate then acc := u :: !acc);
  List.rev !acc

(** The distinct link rates that occur in the instance, highest first. These
    are the only transmission rates an algorithm ever needs to consider. *)
let distinct_rates t =
  let module FS = Set.Make (Float) in
  let s = ref FS.empty in
  for a = 0 to t.n_aps - 1 do
    iter_members t a (fun _ r -> s := FS.add r !s)
  done;
  FS.elements !s |> List.rev

(** Replace every positive link rate by the lowest one — stock 802.11
    broadcast behaviour where multicast always uses the basic rate. *)
let restrict_to_basic_rate t =
  match distinct_rates t with
  | [] -> t
  | rs ->
      let basic = List.fold_left Float.min infinity rs in
      { t with links = Sparse.map_rates t.links (fun _ -> basic) }

(** Uniform budget override; clears any heterogeneous budgets. *)
let with_budget t budget = validate { t with budget; ap_budgets = None }

(** Install heterogeneous per-AP budgets. *)
let with_ap_budgets t ap_budgets =
  validate { t with ap_budgets = Some ap_budgets }

let pp ppf t =
  Fmt.pf ppf "@[<v>problem: %d APs, %d users, %d sessions, budget %g@]"
    t.n_aps t.n_users (n_sessions t) t.budget
