(** Multicast load accounting (Definition 1 of the paper).

    An AP that serves a set of users for session [s] transmits [s] at the
    lowest maximum link rate among those users, so that every receiver can
    decode. The airtime fraction this costs is
    [session_rate s /. tx_rate], the AP's {e multicast load} for [s]; an
    AP's load is the sum over the sessions it serves, and the network's
    total load is the sum over APs. *)

(* Definition 1 on one AP's per-session transmission-rate row [tx], with
   entry [s] read as [hyp] ([s = -1] replaces nothing): [srates.(s') /.
   r'] over the served sessions ([r' > 0.]), summed in session order
   from [0.]. Every AP load in this module is this one sum. A plain
   loop, inlined so its result is never boxed (the flat decision kernel
   issues millions of hypotheticals per run). *)
let[@inline] row_sum (srates : float array) (tx : float array) s hyp =
  let load = ref 0. in
  for s' = 0 to Array.length tx - 1 do
    let r' = if s' = s then hyp else tx.(s') in
    if r' > 0. then load := !load +. (srates.(s') /. r')
  done;
  !load

(* The transmission rate of a session sent at [cur] once a receiver at
   link rate [r] joins: the lower of the two, [r] when unserved. *)
let[@inline] joined_tx cur r =
  (* 0. is the exact "no member yet" sentinel *)
  if (cur = 0.) [@lint.allow float_eq] || r < cur then r else cur

(** [tx_rates p assoc] gives, for each AP, the transmission rate it must use
    for each session: [tx.(a).(s)] is the minimum link rate among users of
    session [s] associated with [a], or [0.] when [a] does not serve [s]. *)
let tx_rates p (assoc : Association.t) =
  let n_aps, n_users = Problem.dims p in
  let tx = Array.make_matrix n_aps (Problem.n_sessions p) 0. in
  for u = 0 to n_users - 1 do
    let a = assoc.(u) in
    if a <> Association.none then begin
      let s = Problem.user_session p u in
      tx.(a).(s) <- joined_tx tx.(a).(s) (Problem.link_rate p ~ap:a ~user:u)
    end
  done;
  tx

(** [join_load srates tx ~s ~rate] is the load of an AP with
    transmission-rate row [tx] once a receiver of session [s] at link
    rate [rate > 0.] joins it. *)
let[@inline] join_load srates tx ~s ~rate =
  row_sum srates tx s (joined_tx tx.(s) rate)

(** The network total of per-AP loads: summed in AP order from [0.]. *)
let network_total (loads : float array) =
  let acc = ref 0. in
  for a = 0 to Array.length loads - 1 do
    acc := !acc +. loads.(a)
  done;
  !acc

(** [ap_loads p assoc] is the multicast load of every AP. *)
let ap_loads p assoc =
  Array.map (fun tx -> row_sum p.Problem.session_rates tx (-1) 0.) (tx_rates p assoc)

(* Load of one AP by an eager scan of every user, for the hypothetical
   below. *)
let ap_load p assoc ~ap =
  let n_users = Problem.dims p |> snd in
  let n_s = Problem.n_sessions p in
  let tx = Array.make n_s 0. in
  for u = 0 to n_users - 1 do
    if assoc.(u) = ap then begin
      let s = Problem.user_session p u in
      tx.(s) <- joined_tx tx.(s) (Problem.link_rate p ~ap ~user:u)
    end
  done;
  row_sum p.Problem.session_rates tx (-1) 0.

(** Total multicast load of the network: the sum of all AP loads. *)
let total_load p assoc = network_total (ap_loads p assoc)

(** Maximum multicast load among all APs (the BLA objective). *)
let max_load p assoc =
  Array.fold_left Float.max 0. (ap_loads p assoc)

(* The eps of every decision-rule comparison below. *)
let decision_eps = 1e-9

(** Lexicographic comparison of the length-[len] prefixes of two
    non-increasing load vectors (footnote 5 of the paper), tolerant to
    summation-order noise: exactly equal entries are skipped, and the
    comparison is decided at the first entry where the vectors differ at
    all — equal if the difference is within [decision_eps], by sign
    otherwise. Stopping there keeps the induced strict order transitive
    ([a < b] means a common exact prefix followed by a gap greater than
    the eps); scanning on past sub-eps differences would make ≈ chains
    intransitive (a≈b, b≈c, a≉c) and let the distributed BLA rule judge
    a move an improvement in both directions.

    The flat decision kernel keeps its hypothetical load vectors in
    reused scratch buffers whose capacity exceeds the neighborhood size,
    so the logical length is carried separately, and the scan starts at
    [from]: the caller guarantees [from <= len] and that [a] and [b] are
    bit-identical below [from] — those entries compare exactly equal and
    would be skipped anyway. *)
let compare_load_prefixes_eps ~from ~len (a : float array) (b : float array) =
  (* a plain loop, not a local recursive closure: the decision kernel
     calls this once per candidate *)
  let i = ref from and c = ref 0 in
  while !i < len do
    let x = a.(!i) and y = b.(!i) in
    let ci = Float.compare x y in
    if ci = 0 then incr i
    else begin
      if not (Float.abs (x -. y) <= decision_eps) then c := ci;
      i := len
    end
  done;
  !c

(** {2 Gated total-load comparison}

    The total-load rule compares neighborhood sums [T_k]: the in-order
    fold of a plane [e.(0..d-1)] with entry [k] replaced by [x_k]. The
    gate decides a comparison from O(1) estimates [S - e.(k) + x_k] when
    their gap clears the [eps] boundary by more than the error margins,
    so the exact sums fall on the same side; otherwise the caller folds
    exactly. The error bound is derived in DESIGN.md §4.12. *)

let margin_floor = 1e-20

(** [replaced_sum e d k x] is the exact fold [0. +. e.(0) +. ... ] over
    [e.(0..d-1)] with entry [k] replaced by [x], in index order. *)
let replaced_sum (e : float array) d k x =
  let acc = ref 0. in
  for j = 0 to d - 1 do
    acc := !acc +. if j = k then x else e.(j)
  done;
  !acc

(** [replaced_sum_estimates e xs d ~est ~margin] writes, for every
    [k < d], the O(1) estimate of [replaced_sum e d k xs.(k)] into
    [est.(k)] and its error margin into [margin.(k)], in one pass. *)
let replaced_sum_estimates (e : float array) (xs : float array) d
    ~(est : float array) ~(margin : float array) =
  let s = ref 0. and sabs = ref 0. in
  for k = 0 to d - 1 do
    s := !s +. e.(k);
    sabs := !sabs +. Float.abs e.(k)
  done;
  let scale = float_of_int ((2 * d) + 2) *. epsilon_float in
  for k = 0 to d - 1 do
    let ek = e.(k) and xk = xs.(k) in
    est.(k) <- !s -. ek +. xk;
    margin.(k) <-
      (scale *. (!sabs +. Float.abs ek +. Float.abs xk)) +. margin_floor
  done

(** What {!gate_replaced_sums} returns when the estimates cannot decide. *)
let undecided = 2

(** [gate_replaced_sums ~est ~margin i j] is the [eps = 1e-9] comparison
    of the exact sums [i] and [j] — [-1], [0] or [1], as
    {!compare_load_prefixes_eps} on them — when their estimates decide
    it, {!undecided} otherwise (a nan or infinite estimate never
    decides). *)
let gate_replaced_sums ~(est : float array) ~(margin : float array) i j =
  let g = est.(i) -. est.(j) and m = margin.(i) +. margin.(j) in
  if g > decision_eps +. m then 1
  else if g < -.(decision_eps +. m) then -1
  else if Float.abs g < decision_eps -. m then 0
  else undecided

(** In-place non-increasing insertion sort of [a.(0..n-1)], applying the
    same permutation to [ord.(0..n-1)], remembering where each entry came
    from. Loads are never nan, so any correct descending sort yields the
    identical value sequence. *)
let sort_prefix_desc (a : float array) (ord : int array) n =
  for i = 1 to n - 1 do
    let x = a.(i) and o = ord.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) < x do
      a.(!j + 1) <- a.(!j);
      ord.(!j + 1) <- ord.(!j);
      decr j
    done;
    a.(!j + 1) <- x;
    ord.(!j + 1) <- o
  done

(** [replace_sorted_prefix base n i x dst] writes into [dst.(0..n-1)] the
    non-increasing [base.(0..n-1)] with entry [i] replaced by [x], kept
    sorted by one insertion pass: the entries between [i] and [x]'s
    place shift one step toward [i]. The result is the non-increasing
    order of the same multiset a full sort would see, so it is the same
    value sequence. Returns the first index at which [dst] may differ
    from [base] — everything below it is a bit-identical copy. *)
let replace_sorted_prefix (base : float array) n i x (dst : float array) =
  Array.blit base 0 dst 0 n;
  let j = ref i in
  if x > base.(i) then begin
    while !j > 0 && dst.(!j - 1) < x do
      dst.(!j) <- dst.(!j - 1);
      decr j
    done;
    dst.(!j) <- x;
    !j
  end
  else begin
    while !j < n - 1 && dst.(!j + 1) > x do
      dst.(!j) <- dst.(!j + 1);
      incr j
    done;
    dst.(!j) <- x;
    i
  end

(** [respects_budget p assoc] checks every AP's load against the per-AP
    multicast budget, with a small tolerance for float accumulation. *)
let respects_budget p assoc =
  let loads = ap_loads p assoc in
  let ok = ref true in
  Array.iteri
    (fun a l -> if l > Problem.ap_budget p a +. 1e-9 then ok := false)
    loads;
  !ok

(** Eager hypothetical: "what would AP [ap]'s load be if user [user]
    joined", without mutating the association. SSA reads it, and the
    tracker falls back on it for a zero-rate link. *)

let load_if_joins p assoc ~user ~ap =
  let old = assoc.(user) in
  assoc.(user) <- ap;
  let l = ap_load p assoc ~ap in
  assoc.(user) <- old;
  l

let pp_loads ppf loads =
  Fmt.pf ppf "@[<h>%a@]"
    Fmt.(array ~sep:sp (fun ppf l -> pf ppf "%.4f" l))
    loads

(** Incremental load tracking. A [Tracker.t] mirrors an association and
    keeps, per (AP, session), the multiset of member link rates, so a
    join/leave updates one AP in O(log members + n_sessions) instead of
    rescanning every user, and [ap_load]/[max_load] are O(1) reads.

    Bit-exactness contract: every value a tracker returns is the exact
    float the eager functions above would compute for the same
    association. Min and max of a multiset are order-insensitive, so
    cached [tx] rates and the max-load read are trivially exact; sums are
    order-{e dependent}, so a cached AP load is always {e recomputed} by
    the one row sum over the per-session tx row, and [total_load]
    re-folds the per-AP loads through {!network_total}. The only cost conceded to
    exactness is that joins pay O(n_sessions) for the row re-sum and
    [total_load] pays O(n_aps) when dirty — both far below the
    O(n_users) scans they replace.

    Zero-rate members are rejected ([Invalid_argument]): the eager scan's
    [tx = 0.] sentinel makes their effect scan-order-dependent, and no
    caller associates a user to an out-of-range AP. *)
module Tracker = struct
  let eager_load_if_joins = load_if_joins

  (* Deterministic event counters (DESIGN.md §4.9): tracker mutations are
     driven by index-ordered scans, so totals are scheduling-independent. *)
  let c_joins = Wlan_obs.Counters.make "tracker.joins"
  let c_leaves = Wlan_obs.Counters.make "tracker.leaves"
  let c_min_recomputes = Wlan_obs.Counters.make "tracker.min_recomputes"
  let c_hypotheticals = Wlan_obs.Counters.make "tracker.hypotheticals"

  module Fmap = Map.Make (Float)

  let ms_add x m =
    Fmap.update x (function None -> Some 1 | Some k -> Some (k + 1)) m

  let ms_remove x m =
    Fmap.update x (function
      | None -> invalid_arg "Loads.Tracker: multiset underflow"
      | Some 1 -> None
      | Some k -> Some (k - 1))
      m

  type t = {
    p : Problem.t;
    assoc : Association.t;  (** shared with the caller; mutate via {!move} *)
    members : int Fmap.t array array;
        (** [members.(a).(s)]: link-rate multiset of [a]'s session-[s] users *)
    tx : float array array;  (** cached min of [members.(a).(s)], or [0.] *)
    loads : float array;  (** cached per-AP loads, always exact *)
    srates : float array;  (** session rates, copied out of [p] once *)
    mutable load_ms : int Fmap.t;  (** multiset of [loads] values *)
    mutable total : float;
    mutable total_dirty : bool;
  }

  (* Re-derive AP [a]'s cached load from its tx row — the one row sum,
     hence bit-identical to an eager rescan. *)
  let refresh_ap_load t a =
    let fresh = row_sum t.srates t.tx.(a) (-1) 0. in
    t.load_ms <- ms_add fresh (ms_remove t.loads.(a) t.load_ms);
    t.loads.(a) <- fresh;
    t.total_dirty <- true

  let join_internal t ~user ~ap =
    Wlan_obs.Counters.incr c_joins;
    let r = Problem.link_rate t.p ~ap ~user in
    if not (r > 0.) then
      invalid_arg "Loads.Tracker: join with non-positive link rate";
    let s = Problem.user_session t.p user in
    t.members.(ap).(s) <- ms_add r t.members.(ap).(s);
    (* first-wins scan min over positive rates = multiset min *)
    t.tx.(ap).(s) <- joined_tx t.tx.(ap).(s) r;
    refresh_ap_load t ap

  let leave_internal t ~user ~ap =
    Wlan_obs.Counters.incr c_leaves;
    let r = Problem.link_rate t.p ~ap ~user in
    let s = Problem.user_session t.p user in
    let m = ms_remove r t.members.(ap).(s) in
    t.members.(ap).(s) <- m;
    Wlan_obs.Counters.incr c_min_recomputes;
    t.tx.(ap).(s) <-
      (match Fmap.min_binding_opt m with None -> 0. | Some (r', _) -> r');
    refresh_ap_load t ap

  let create p (assoc : Association.t) =
    let n_aps, n_users = Problem.dims p in
    let n_s = Problem.n_sessions p in
    let t =
      {
        p;
        assoc;
        members = Array.init n_aps (fun _ -> Array.make n_s Fmap.empty);
        tx = Array.make_matrix n_aps n_s 0.;
        loads = Array.make n_aps 0.;
        srates = p.Problem.session_rates;
        load_ms = (if n_aps = 0 then Fmap.empty else Fmap.singleton 0. n_aps);
        total = 0.;
        total_dirty = false;
      }
    in
    for u = 0 to n_users - 1 do
      if assoc.(u) <> Association.none then
        join_internal t ~user:u ~ap:assoc.(u)
    done;
    t

  let move t ~user ~ap =
    let old = t.assoc.(user) in
    if old <> ap then begin
      if old <> Association.none then leave_internal t ~user ~ap:old;
      t.assoc.(user) <- ap;
      if ap <> Association.none then join_internal t ~user ~ap
    end

  let unserve t ~user = move t ~user ~ap:Association.none
  let ap_load t a = t.loads.(a)
  let loads t = t.loads
  let tx_row t a = Array.copy t.tx.(a)

  let max_load t =
    match Fmap.max_binding_opt t.load_ms with
    | None -> 0.
    | Some (l, _) -> Float.max 0. l

  let total_load t =
    if t.total_dirty then begin
      t.total <- network_total t.loads;
      t.total_dirty <- false
    end;
    t.total

  let load_if_joins t ~user ~ap =
    Wlan_obs.Counters.incr c_hypotheticals;
    if t.assoc.(user) = ap then t.loads.(ap)
    else
      let r = Problem.link_rate t.p ~ap ~user in
      if not (r > 0.) then
        (* out-of-range hypothetical: the eager scan defines the result *)
        eager_load_if_joins t.p t.assoc ~user ~ap
      else
        let s = Problem.user_session t.p user in
        join_load t.srates t.tx.(ap) ~s ~rate:r

  (* Batched {!load_if_joins} over a neighborhood plane: one session
     lookup for the whole batch, answers written into [into.(0..d-1)].
     [rates.(k)] is the link rate of [nbr.(k)], as {!Problem.link_rate}
     returns it (callers fill both planes from the user's candidate
     slots, so no per-AP lookup happens here). Each answer is the
     identical float the per-query function computes. *)
  let load_if_joins_into t ~user ~rates ~nbr ~d ~into =
    Wlan_obs.Counters.add c_hypotheticals d;
    let s = Problem.user_session t.p user in
    let current = t.assoc.(user) in
    for k = 0 to d - 1 do
      let ap = nbr.(k) in
      into.(k) <-
        (if current = ap then t.loads.(ap)
         else
           let r = rates.(k) in
           if not (r > 0.) then eager_load_if_joins t.p t.assoc ~user ~ap
           else join_load t.srates t.tx.(ap) ~s ~rate:r)
    done

  (* The min of [members.(ap).(s)] without one [r] member, read off the
     map instead of building the smaller one: [r] is a member, so the
     cached min [cur <= r]; a larger [r] or a duplicate minimum leaves
     the min alone, otherwise it is the next larger rate. *)
  let load_if_leaves t ~user ~ap =
    Wlan_obs.Counters.incr c_hypotheticals;
    if t.assoc.(user) <> ap then t.loads.(ap)
    else
      (* a member's rate is positive: joins reject zero-rate links *)
      let r = Problem.link_rate t.p ~ap ~user in
      let s = Problem.user_session t.p user in
      let cur = t.tx.(ap).(s) in
      let m = t.members.(ap).(s) in
      let hyp =
        if r > cur || Fmap.find r m > 1 then cur
        else
          match Fmap.find_first_opt (fun x -> x > r) m with
          | None -> 0.
          | Some (r', _) -> r'
      in
      row_sum t.srates t.tx.(ap) s hyp
end
