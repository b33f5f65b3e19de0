(** Range-limited sparse link structure (DESIGN.md §4.10) — the one
    link representation of {!Problem}.

    The paper's association-control algorithms only ever consult a user's
    {e neighborhood} — the APs whose radio range covers it. A full
    (AP × user) matrix would put an O(APs · users) floor under memory and
    every candidate scan. Because the 802.11 rate tables give links a hard
    reach (~200 m for 802.11a), the in-range pairs are geometrically
    sparse: a city-scale deployment has a few candidate APs per user
    regardless of how many thousand APs exist.

    This module is the CSR-style sparse form of the link structure: each
    user's {e candidate list} (the APs in range, ascending AP index, with
    the link rate and signal metric) and, mirrored over the same slots,
    each AP's {e member list} (the users in range, ascending user index).
    Both views share one value array, so a rate mutation (churn drift) is
    seen consistently from either side.

    The slot structure is {b immutable} once built: churn may change a
    slot's rate — including to [0.], "link lost", which every reader skips
    — but can never add a link that was out of range at build time. That
    is exactly the contract of the rate-drift churn tier ladder, and it is
    what keeps the representation allocation-free under replay.

    {!Grid} is the spatial bucket grid {!of_geometry} uses to compile
    positions into the planes in O(APs log APs + users · block) without
    ever forming the dense matrix: APs are sorted by square cells whose
    side is the radio range, so every AP within range of a point lies in
    the 3×3 cell block around it — including APs sitting exactly at the
    reach boundary or on a cell edge. *)

(* Deterministic event counters (DESIGN.md §4.9): builds and probes are
   driven by index-ordered scans, so these totals are pure functions of
   the inputs. *)
let c_builds = Wlan_obs.Counters.make "sparse.builds"
let c_candidate_list_len = Wlan_obs.Counters.make "sparse.candidate_list_len"
let c_grid_cells_probed = Wlan_obs.Counters.make "sparse.grid_cells_probed"

type t = {
  n_aps : int;
  n_users : int;
  user_off : int array;  (** per-user slot range: slots of user [u] are
                             [user_off.(u) .. user_off.(u+1) - 1] *)
  cand_ap : int array;  (** slot -> AP index, ascending within a user *)
  cand_rate : float array;
      (** slot -> link rate; [0.] = link lost (skipped by every reader).
          Mutable with [ap_lost]: {!set_rate} writes both, {!copy_values}
          unshares both. *)
  cand_signal : float array;  (** slot -> signal metric (higher = stronger) *)
  ap_off : int array;  (** per-AP member range over [memb_*] *)
  memb_user : int array;  (** member slot -> user index, ascending per AP *)
  memb_slot : int array;
      (** member slot -> candidate slot of the same link, so both views
          read the one [cand_rate] plane *)
  ap_lost : int array;
      (** per AP, how many of its slots are lost: an AP with none has
          every member in range, and {!iter_member_users} walks it
          without reading the rates *)
}

(* [t] with [ap_lost] counted off its rate plane. *)
let count_lost t =
  let lost = Array.make t.n_aps 0 in
  Array.iteri
    (fun i r ->
      let a = t.cand_ap.(i) in
      if not (r > 0.) then lost.(a) <- lost.(a) + 1)
    t.cand_rate;
  { t with ap_lost = lost }

let n_aps t = t.n_aps
let n_users t = t.n_users
let n_links t = Array.length t.cand_ap
let has_lost t = Array.exists (fun k -> k > 0) t.ap_lost

(** Structural validation; raises [Invalid_argument] on malformed input. *)
let validate t =
  let fail fmt = Fmt.kstr invalid_arg ("Sparse.validate: " ^^ fmt) in
  if t.n_aps < 0 || t.n_users < 0 then fail "negative dimensions";
  if Array.length t.user_off <> t.n_users + 1 then fail "user_off arity";
  if Array.length t.ap_off <> t.n_aps + 1 then fail "ap_off arity";
  let n = Array.length t.cand_ap in
  if Array.length t.cand_rate <> n || Array.length t.cand_signal <> n then
    fail "candidate plane arity mismatch";
  if Array.length t.memb_user <> n || Array.length t.memb_slot <> n then
    fail "member plane arity mismatch";
  if t.user_off.(0) <> 0 || t.user_off.(t.n_users) <> n then
    fail "user_off does not span the slots";
  if t.ap_off.(0) <> 0 || t.ap_off.(t.n_aps) <> n then
    fail "ap_off does not span the slots";
  for u = 0 to t.n_users - 1 do
    if t.user_off.(u) > t.user_off.(u + 1) then fail "user_off not monotone";
    for i = t.user_off.(u) to t.user_off.(u + 1) - 1 do
      let a = t.cand_ap.(i) in
      if a < 0 || a >= t.n_aps then fail "slot references unknown AP %d" a;
      if i > t.user_off.(u) && t.cand_ap.(i - 1) >= a then
        fail "candidate list of user %d not strictly ascending" u;
      let r = t.cand_rate.(i) in
      if not (Float.is_finite r) || r < 0. then
        fail "link rate %g (must be finite and non-negative)" r
    done
  done;
  for a = 0 to t.n_aps - 1 do
    if t.ap_off.(a) > t.ap_off.(a + 1) then fail "ap_off not monotone";
    for i = t.ap_off.(a) to t.ap_off.(a + 1) - 1 do
      let u = t.memb_user.(i) in
      if u < 0 || u >= t.n_users then fail "member references unknown user %d" u;
      if i > t.ap_off.(a) && t.memb_user.(i - 1) >= u then
        fail "member list of AP %d not strictly ascending" a;
      let s = t.memb_slot.(i) in
      if s < 0 || s >= n then fail "member slot out of range";
      if t.cand_ap.(s) <> a then fail "member slot mirrors a different AP"
    done
  done;
  t

(* The one CSR assembly every builder shares: given the candidate plane
   (per-user slot ranges over ascending APs), mirror it into the member
   plane, count the build, and validate. *)
let assemble ~n_aps ~user_off ~cand_ap ~cand_rate ~cand_signal =
  Wlan_obs.Counters.incr c_builds;
  let n_users = Array.length user_off - 1 in
  let n = Array.length cand_ap in
  Wlan_obs.Counters.add c_candidate_list_len n;
  let ap_off = Array.make (n_aps + 1) 0 in
  if Array.exists (fun a -> a < 0 || a >= n_aps) cand_ap then
    invalid_arg "Sparse.assemble: slot references an unknown AP";
  Array.iter (fun a -> ap_off.(a + 1) <- ap_off.(a + 1) + 1) cand_ap;
  for a = 0 to n_aps - 1 do
    ap_off.(a + 1) <- ap_off.(a) + ap_off.(a + 1)
  done;
  (* member plane: one pass over users in ascending order fills every
     AP's member list in ascending user order *)
  let fill = Array.sub ap_off 0 (Int.max n_aps 1) in
  let memb_user = Array.make n 0 in
  let memb_slot = Array.make n 0 in
  for u = 0 to n_users - 1 do
    for i = user_off.(u) to user_off.(u + 1) - 1 do
      let a = cand_ap.(i) in
      memb_user.(fill.(a)) <- u;
      memb_slot.(fill.(a)) <- i;
      fill.(a) <- fill.(a) + 1
    done
  done;
  validate
    (count_lost
       {
         n_aps;
         n_users;
         user_off;
         cand_ap;
         cand_rate;
         cand_signal;
         ap_off;
         memb_user;
         memb_slot;
         ap_lost = [||];
       })

(** [restrict t ~aps ~users] slices the in-range links of [users] out of
    [t]'s planes, reindexing [aps] and [users] densely in the given
    order; lost slots are dropped. *)
let restrict t ~aps ~users =
  let ap_local = Array.make t.n_aps (-1) in
  Array.iteri (fun la a -> ap_local.(a) <- la) aps;
  let n_users = Array.length users in
  let user_off = Array.make (n_users + 1) 0 in
  Array.iteri
    (fun lu u ->
      let d = ref 0 in
      for i = t.user_off.(u) to t.user_off.(u + 1) - 1 do
        if t.cand_rate.(i) > 0. then incr d
      done;
      user_off.(lu + 1) <- user_off.(lu) + !d)
    users;
  let n = user_off.(n_users) in
  let cand_ap = Array.make n 0 in
  let cand_rate = Array.make n 0. in
  let cand_signal = Array.make n 0. in
  Array.iteri
    (fun lu u ->
      let k = ref user_off.(lu) in
      for i = t.user_off.(u) to t.user_off.(u + 1) - 1 do
        let r = t.cand_rate.(i) in
        if r > 0. then begin
          let la = ap_local.(t.cand_ap.(i)) in
          if la < 0 then
            Fmt.kstr invalid_arg
              "Sparse.restrict: user %d hears AP %d outside the restriction"
              u t.cand_ap.(i);
          cand_ap.(!k) <- la;
          cand_rate.(!k) <- r;
          cand_signal.(!k) <- t.cand_signal.(i);
          incr k
        end
      done)
    users;
  assemble ~n_aps:(Array.length aps) ~user_off ~cand_ap ~cand_rate
    ~cand_signal

(** Candidate slot of the [(ap, user)] link, [-1] if the pair was never
    in range. Binary search over the user's ascending candidate list;
    allocates nothing. *)
let find_slot t ~ap ~user =
  let lo = ref t.user_off.(user) and hi = ref (t.user_off.(user + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let a = t.cand_ap.(mid) in
    if a = ap then found := mid
    else if a < ap then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(** Link rate of [(ap, user)]: the slot's value, [0.] when the pair was
    never in range. *)
let link_rate t ~ap ~user =
  let i = find_slot t ~ap ~user in
  if i < 0 then 0. else t.cand_rate.(i)

(** Signal metric of [(ap, user)]; [neg_infinity] when the pair was never
    in range (an out-of-range AP can never win a signal tie-break). *)
let signal t ~ap ~user =
  let i = find_slot t ~ap ~user in
  if i < 0 then neg_infinity else t.cand_signal.(i)

(** [iter_candidates t u f] calls [f ap rate signal] for every in-range
    candidate of user [u] (rate [> 0.]), ascending AP index. *)
let iter_candidates t u f =
  for i = t.user_off.(u) to t.user_off.(u + 1) - 1 do
    let r = t.cand_rate.(i) in
    if r > 0. then f t.cand_ap.(i) r t.cand_signal.(i)
  done

(** [iter_members t a f] calls [f user rate] for every in-range member of
    AP [a] (rate [> 0.]), ascending user index. *)
let iter_members t a f =
  for i = t.ap_off.(a) to t.ap_off.(a + 1) - 1 do
    let r = t.cand_rate.(t.memb_slot.(i)) in
    if r > 0. then f t.memb_user.(i) r
  done

(** [iter_member_users t a f] calls [f user] for every in-range member
    of AP [a], ascending — {!iter_members} without the rate, so no float
    is boxed per call. An AP with no lost slot skips the rate reads. *)
let iter_member_users t a f =
  let in_range = t.ap_lost.(a) = 0 in
  for i = t.ap_off.(a) to t.ap_off.(a + 1) - 1 do
    if in_range || t.cand_rate.(t.memb_slot.(i)) > 0. then f t.memb_user.(i)
  done

(** [fill_members t a ~users ~rates]: AP [a]'s in-range members into the
    planes, ascending user order; how many. Allocates nothing. *)
let fill_members t a ~users ~rates =
  let d = ref 0 in
  for i = t.ap_off.(a) to t.ap_off.(a + 1) - 1 do
    let r = t.cand_rate.(t.memb_slot.(i)) in
    if r > 0. then begin
      users.(!d) <- t.memb_user.(i);
      rates.(!d) <- r;
      incr d
    end
  done;
  !d

(** Number of member slots of an AP, in-range or lost. *)
let member_degree t a = t.ap_off.(a + 1) - t.ap_off.(a)

(** [fill_candidates t u ~ap_alive ~aps ~rates ~sigs] writes user [u]'s
    in-range candidates whose AP is alive into [aps]/[rates]/[sigs],
    ascending AP order, and returns how many (at most [degree t u]).
    Allocates nothing. *)
let fill_candidates t u ~ap_alive ~aps ~rates ~sigs =
  let d = ref 0 in
  for i = t.user_off.(u) to t.user_off.(u + 1) - 1 do
    let a = t.cand_ap.(i) and r = t.cand_rate.(i) in
    if r > 0. && ap_alive.(a) then begin
      aps.(!d) <- a;
      rates.(!d) <- r;
      sigs.(!d) <- t.cand_signal.(i);
      incr d
    end
  done;
  !d

(** User [u]'s strongest in-range AP, [-1] if none: one pass over its
    slots keeping the first whose signal is strictly greater under
    [Float.compare] — the head of a stable strongest-first sort, ties to
    the lower AP index. *)
let strongest_ap t u =
  let best = ref (-1) in
  for i = t.user_off.(u) to t.user_off.(u + 1) - 1 do
    if
      t.cand_rate.(i) > 0.
      && (!best < 0
         || Float.compare t.cand_signal.(i) t.cand_signal.(!best) > 0)
    then best := i
  done;
  if !best < 0 then -1 else t.cand_ap.(!best)

(** In-range candidate APs of a user, ascending. *)
let candidate_aps t u =
  let acc = ref [] in
  for i = t.user_off.(u + 1) - 1 downto t.user_off.(u) do
    if t.cand_rate.(i) > 0. then acc := t.cand_ap.(i) :: !acc
  done;
  !acc

(** Number of slots of a user, in-range or lost. *)
let degree t u = t.user_off.(u + 1) - t.user_off.(u)

(** [set_rate t ~ap ~user r] overwrites the slot's rate. [0.] marks the
    link lost; any positive value re-arms it. The slot must exist:
    @raise Invalid_argument when [(ap, user)] was never in range and
    [r > 0.] — the sparse structure cannot grow a link (build the
    instance from geometry that covers it instead). Setting an absent
    link to [0.] is a no-op. *)
let set_rate t ~ap ~user r =
  let i = find_slot t ~ap ~user in
  if i >= 0 then begin
    if t.cand_rate.(i) > 0. <> (r > 0.) then
      t.ap_lost.(ap) <- (t.ap_lost.(ap) + if r > 0. then -1 else 1);
    t.cand_rate.(i) <- r
  end
  else if r > 0. then
    Fmt.kstr invalid_arg
      "Sparse.set_rate: link a%d-u%d was never in range (the sparse \
       structure cannot add links)"
      ap user

(** A copy whose rate plane is private; every other (immutable) plane is
    shared. This is what a churn layer must take before mutating. *)
let copy_values t =
  { t with cand_rate = Array.copy t.cand_rate; ap_lost = Array.copy t.ap_lost }

(** [masked t ~ap_alive ~user_present] is a copy with the rates of dead
    APs' and absent users' slots forced to [0.] — the sparse counterpart
    of zeroing matrix rows and columns. *)
let masked t ~ap_alive ~user_present =
  let c = copy_values t in
  for u = 0 to t.n_users - 1 do
    if not user_present.(u) then
      for i = t.user_off.(u) to t.user_off.(u + 1) - 1 do
        c.cand_rate.(i) <- 0.
      done
  done;
  for a = 0 to t.n_aps - 1 do
    if not ap_alive.(a) then
      for i = t.ap_off.(a) to t.ap_off.(a + 1) - 1 do
        c.cand_rate.(t.memb_slot.(i)) <- 0.
      done
  done;
  count_lost c

(** A copy with every in-range rate mapped through [f] (lost links stay
    lost). *)
let map_rates t f =
  let c = copy_values t in
  Array.iteri
    (fun i r -> if r > 0. then c.cand_rate.(i) <- f r)
    t.cand_rate;
  count_lost c

(** Build from dense matrices: one slot per positive-rate pair. [n_users]
    is explicit because a matrix with no AP rows has no row to read it
    from. *)
let of_dense ~n_users ~rates ~signal =
  let n_aps = Array.length rates in
  let user_off = Array.make (n_users + 1) 0 in
  for u = 0 to n_users - 1 do
    user_off.(u + 1) <-
      Array.fold_left
        (fun k r -> if r.(u) > 0. then k + 1 else k)
        user_off.(u) rates
  done;
  let n = user_off.(n_users) in
  let cand_ap = Array.make n 0 in
  let cand_rate = Array.make n 0. in
  let cand_signal = Array.make n 0. in
  for u = 0 to n_users - 1 do
    let k = ref user_off.(u) in
    for a = 0 to n_aps - 1 do
      if rates.(a).(u) > 0. then begin
        cand_ap.(!k) <- a;
        cand_rate.(!k) <- rates.(a).(u);
        cand_signal.(!k) <- signal.(a).(u);
        incr k
      end
    done
  done;
  assemble ~n_aps ~user_off ~cand_ap ~cand_rate ~cand_signal

let pp ppf t =
  Fmt.pf ppf "@[<v>sparse: %d APs, %d users, %d links (%.2f cand/user)@]"
    t.n_aps t.n_users (n_links t)
    (if t.n_users = 0 then 0.
     else float_of_int (n_links t) /. float_of_int t.n_users)

(** {1 Spatial bucket grid} *)

module Grid = struct
  (* Flat arrays of point indices sorted by (cell row, cell column,
     index); entry [i] is point [idx.(i)] in cell [(row.(i), col.(i))]. *)
  type grid = { cell : float; row : int array; col : int array; idx : int array }

  let key cell v = int_of_float (Float.floor (v /. cell))

  let build ~cell pts =
    if not (cell > 0.) then invalid_arg "Sparse.Grid.build: cell must be > 0";
    let row = Array.map (fun (p : Point.t) -> key cell p.y) pts in
    let col = Array.map (fun (p : Point.t) -> key cell p.x) pts in
    let idx = Array.init (Array.length pts) Fun.id in
    Array.sort
      (fun i j ->
        if row.(i) <> row.(j) then Int.compare row.(i) row.(j)
        else if col.(i) <> col.(j) then Int.compare col.(i) col.(j)
        else Int.compare i j)
      idx;
    {
      cell;
      row = Array.map (fun i -> row.(i)) idx;
      col = Array.map (fun i -> col.(i)) idx;
      idx;
    }

  (* First entry of cell [(r, c)], or where it would be. *)
  let lower g r c =
    let lo = ref 0 and hi = ref (Array.length g.idx) in
    while !lo < !hi do
      let m = (!lo + !hi) / 2 in
      if g.row.(m) < r || (g.row.(m) = r && g.col.(m) < c) then lo := m + 1
      else hi := m
    done;
    !lo

  (* Fills [span] (18 ints) with the [lo, hi) entry ranges of the
     non-empty cells of the 3×3 block around [p], cell by cell, and
     returns how many. Each of the nine cells is looked up on its own:
     keys wrap at |x| >= 2^62 · cell, so the three cells of a block row
     need not be adjacent in the sort order. *)
  let block g (p : Point.t) span =
    let r0 = key g.cell p.y and c0 = key g.cell p.x in
    let n = Array.length g.idx and k = ref 0 in
    for dr = -1 to 1 do
      for dc = -1 to 1 do
        let r = r0 + dr and c = c0 + dc in
        let lo = lower g r c in
        let hi = ref lo in
        while !hi < n && g.row.(!hi) = r && g.col.(!hi) = c do
          incr hi
        done;
        if !hi > lo then begin
          span.(2 * !k) <- lo;
          span.((2 * !k) + 1) <- !hi;
          incr k
        end
      done
    done;
    !k

  let iter_block g p f =
    let span = Array.make 18 0 in
    let cells = block g p span in
    Wlan_obs.Counters.add c_grid_cells_probed cells;
    for c = 0 to cells - 1 do
      for i = span.(2 * c) to span.((2 * c) + 1) - 1 do
        f g.idx.(i)
      done
    done
end

(* [Point.dist] written out (same operations, same order, same bits) so
   the block scans box no float per pair: the dev profile's [-opaque]
   rules out cross-module inlining (DESIGN.md §4.12, -opaque note). *)
let[@inline] dist (a : Point.t) (b : Point.t) =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

(** [of_geometry ~cell ~ap_pos ~user_pos ~link] compiles positions
    straight into the planes. Pass 1 counts each user's block APs within
    reach, which sizes the planes; pass 2 inserts every link [link]
    accepts into its user's slots in ascending AP order. The planes
    shrink only when [link] rejected an in-reach pair. *)
let of_geometry ~cell ~ap_pos ~user_pos ~link =
  let g = Grid.build ~cell ap_pos and span = Array.make 18 0 in
  let n_users = Array.length user_pos in
  let user_off = Array.make (n_users + 1) 0 in
  for u = 0 to n_users - 1 do
    let p = user_pos.(u) and d = ref 0 in
    let cells = Grid.block g p span in
    Wlan_obs.Counters.add c_grid_cells_probed cells;
    for c = 0 to cells - 1 do
      for i = span.(2 * c) to span.((2 * c) + 1) - 1 do
        if dist ap_pos.(g.idx.(i)) p <= cell then incr d
      done
    done;
    user_off.(u + 1) <- user_off.(u) + !d
  done;
  let n = user_off.(n_users) in
  let cand_ap = Array.make n 0 in
  let cand_rate = Array.make n 0. in
  let cand_signal = Array.make n 0. in
  let k = ref 0 in
  for u = 0 to n_users - 1 do
    let p = user_pos.(u) and start = !k in
    user_off.(u) <- start;
    for c = 0 to Grid.block g p span - 1 do
      for i = span.(2 * c) to span.((2 * c) + 1) - 1 do
        let a = g.idx.(i) in
        let dist = dist ap_pos.(a) p in
        if dist <= cell then
          match link ~ap:a ~user:u ~dist with
          | None -> ()
          | Some (r, s) ->
              let j = ref !k in
              while !j > start && cand_ap.(!j - 1) > a do
                cand_ap.(!j) <- cand_ap.(!j - 1);
                cand_rate.(!j) <- cand_rate.(!j - 1);
                cand_signal.(!j) <- cand_signal.(!j - 1);
                decr j
              done;
              cand_ap.(!j) <- a;
              cand_rate.(!j) <- r;
              cand_signal.(!j) <- s;
              incr k
      done
    done
  done;
  user_off.(n_users) <- !k;
  let fit a = if !k = n then a else Array.sub a 0 !k in
  assemble ~n_aps:(Array.length ap_pos) ~user_off ~cand_ap:(fit cand_ap)
    ~cand_rate:(fit cand_rate) ~cand_signal:(fit cand_signal)
