(** Reductions from the association-control problems to covering problems
    (Theorems 1, 3 and 5 of the paper).

    For each AP [a], session [s] and candidate transmission rate [t], the
    users of [s] reachable from [a] at link rate at least [t] form a subset
    with cost [rate(s) / t] (the airtime [a] spends transmitting [s] at
    [t]). The ground set is the users (MNU: all coverable users; BLA/MLA:
    the users that must be served), the groups are the APs, and:

    - MNU ≡ Maximum Coverage with Group Budgets (budget = AP airtime limit),
    - BLA ≡ Set Cover with Group Budgets,
    - MLA ≡ weighted Set Cover (groups ignored).

    Only the link rates that actually occur among an AP's receivers of a
    session are generated as candidate transmission rates: any other rate is
    dominated (same subset, higher or equal cost). *)

open Wlan_model

(** What a covering set means in WLAN terms: AP [ap] transmits session
    [session] at rate [tx_rate]. *)
type tx = { ap : int; session : int; tx_rate : float }

(** [shard_cover] (see the interface) reads [p]'s member planes only.
    [filter_over_budget] (MNU) drops subsets costing more than the AP
    budget: they can never be in a feasible solution, and the MCG
    analysis assumes every set fits its group's budget. Allocation-free
    up to the instance (DESIGN.md §4.12): pass 1 counts the sets and
    members, pass 2 fills exact-size planes from the end. An AP's
    members, sorted by session, then by rate, form one segment per
    session of the member plane; its sets are the segments' suffixes. *)
let shard_cover ~filter_over_budget p ~aps ~local ~n_local =
  let n_sessions = Problem.n_sessions p and links = p.Problem.links in
  let rates = p.Problem.session_rates and sess = p.Problem.user_session in
  (* an AP's members: at most its member slots *)
  let n =
    1
    + Array.fold_left
        (fun acc a -> Int.max acc (Sparse.member_degree links a))
        0 aps
  in
  let users = Array.make n 0 and link_rate = Array.make n 0. in
  let su = Array.make n 0 and sr = Array.make n 0. in
  let dr = Array.make n 0. and at = Array.make n 0 in
  let ids = Array.make n 0 and rk = Array.make n 0 in
  let count = Array.make (n_sessions + 1) 0 in
  let universe = Optkit.Bitset.create n_local in
  (* group [g]'s members (global users) into [users]/[link_rate], sorted
     by session; how many. The budget filter drops members whose own
     rate costs too much: costs only fall as rates rise, so no kept set
     holds them. Every member is in the universe. *)
  let lay_out g =
    let a = aps.(g) in
    let k = ref 0 and budget = Problem.ap_budget p a +. 1e-12 in
    Array.fill count 0 (n_sessions + 1) 0;
    (* compacted in place: the kept member [k] was read at [i >= k] *)
    for i = 0 to Sparse.fill_members links a ~users:su ~rates:sr - 1 do
      let u = su.(i) and r = sr.(i) in
      if local.(u) >= 0 then begin
        Optkit.Bitset.add universe local.(u);
        let s = sess.(u) in
        if (not filter_over_budget) || rates.(s) /. r <= budget then begin
          su.(!k) <- u;
          sr.(!k) <- r;
          incr k;
          count.(s + 1) <- count.(s + 1) + 1
        end
      end
    done;
    for s = 0 to n_sessions - 1 do
      count.(s + 1) <- count.(s + 1) + count.(s)
    done;
    for i = 0 to !k - 1 do
      let s = sess.(su.(i)) in
      users.(count.(s)) <- su.(i);
      link_rate.(count.(s)) <- sr.(i);
      count.(s) <- count.(s) + 1
    done;
    !k
  in
  (* the segment [lo, hi)'s distinct rates into [dr], in arrival order,
     each user's index among them into [ids]; how many (= its sets) *)
  let distinct lo hi =
    let k = ref 0 in
    for i = lo to hi - 1 do
      let d = ref 0 in
      while !d < !k && Float.compare dr.(!d) link_rate.(i) <> 0 do incr d done;
      if !d = !k then begin
        dr.(!k) <- link_rate.(i);
        incr k
      end;
      ids.(i) <- !d
    done;
    !k
  in
  (* a stable sort of the segment by ascending rate, given its [k]
     distinct rates: a counting sort by rank [rk] through [su]/[sr] *)
  let sort_by_rate lo hi k =
    Array.fill at 0 (k + 1) 0;
    for d = 0 to k - 1 do
      rk.(d) <- 0;
      for e = 0 to k - 1 do
        if dr.(e) < dr.(d) then rk.(d) <- rk.(d) + 1
      done
    done;
    for i = lo to hi - 1 do
      at.(rk.(ids.(i)) + 1) <- at.(rk.(ids.(i)) + 1) + 1
    done;
    for p = 1 to k do
      at.(p) <- at.(p) + at.(p - 1)
    done;
    for i = lo to hi - 1 do
      let p = rk.(ids.(i)) in
      su.(lo + at.(p)) <- users.(i);
      sr.(lo + at.(p)) <- link_rate.(i);
      at.(p) <- at.(p) + 1
    done;
    Array.blit su lo users lo (hi - lo);
    Array.blit sr lo link_rate lo (hi - lo)
  in
  (* [f lo hi] on each session's segment of [n] laid-out members *)
  let iter_segments n f =
    let hi = ref n in
    while !hi > 0 do
      let s = sess.(users.(!hi - 1)) and lo = ref (!hi - 1) in
      while !lo > 0 && sess.(users.(!lo - 1)) = s do decr lo done;
      f !lo !hi;
      hi := !lo
    done
  in
  let n_groups = Array.length aps in
  let n_sets = ref 0 and n_members = ref 0 in
  for g = 0 to n_groups - 1 do
    iter_segments (lay_out g) (fun lo hi ->
        n_sets := !n_sets + distinct lo hi;
        n_members := !n_members + (hi - lo))
  done;
  let members = Array.make !n_members 0 in
  let set_lo = Array.make !n_sets 0 and set_hi = Array.make !n_sets 0 in
  let costs = Array.make !n_sets 0. and group_of = Array.make !n_sets 0 in
  let session = Array.make !n_sets 0 and tx_rate = Array.make !n_sets 0. in
  (* APs, sessions and rates descending, both planes filled from the
     end: the segment's set at rate [link_rate.(q)] is its suffix from
     [q], each distinct rate's first index *)
  for g = n_groups - 1 downto 0 do
    iter_segments (lay_out g) (fun lo hi ->
        sort_by_rate lo hi (distinct lo hi);
        n_members := !n_members - (hi - lo);
        let base = !n_members - lo and s = sess.(users.(lo)) in
        for i = lo to hi - 1 do
          members.(base + i) <- local.(users.(i))
        done;
        for q = hi - 1 downto lo do
          if q = lo || Float.compare link_rate.(q) link_rate.(q - 1) <> 0
          then begin
            decr n_sets;
            set_lo.(!n_sets) <- base + q;
            set_hi.(!n_sets) <- base + hi;
            costs.(!n_sets) <- rates.(s) /. link_rate.(q);
            group_of.(!n_sets) <- g;
            session.(!n_sets) <- s;
            tx_rate.(!n_sets) <- link_rate.(q)
          end
        done)
  done;
  ( Optkit.Cover_instance.of_planes ~n_elements:n_local ~members ~lo:set_lo
      ~hi:set_hi ~costs ~group_of ~n_groups
      ~payload:(fun j ->
        { ap = group_of.(j); session = session.(j); tx_rate = tx_rate.(j) }),
    universe )

(** [cover_instance p] is {!shard_cover} on every AP and user of [p]. *)
let cover_instance ?(filter_over_budget = false) p =
  let n_aps, n_users = Problem.dims p in
  fst
    (shard_cover ~filter_over_budget p ~aps:(Array.init n_aps Fun.id)
       ~local:(Array.init n_users Fun.id) ~n_local:n_users)

(** Users that the covering ground set should contain: everyone within range
    of at least one AP (users out of all ranges can never be served). *)
let coverable_users p =
  let _, n_users = Problem.dims p in
  let u = Optkit.Bitset.create n_users in
  List.iter (Optkit.Bitset.add u) (Problem.coverable_users p);
  u

(** Replay [sets] in order against [universe] into [assoc] through the
    maps: element [i] goes to user [users.(i)], group [g] to AP
    [aps.(g)], and each user keeps the AP of the first set covering it. *)
let replay_sets inst ~universe ~users ~aps assoc sets =
  let { Optkit.Cover_instance.members; lo; hi; group_of; _ } = inst in
  Array.iter
    (fun j ->
      for k = lo.(j) to hi.(j) - 1 do
        let i = members.(k) in
        let u = users.(i) in
        if assoc.(u) = Association.none && Optkit.Bitset.mem universe i then
          Association.serve assoc ~user:u ~ap:aps.(group_of.(j))
      done)
    sets

let association_of_sets inst ~universe sets =
  let n_users = Optkit.Bitset.capacity universe in
  let assoc = Association.empty ~n_users in
  replay_sets inst ~universe ~users:(Array.init n_users Fun.id)
    ~aps:(Array.init inst.Optkit.Cover_instance.n_groups Fun.id)
    assoc (Array.of_list sets);
  assoc
