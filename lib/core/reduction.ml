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

let pp_tx ppf { ap; session; tx_rate } =
  Fmt.pf ppf "a%d:s%d@%g" ap session tx_rate

(** [cover_instance p] builds the covering instance. When
    [filter_over_budget] (used by MNU), subsets costing more than the AP
    budget are dropped — they can never appear in a feasible solution, and
    the MCG analysis assumes every set fits its group's budget.

    Allocation-free up to the instance (DESIGN.md §4.12): pass 1 counts
    the sets, pass 2 fills exact-size arrays from the end, each set a
    suffix of an AP's members sorted by session, then by rate. *)
let cover_instance ?(filter_over_budget = false) p =
  let n_aps, n_users = Problem.dims p in
  let n_sessions = Problem.n_sessions p in
  let rates = p.Problem.session_rates and sess = p.Problem.user_session in
  let n = n_users + 1 (* an AP's members: at most every user *) in
  let users = Array.make n 0 and link_rate = Array.make n 0. in
  let su = Array.make n 0 and sr = Array.make n 0. in
  let dr = Array.make n 0. and at = Array.make n 0 in
  let ids = Array.make n 0 and rk = Array.make n 0 in
  let count = Array.make (n_sessions + 1) 0 in
  (* AP [a]'s members into [users]/[link_rate], sorted by session; how
     many. The budget filter drops members whose own rate costs too much:
     costs only fall as rates rise, so no kept set holds them. *)
  let lay_out a =
    let k = ref 0 and budget = Problem.ap_budget p a +. 1e-12 in
    Array.fill count 0 (n_sessions + 1) 0;
    Problem.iter_members p a (fun u r ->
        let s = sess.(u) in
        if (not filter_over_budget) || rates.(s) /. r <= budget then begin
          su.(!k) <- u;
          sr.(!k) <- r;
          incr k;
          count.(s + 1) <- count.(s + 1) + 1
        end);
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
  (* [f s q] on each set of the session-[s] segment [lo, hi): each
     distinct rate, by the index [q] of its first user, descending *)
  let iter_sets lo hi f =
    for q = hi - 1 downto lo do
      if q = lo || Float.compare link_rate.(q) link_rate.(q - 1) <> 0 then
        f sess.(users.(lo)) q
    done
  in
  let n_sets = ref 0 in
  for a = 0 to n_aps - 1 do
    iter_segments (lay_out a) (fun lo hi ->
        n_sets := !n_sets + distinct lo hi)
  done;
  let sets = Array.make !n_sets (Optkit.Bitset.create 0) in
  let costs = Array.make !n_sets 0. and group_of = Array.make !n_sets 0 in
  let payload = Array.make !n_sets { ap = 0; session = 0; tx_rate = 0. } in
  (* APs, sessions and rates descending: each set adds its rate's users
     to the last *)
  for a = n_aps - 1 downto 0 do
    iter_segments (lay_out a) (fun lo hi ->
        sort_by_rate lo hi (distinct lo hi);
        let cur = Optkit.Bitset.create n_users and top = ref hi in
        iter_sets lo hi (fun s q ->
            for i = q to !top - 1 do
              Optkit.Bitset.add cur users.(i)
            done;
            top := q;
            decr n_sets;
            let t = link_rate.(q) in
            sets.(!n_sets) <- Optkit.Bitset.copy cur;
            costs.(!n_sets) <- rates.(s) /. t;
            group_of.(!n_sets) <- a;
            payload.(!n_sets) <- { ap = a; session = s; tx_rate = t }))
  done;
  Optkit.Cover_instance.make ~n_elements:n_users ~sets ~costs ~group_of
    ~n_groups:n_aps ~payload ()

(** Users that the covering ground set should contain: everyone within range
    of at least one AP (users out of all ranges can never be served). *)
let coverable_users p =
  let _, n_users = Problem.dims p in
  let u = Optkit.Bitset.create n_users in
  List.iter (Optkit.Bitset.add u) (Problem.coverable_users p);
  u

(** Translate covering selections (set index + newly covered users) back
    into a user→AP association: each user goes to the AP of the transmission
    that first covered it. *)
let association_of_selections p inst selections =
  let _, n_users = Problem.dims p in
  let assoc = Association.empty ~n_users in
  List.iter
    (fun (set, newly) ->
      let { ap; _ } = Optkit.Cover_instance.payload inst set in
      Optkit.Bitset.iter (fun u -> Association.serve assoc ~user:u ~ap) newly)
    selections;
  assoc
