(** Distributed association control (§4.2, §5.2, §6.2).

    Each user periodically queries its neighbor APs for the sessions they
    transmit and the rates, computes what each AP's load would become if it
    joined (and what its current AP's load would become if it left), and
    re-associates according to the objective:

    - {b MNU / MLA rule} ([Min_total_load]): join the feasible neighbor AP
      that minimizes the {e total} load of the neighborhood — every user
      tries to consume as little of the shared airtime as possible.
    - {b BLA rule} ([Min_load_vector]): join the feasible neighbor AP that
      minimizes the neighborhood's load vector sorted in non-increasing
      order, compared lexicographically (footnote 5).

    Ties are broken by signal strength, then by lower AP index. A served
    user only moves when the move {e strictly} improves its objective; an
    unserved user joins the best feasible AP outright.

    Three decision schedulers:
    - [Sequential]: users decide one at a time — always converges on a
      static network (Lemmas 1 and 2: every move strictly decreases a global
      potential drawn from a finite set of values).
    - [Simultaneous]: all users decide on the same snapshot, then all apply.
      May oscillate forever (the paper's Fig. 4 two-user swap); we detect
      revisited states and report [oscillated = true].
    - [Locked]: the paper's §8 future-work fix, implemented here. A user
      must lock every AP in its neighborhood before deciding; users whose
      neighborhood overlaps an already-locked AP sit the round out. Granted
      users decide on live state, so each applied move strictly improves the
      potential and convergence is restored even with concurrency. *)

open Wlan_model

let src = Logs.Src.create "mcast.distributed" ~doc:"Distributed association"

module Log = (val Logs.src_log src : Logs.LOG)

type objective = Min_total_load | Min_load_vector
type scheduler = Sequential | Simultaneous | Locked

(* Deterministic event counters (DESIGN.md §4.9). Every scheduler scans
   users in a fixed order and draws no randomness, so these totals are a
   pure function of the run's inputs. *)
let c_runs = Wlan_obs.Counters.make "distributed.runs"
let c_rounds = Wlan_obs.Counters.make "distributed.rounds"
let c_moves = Wlan_obs.Counters.make "distributed.moves"
let c_decisions = Wlan_obs.Counters.make "distributed.decisions"

type outcome = {
  assoc : Association.t;
  rounds : int;  (** decision rounds executed *)
  moves : int;  (** total (re)associations applied *)
  converged : bool;  (** the last round made no move *)
  oscillated : bool;  (** a previously seen state recurred (Simultaneous) *)
}

(** {2 The decision kernel (DESIGN.md §4.12)}

    The rule exists once, in two parts. A {e plane fill} writes the
    deciding user's neighborhood into preallocated scratch planes, one
    slot per neighbor AP in ascending order: the AP, its signal, its
    load if the user joins it (a stay at the serving AP is the move to
    its own slot, whose join entry holds its live load), and the
    {e no-move plane} — the serving AP at its leave load, every other
    neighbor at its live load. {!choose_planes} then decides from the
    planes and a per-AP budget array alone. The engine's fill
    ([fill_from_tracker]) reads the tracker; the message-level protocol
    of the simulator fills the same planes from query answers and
    decides through {!choose}.

    - Every candidate differs from the no-move plane in exactly one
      entry, its own, which holds its join load.
    - Under [Min_total_load] {!Loads.gate_replaced_sums} decides each
      comparison from O(1) estimates and leaves the rest to the exact
      index-order folds of the neighborhood: O(d) per decision.
    - Under [Min_load_vector] the plane is sorted once per decision; a
      candidate's vector is the sorted base with its entry replaced by
      the join load and re-sorted in one insertion pass — the same
      multiset, hence the same non-increasing value sequence, in O(d)
      per candidate and O(d²) per decision.
    - Candidate vectors are built in two reused buffers (best / trial,
      swapped on improvement) and compared over their logical prefix
      from the first entry where either leaves the base (the entries
      before it are bit-identical, so the eps comparison is unchanged).
    - The fold visits feasible neighbors in ascending order; a later one
      replaces the best on a strictly better objective, or an eps-equal
      one with a strictly stronger signal.

    Scratch lives in an {!Optkit.Arena}: one allocation per [Online]
    network (a run drains one), reused across every decision and
    settle. *)

type scratch = {
  arena : Optkit.Arena.t;
  mutable cap : int;  (* all planes hold at least [cap] entries *)
  mutable nbr : int array;  (* live neighborhood of the deciding user *)
  mutable nrate : float array;  (* its link rates *)
  mutable nsig : float array;  (* its signals *)
  mutable join_l : float array;  (* join load per neighbor *)
  mutable vec_a : float array;
      (* candidate vector buffers, swapped; under [Min_total_load] the
         estimates and margins of every move *)
  mutable vec_b : float array;
  mutable vec_base : float array;
      (* no-move plane, sorted under [Min_load_vector] *)
  mutable base_ord : int array;  (* its slots, in sorted order *)
  mutable base_pos : int array;  (* slot -> index in [vec_base] *)
}

let scratch_ensure s n =
  if n > s.cap then begin
    s.nbr <- Optkit.Arena.ints s.arena "dist.nbr" n;
    s.nrate <- Optkit.Arena.floats s.arena "dist.nrate" n;
    s.nsig <- Optkit.Arena.floats s.arena "dist.nsig" n;
    s.join_l <- Optkit.Arena.floats s.arena "dist.join" n;
    s.vec_a <- Optkit.Arena.floats s.arena "dist.vec_a" n;
    s.vec_b <- Optkit.Arena.floats s.arena "dist.vec_b" n;
    s.vec_base <- Optkit.Arena.floats s.arena "dist.vec_base" n;
    s.base_ord <- Optkit.Arena.ints s.arena "dist.base_ord" n;
    s.base_pos <- Optkit.Arena.ints s.arena "dist.base_pos" n;
    s.cap <- Array.length s.join_l
  end

let make_scratch () =
  let s =
    {
      arena = Optkit.Arena.create ();
      cap = 0;
      nbr = [||];
      nrate = [||];
      nsig = [||];
      join_l = [||];
      vec_a = [||];
      vec_b = [||];
      vec_base = [||];
      base_ord = [||];
      base_pos = [||];
    }
  in
  scratch_ensure s 1;
  s

(* [Min_total_load]: the comparison of the moves to slots [i] and [j]
   (stays included: a stay is the move to the serving slot). Decided by
   the gate on the O(1) estimates when it can; otherwise both sums are
   the exact in-order folds of the neighborhood, compared at the
   decision eps. *)
let compare_totals scr ~d i j =
  let c = Loads.gate_replaced_sums ~est:scr.vec_a ~margin:scr.vec_b i j in
  if c <> Loads.undecided then c
  else
    let exact k = Loads.replaced_sum scr.vec_base d k scr.join_l.(k) in
    Loads.compare_load_prefixes_eps ~from:0 ~len:1 [| exact i |] [| exact j |]

(* The local rule on filled planes: slots [0..d-1] of [nbr], [nsig],
   [join_l] and the no-move plane [vec_base], and [budgets] per AP;
   [current_k] is the serving slot, [-1] for an unserved user.
   Decision-for-decision equivalence with the boxed rule of the test
   suite is pinned by the batteries of [test_flat.ml] (engine fill) and
   [test_sim.ml] (protocol fill). The body builds no closure: a decision
   allocates only its [Some] and a rare exact total-load fallback. *)
let choose_planes scr ~budgets ~d ~current_k ~objective =
  let join_l = scr.join_l and plane = scr.vec_base in
  let nbr = scr.nbr and sigs = scr.nsig in
  (* [Min_total_load]: every candidate's estimate in one pass.
     [Min_load_vector]: the plane sorted once. A move to slot [k]
     changes only slot [k]'s entry (to [join_l.(k)]), so every vector
     the fold compares is this base with one entry replaced. *)
  let pos = scr.base_pos in
  (match objective with
  | Min_total_load ->
      Loads.replaced_sum_estimates plane join_l d ~est:scr.vec_a
        ~margin:scr.vec_b
  | Min_load_vector ->
      let ord = scr.base_ord in
      for k = 0 to d - 1 do
        ord.(k) <- k
      done;
      Loads.sort_prefix_desc plane ord d;
      for i = 0 to d - 1 do
        pos.(ord.(i)) <- i
      done);
  (* fold over feasible neighbors in ascending order: the first feasible
     seeds the best, later ones replace it on a strictly better
     objective or an eps-equal one with strictly stronger signal. Load
     vectors are built in two reused buffers (best / trial, swapped on
     improvement); [lo] is the first index where the last built vector
     may leave the base, [best_lo] that of the best. *)
  let bv = ref scr.vec_a and tv = ref scr.vec_b in
  let best_k = ref (-1) and lo = ref 0 and best_lo = ref 0 in
  for k = 0 to d - 1 do
    if k = current_k || join_l.(k) <= budgets.(nbr.(k)) +. 1e-12 then
      if !best_k < 0 then begin
        (match objective with
        | Min_total_load -> ()
        | Min_load_vector ->
            best_lo :=
              Loads.replace_sorted_prefix plane d pos.(k) join_l.(k) !bv);
        best_k := k
      end
      else begin
        let c =
          match objective with
          | Min_total_load -> compare_totals scr ~d k !best_k
          | Min_load_vector ->
              lo := Loads.replace_sorted_prefix plane d pos.(k) join_l.(k) !tv;
              Loads.compare_load_prefixes_eps ~from:(Int.min !lo !best_lo)
                ~len:d !tv !bv
        in
        if c < 0 || (c = 0 && sigs.(k) > sigs.(!best_k) +. 1e-12) then begin
          let swap = !bv in
          bv := !tv;
          tv := swap;
          best_k := k;
          best_lo := !lo
        end
      end
  done;
  if !best_k < 0 then None
  else if current_k < 0 then Some nbr.(!best_k)
  else if !best_k <> current_k then begin
    (* served: move only on strict improvement over staying *)
    let c =
      match objective with
      | Min_total_load -> compare_totals scr ~d !best_k current_k
      | Min_load_vector ->
          (* the stay vector goes into the free trial buffer *)
          lo :=
            Loads.replace_sorted_prefix plane d pos.(current_k)
              join_l.(current_k) !tv;
          Loads.compare_load_prefixes_eps ~from:(Int.min !lo !best_lo) ~len:d
            !bv !tv
    in
    if c < 0 then Some nbr.(!best_k) else None
  end
  else None

let choose ~objective ~serving ~aps ~joins ~base ~budgets ~signals =
  let d = Array.length aps in
  if
    List.exists
      (fun a -> Array.length a <> d)
      [ joins; base; budgets; signals ]
    || serving < -1 || serving >= d
  then invalid_arg "Distributed.choose: planes disagree";
  let scr = make_scratch () in
  scratch_ensure scr d;
  Array.blit aps 0 scr.nbr 0 d;
  Array.blit joins 0 scr.join_l 0 d;
  Array.blit base 0 scr.vec_base 0 d;
  Array.blit signals 0 scr.nsig 0 d;
  (* the rule reads budgets per AP, as an [Online] network keeps them *)
  let by_ap = Array.make (Array.fold_left Int.max (-1) aps + 1) 0. in
  Array.iteri (fun k a -> by_ap.(a) <- budgets.(k)) aps;
  choose_planes scr ~budgets:by_ap ~d ~current_k:serving ~objective

(* The engine's plane fill for user [u], whose live neighborhood
   ([nbr]/[nrate]/[nsig], [d] slots) [Sparse.fill_candidates] wrote:
   join loads from the tracker, and the no-move plane from the live
   loads with the serving AP at its leave load; returns the serving
   slot. A served user's AP is always in its live neighborhood: the
   tracker rejects zero-rate members, and [Online] detaches a user whose
   AP fails or whose serving link is lost. Allocates nothing beyond what
   the tracker's leave query boxes. *)
let fill_from_tracker tr scr ~d ~current u =
  let nbr = scr.nbr and plane = scr.vec_base in
  Loads.Tracker.load_if_joins_into tr ~user:u ~rates:scr.nrate ~nbr ~d
    ~into:scr.join_l;
  let live = Loads.Tracker.loads tr in
  let current_k = ref (-1) in
  for k = 0 to d - 1 do
    let b = nbr.(k) in
    if b = current then current_k := k else plane.(k) <- live.(b)
  done;
  if current <> Association.none then
    plane.(!current_k) <- Loads.Tracker.load_if_leaves tr ~user:u ~ap:current;
  !current_k

(** {1 The round engine: online re-association}

    [Online] keeps a running network alive across membership and topology
    deltas — users arriving and departing, APs failing and recovering,
    link rates drifting — and re-converges {e incrementally}: each delta
    marks only the users whose decision inputs it touched (a dirty set;
    an AP's watchers are its in-range members, read straight off the link
    structure), and {!settle} re-runs the local rule for exactly those
    users, letting dirtiness propagate move by move. Its drain is the
    module's one round loop: {!run} drains an all-dirty network.

    {b Equivalence.} A decision is a pure function of the user's own
    association and its neighbor APs' tracker state, and a user is dirty
    iff one of those APs changed since it last decided (a move marks the
    watchers of the APs it leaves and joins, the mover among them). A
    clean user would stay, with no side effect, so the drain makes the
    moves, rounds and floats of the loop that re-decides every user every
    round, under all three schedulers; a round that empties the dirty set
    is a round without a move. A [settle] from an all-dirty start is thus
    [run] on the effective static instance ({!effective_problem}), and at
    quiescence the association is a Nash point of the local rule on the
    final static topology. The boxed reference loop of the test suite
    pins both facts for every scheduler.

    Determinism: every operation iterates users and APs in ascending
    index order and draws no randomness, so a churn run is a pure
    function of (problem, script, objective, mode). *)

module Online = struct
  (* Deterministic event counters: the online layer iterates users and
     APs in ascending index order, so dirty-set sizes at round starts
     evolve deterministically and are safe to aggregate. *)
  let c_settles = Wlan_obs.Counters.make "online.settles"
  let c_settle_rounds = Wlan_obs.Counters.make "online.settle_rounds"
  let c_settle_moves = Wlan_obs.Counters.make "online.settle_moves"
  let c_deltas = Wlan_obs.Counters.make "online.deltas"
  let c_dirty_scanned = Wlan_obs.Counters.make "online.dirty_scanned"
  let c_dirty_peak = Wlan_obs.Counters.make "online.dirty_peak"

  type t = {
    p : Problem.t;
        (* [create]'s private copy, whose rate plane drift mutates (a
           [run] network is the caller's instance: it takes no delta);
           its candidate and member lists are the base neighborhoods
           (rate > 0, ascending, alive-agnostic) and the AP -> watcher
           index *)
    objective : objective;
    assoc : Association.t;
    tr : Loads.Tracker.t;
    budgets : float array;  (* per-AP budgets, read by the rule *)
    present : bool array;  (* user currently in the network? *)
    alive : bool array;  (* AP currently up? *)
    dirty : bool array;
    mutable n_dirty : int;
    scr : scratch;
        (* flat-kernel scratch, reused across every settle; sized once to
           the largest slot count, which bounds every live neighborhood *)
  }

  let mark t u =
    if t.present.(u) && not t.dirty.(u) then begin
      t.dirty.(u) <- true;
      t.n_dirty <- t.n_dirty + 1
    end

  let clear t u =
    if t.dirty.(u) then begin
      t.dirty.(u) <- false;
      t.n_dirty <- t.n_dirty - 1
    end

  let mark_watchers t a =
    Sparse.iter_member_users t.p.Problem.links a (fun u -> mark t u)

  (* A network on [p] itself serving [assoc], every present user dirty. *)
  let network ~objective ~present ~assoc p =
    let n_aps, n_users = Problem.dims p in
    let t =
      {
        p;
        objective;
        assoc;
        tr = Loads.Tracker.create p assoc;
        budgets = Array.init n_aps (Problem.ap_budget p);
        present;
        alive = Array.make n_aps true;
        dirty = Array.make n_users false;
        n_dirty = 0;
        scr = make_scratch ();
      }
    in
    (* the slot structure never grows, so no later neighborhood (lost
       links re-armed included) outgrows the largest slot count *)
    let max_d = ref 0 in
    for u = 0 to n_users - 1 do
      max_d := Int.max !max_d (Sparse.degree p.Problem.links u);
      mark t u
    done;
    scratch_ensure t.scr !max_d;
    t

  let create ?init ?present ~objective p =
    let _, n_users = Problem.dims p in
    let present =
      match present with
      | Some pr ->
          if Array.length pr <> n_users then
            invalid_arg "Online.create: present has wrong length";
          Array.copy pr
      | None -> Array.make n_users true
    in
    let assoc =
      match init with
      | Some a -> Association.copy a
      | None -> Association.empty ~n_users
    in
    (* an absent user is never served *)
    Array.iteri
      (fun u pr -> if not pr then assoc.(u) <- Association.none)
      present;
    network ~objective ~present ~assoc (Problem.copy_for_mutation p)

  (** The live association — shared, not a copy. *)
  let assoc t = t.assoc

  (** The live per-AP loads (the tracker's array, read-only). *)
  let loads t = Loads.Tracker.loads t.tr

  let total_load t = Loads.Tracker.total_load t.tr
  let max_load t = Loads.Tracker.max_load t.tr
  let is_present t u = t.present.(u)
  let ap_alive t a = t.alive.(a)
  let dirty_count t = t.n_dirty

  (** The live link rate — reads the working copy that rate deltas
      mutate, not the instance [create] was given. *)
  let link_rate t ~ap ~user = Problem.link_rate t.p ~ap ~user

  (* A dead AP answers no queries: it simply drops out of everyone's
     neighborhood. [fill t u] writes the live slots of [u] at alive APs,
     in ascending order, into the neighborhood planes and returns how
     many, so [decide t u d] sees exactly the candidates of [u] on
     [effective_problem]. *)
  let fill t u =
    let scr = t.scr in
    Sparse.fill_candidates t.p.Problem.links u ~ap_alive:t.alive
      ~aps:scr.nbr ~rates:scr.nrate ~sigs:scr.nsig

  let decide t u d =
    Wlan_obs.Counters.incr c_decisions;
    if d = 0 then None
    else
      let current_k = fill_from_tracker t.tr t.scr ~d ~current:t.assoc.(u) u in
      choose_planes t.scr ~budgets:t.budgets ~d ~current_k
        ~objective:t.objective

  let apply_move t ~user ~ap =
    let old_ap = t.assoc.(user) in
    if old_ap <> Association.none then mark_watchers t old_ap;
    mark_watchers t ap (* includes [user]: it re-checks next round *);
    Loads.Tracker.move t.tr ~user ~ap

  (** {2 The batch applier} *)

  type delta =
    | Arrive of { user : int }
    | Depart of { user : int }
    | Ap_fail of { ap : int }
    | Ap_recover of { ap : int }
    | Set_rate of { user : int; ap : int; rate : float }
    | Drift of { user : int; steps : int }

  (* A [Burst] is one arrival per user, in script order. *)
  let deltas_of_event = function
    | Churn_script.Join { user } -> [ Arrive { user } ]
    | Churn_script.Leave { user } -> [ Depart { user } ]
    | Churn_script.Ap_fail { ap } -> [ Ap_fail { ap } ]
    | Churn_script.Ap_recover { ap } -> [ Ap_recover { ap } ]
    | Churn_script.Drift { user; steps } -> [ Drift { user; steps } ]
    | Churn_script.Burst { users } -> List.map (fun user -> Arrive { user }) users

  type applied =
    | Unchanged
    | Arrived of { user : int }
    | Departed of { user : int; ap : int }
    | Failed of { ap : int; detached : int list }
    | Recovered of { ap : int }
    | Rate_set of { lost : bool }
    | Drifted of { user : int; steps : int; lost : int }

  (* Install a new link rate (negative clamps to [0.] = out of range). A
     user served over the link is detached first and — when the link
     survives — reattached at the new rate, so the tracker multisets
     never hold a stale value; a link pushed to [0.] forcibly unserves
     the user ([lost], a session interruption). *)
  let set_rate t ~user ~ap rate =
    (* [rate < 0.] is false for nan, so clamping alone would let a nan
       rate through to the load division — reject it explicitly *)
    if Float.is_nan rate then
      invalid_arg "Online.set_rate: rate must not be nan";
    Wlan_obs.Counters.incr c_deltas;
    let rate = if rate < 0. then 0. else rate in
    let old = Problem.link_rate t.p ~ap ~user in
    if Float.equal old rate then Unchanged
    else begin
      let attached = t.assoc.(user) = ap in
      if attached then Loads.Tracker.unserve t.tr ~user;
      (* this raises when the pair was never in range — the slot
         structure cannot grow a link (churn drift only ever touches
         links that exist, so replays never hit this) *)
      Problem.set_link_rate t.p ~ap ~user rate;
      if attached then
        if rate > 0. then begin
          Loads.Tracker.move t.tr ~user ~ap;
          mark_watchers t ap;
          Rate_set { lost = false }
        end
        else begin
          mark_watchers t ap;
          mark t user (* no longer a member of [ap] *);
          Rate_set { lost = true }
        end
      else begin
        (* no load changed — only this user's own options did *)
        mark t user;
        Rate_set { lost = false }
      end
    end

  (* No-op deltas (arriving twice, failing a dead AP) change nothing. *)
  let apply t ~tiers = function
    | Arrive { user } ->
        Wlan_obs.Counters.incr c_deltas;
        if t.present.(user) then Unchanged
        else begin
          t.present.(user) <- true;
          mark t user;
          Arrived { user }
        end
    | Depart { user } ->
        Wlan_obs.Counters.incr c_deltas;
        if not t.present.(user) then Unchanged
        else begin
          t.present.(user) <- false;
          clear t user;
          let ap = t.assoc.(user) in
          if ap <> Association.none then begin
            Loads.Tracker.unserve t.tr ~user;
            mark_watchers t ap
          end;
          Departed { user; ap }
        end
    | Ap_fail { ap } ->
        Wlan_obs.Counters.incr c_deltas;
        if not t.alive.(ap) then Unchanged
        else begin
          t.alive.(ap) <- false;
          (* every member is in range of [ap] (the tracker rejects
             zero-rate members), so the in-range member list, ascending,
             holds them *)
          let detached = ref [] in
          Sparse.iter_member_users t.p.Problem.links ap (fun u ->
              if t.assoc.(u) = ap then begin
                Loads.Tracker.unserve t.tr ~user:u;
                detached := u :: !detached
              end);
          mark_watchers t ap (* the detached members are watchers too *);
          Failed { ap; detached = List.rev !detached }
        end
    | Ap_recover { ap } ->
        Wlan_obs.Counters.incr c_deltas;
        if t.alive.(ap) then Unchanged
        else begin
          t.alive.(ap) <- true;
          mark_watchers t ap;
          Recovered { ap }
        end
    | Set_rate { user; ap; rate } -> set_rate t ~user ~ap rate
    | Drift { user; steps } ->
        (* one [set_rate] per live candidate slot, ascending AP order *)
        let changed = ref false and lost = ref 0 in
        Problem.iter_candidates t.p user (fun ap r _ ->
            match
              set_rate t ~user ~ap (Churn_script.drifted_rate ~tiers r steps)
            with
            | Rate_set r ->
                changed := true;
                if r.lost then incr lost
            | _ -> ());
        if !changed then Drifted { user; steps; lost = !lost } else Unchanged

  let interrupted = function
    | Failed { detached; _ } -> List.length detached
    | Rate_set { lost } -> Bool.to_int lost
    | Drifted { lost; _ } -> lost
    | Unchanged | Arrived _ | Departed _ | Recovered _ -> 0

  (** {2 Re-convergence} *)

  (* The one round loop: rounds until the dirty set is empty
     ([converged]), a state recurs or [max_rounds] ran; also returns the
     dirty users scanned and the largest dirty set at a round's start. A
     round re-decides each dirty user, scanning up from user 0 (from
     [rounds mod n_users] under [Locked], so no user starves behind a
     habitual locker). [Simultaneous] applies the round's moves after
     deciding them all. Under [Locked] a user locks its neighborhood to
     decide; a mover keeps its locks to the round's end (peers must not
     re-read its neighborhood), and a user finding one held stays dirty. *)
  let drain t ~max_rounds ~scheduler =
    let n_users = Array.length t.assoc in
    let rounds = ref 0 and moves = ref 0 and oscillated = ref false in
    let scanned = ref 0 and peak = ref 0 in
    let seen = Hashtbl.create 64 in
    if scheduler = Simultaneous then
      Hashtbl.replace seen (Array.to_list t.assoc) ();
    let locked =
      Array.make (if scheduler = Locked then Array.length t.alive else 0) false
    in
    (* the neighborhood [fill] wrote ([network] fixed its capacity) *)
    let nbr = t.scr.nbr in
    let lock d v = for k = 0 to d - 1 do locked.(nbr.(k)) <- v done in
    let rec held d k = k < d && (locked.(nbr.(k)) || held d (k + 1)) in
    while t.n_dirty > 0 && (not !oscillated) && !rounds < max_rounds do
      scanned := !scanned + t.n_dirty;
      peak := Int.max !peak t.n_dirty;
      let origin = !rounds mod n_users in
      incr rounds;
      match scheduler with
      | Sequential ->
          for u = 0 to n_users - 1 do
            if t.dirty.(u) then begin
              clear t u;
              match decide t u (fill t u) with
              | None -> ()
              | Some ap ->
                  apply_move t ~user:u ~ap;
                  incr moves
            end
          done
      | Simultaneous ->
          let decisions = ref [] in
          for u = n_users - 1 downto 0 do
            if t.dirty.(u) then begin
              clear t u;
              match decide t u (fill t u) with
              | None -> ()
              | Some ap -> decisions := (u, ap) :: !decisions
            end
          done;
          if !decisions <> [] then begin
            List.iter (fun (u, ap) -> apply_move t ~user:u ~ap) !decisions;
            moves := !moves + List.length !decisions;
            let key = Array.to_list t.assoc in
            if Hashtbl.mem seen key then oscillated := true
            else Hashtbl.replace seen key ()
          end
      | Locked ->
          Array.fill locked 0 (Array.length locked) false;
          for i = 0 to n_users - 1 do
            let u = (i + origin) mod n_users in
            if t.dirty.(u) then begin
              let d = fill t u in
              if d = 0 then clear t u
              else if not (held d 0) then begin
                lock d true;
                clear t u;
                match decide t u d with
                | None -> lock d false
                | Some ap ->
                    apply_move t ~user:u ~ap;
                    incr moves
              end
            end
          done
    done;
    let o : outcome =
      {
        assoc = t.assoc;
        rounds = !rounds;
        moves = !moves;
        converged = t.n_dirty = 0;
        oscillated = !oscillated;
      }
    in
    (o, !scanned, !peak)

  type settle_stats = {
    rounds : int;  (** scan rounds that evaluated at least one user *)
    moves : int;  (** (re)associations applied *)
    reassociated : int;  (** distinct users whose serving AP changed *)
    changed : (int * int * int) list;
        (** the settle's net association deltas, ascending user:
            [(user, old_ap, new_ap)] with [Association.none] = unserved;
            [reassociated = List.length changed] *)
    converged : bool;
    oscillated : bool;  (** a seen state recurred ([`Simultaneous] only) *)
    total_load : float;  (** network load at the end of the settle *)
    max_load : float;  (** peak AP load at the end of the settle *)
  }

  (** [settle t] drains the dirty set under the [mode] scheduler; it has
      converged when the dirty set is empty at the end. Already-quiescent
      states return with [rounds = 0]. *)
  let settle ?(max_rounds = 200) ?(mode = `Sequential) t =
    Wlan_obs.Counters.incr c_settles;
    let before = Association.copy t.assoc in
    let scheduler = if mode = `Sequential then Sequential else Simultaneous in
    let o, scanned, peak = drain t ~max_rounds ~scheduler in
    Wlan_obs.Counters.add c_dirty_scanned scanned;
    Wlan_obs.Counters.record_max c_dirty_peak peak;
    Wlan_obs.Counters.add c_settle_rounds o.rounds;
    Wlan_obs.Counters.add c_settle_moves o.moves;
    let changed = ref [] in
    for u = Array.length t.assoc - 1 downto 0 do
      if t.assoc.(u) <> before.(u) then
        changed := (u, before.(u), t.assoc.(u)) :: !changed
    done;
    {
      rounds = o.rounds;
      moves = o.moves;
      reassociated = List.length !changed;
      changed = !changed;
      converged = o.converged;
      oscillated = o.oscillated;
      total_load = total_load t;
      max_load = max_load t;
    }

  (** The static instance the network currently embodies: the working
      link structure with dead-AP and absent-user links zeroed. A fresh
      {!run} on it is the "what a from-scratch solve would have done"
      baseline the disruption metrics compare against, and the
      quiescence oracle's ground truth. *)
  let effective_problem t =
    Problem.masked t.p ~ap_alive:t.alive ~user_present:t.present
end

(* No copy of the rate plane: a run applies no delta. *)
let run ?init ?(max_rounds = 200) ~scheduler ~objective p =
  Wlan_obs.Counters.incr c_runs;
  let _, n_users = Problem.dims p in
  let assoc =
    match init with
    | Some a -> Association.copy a
    | None -> Association.empty ~n_users
  in
  let net =
    Online.network ~objective ~present:(Array.make n_users true) ~assoc p
  in
  let o, _, _ = Online.drain net ~max_rounds ~scheduler in
  Wlan_obs.Counters.add c_rounds o.rounds;
  Wlan_obs.Counters.add c_moves o.moves;
  Log.debug (fun m ->
      m "finished: rounds %d, moves %d, converged %b, oscillated %b" o.rounds
        o.moves o.converged o.oscillated);
  o

(* The static reference a churned network is measured against. *)
let baseline ~max_rounds ~objective p =
  let o = run ~max_rounds ~scheduler:Sequential ~objective p in
  (Loads.total_load p o.assoc, Loads.max_load p o.assoc)

(** {1 The paper's three distributed algorithms} *)

let mnu ?max_rounds p =
  let o = run ?max_rounds ~scheduler:Sequential ~objective:Min_total_load p in
  (Solution.make ~algorithm:"MNU-distributed" p o.assoc, o)

(** Distributed MLA is the same local rule as distributed MNU (§6.2). *)
let mla p =
  let o = run ~scheduler:Sequential ~objective:Min_total_load p in
  (Solution.make ~algorithm:"MLA-distributed" p o.assoc, o)

let bla ?max_rounds p =
  let o = run ?max_rounds ~scheduler:Sequential ~objective:Min_load_vector p in
  (Solution.make ~algorithm:"BLA-distributed" p o.assoc, o)
