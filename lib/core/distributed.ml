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

let vec_lt a b = Loads.compare_load_vectors_eps a b < 0
let vec_approx_equal a b =
  Array.length a = Array.length b && Loads.compare_load_vectors_eps a b = 0

(** The local decision of user [u]: [Some ap] when [u] should (re)associate
    with [ap], [None] to stay put. [loads] must be the current AP loads;
    the hypothetical loads come from the eager scans of {!Loads}. *)
let decide p assoc ~loads ~objective u =
  Wlan_obs.Counters.incr c_decisions;
  match Problem.neighbor_aps p u with
  | [] -> None
  | neighbors ->
      let current = assoc.(u) in
      let if_joins a = Loads.load_if_joins p assoc ~user:u ~ap:a in
      (* Hypothetical load of neighbor [b] if [u] moves to [new_ap]. *)
      let hypothetical new_ap b =
        if b = new_ap then if_joins b
        else if b = current then Loads.load_if_leaves p assoc ~user:u ~ap:b
        else loads.(b)
      in
      (* Objective value of the neighborhood after a hypothetical move.
         Total-load objective: scalar sum boxed in a 1-element array so
         both objectives compare via lexicographic vector order; the fold
         adds the hypotheticals in neighbor order, exactly as the mapped
         list it replaces did. *)
      let eval new_ap =
        match objective with
        | Min_total_load ->
            [|
              List.fold_left
                (fun acc b -> acc +. hypothetical new_ap b)
                0. neighbors;
            |]
        | Min_load_vector ->
            Loads.sorted_load_vector
              (Array.of_list (List.map (hypothetical new_ap) neighbors))
      in
      let feasible a =
        a = current || if_joins a <= Problem.ap_budget p a +. 1e-12
      in
      let candidates = List.filter feasible neighbors in
      let scored = List.map (fun a -> (a, eval a)) candidates in
      (match scored with
      | [] -> None
      | _ ->
          (* best score; ties by stronger signal, then lower index *)
          let best =
            List.fold_left
              (fun (ba, bv) (a, v) ->
                if vec_lt v bv then (a, v)
                else if
                  vec_approx_equal v bv
                  && Problem.signal p ~ap:a ~user:u
                     > Problem.signal p ~ap:ba ~user:u +. 1e-12
                then (a, v)
                else (ba, bv))
              (List.hd scored) (List.tl scored)
          in
          let best_ap, best_v = best in
          if current = Association.none then
            (* unserved: any feasible AP grants service *)
            Some best_ap
          else if best_ap <> current then begin
            (* served: move only on strict improvement over staying *)
            let stay_v = eval current in
            if vec_lt best_v stay_v then Some best_ap else None
          end
          else None)

(** {2 Flat decision kernel (DESIGN.md §4.12)}

    The boxed rule above ({!decide}) allocates per decision: a filtered
    candidate list, a scored assoc list, and — under [Min_load_vector] —
    a fresh sorted array per candidate. The flat kernel that the round
    engine ({!Online}'s drain, under every scheduler) runs computes the
    {e same} decision into preallocated scratch planes:

    - the hypothetical queries are cached once per decision — one
      [load_if_joins] per neighbor, one [load_if_leaves] for the serving
      AP — instead of re-asked per candidate evaluation. The queries are
      pure, so the cached floats are bit-identical to the boxed rule's
      repeated calls;
    - every candidate differs from the no-move plane (serving AP at its
      leave load, every other neighbor at its live load) in exactly one
      entry, its own, which holds its join load;
    - under [Min_total_load] {!Loads.gate_replaced_sums} decides each
      comparison from O(1) estimates and leaves the rest to the boxed
      rule's exact folds: O(d) per decision, identical outcomes;
    - under [Min_load_vector] the plane is sorted once per decision; a
      candidate's vector is the sorted base with its entry replaced by
      the join load and re-sorted in one insertion pass — the same
      multiset, hence the same non-increasing value sequence, in O(d)
      per candidate and O(d²) per decision instead of O(d³);
    - candidate vectors are built in two reused buffers (best / trial,
      swapped on improvement) and compared over their logical prefix
      from the first entry where either leaves the base (the entries
      before it are bit-identical, so the eps comparison is unchanged);
    - the fold visits feasible neighbors in the same ascending order and
      applies the same eps comparisons and signal tie-break, so the
      chosen AP — and hence every downstream float — is identical.

    Scratch lives in an {!Optkit.Arena}: one allocation per [Online]
    network (a run drains one), reused across every decision and
    settle. *)

type scratch = {
  arena : Optkit.Arena.t;
  mutable cap : int;  (* all planes hold at least [cap] entries *)
  mutable nbr : int array;  (* live neighborhood of the deciding user *)
  mutable nrate : float array;  (* its link rates *)
  mutable nsig : float array;  (* its signals *)
  mutable join_l : float array;  (* load_if_joins per neighbor *)
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

(* [Min_total_load]: the boxed rule's comparison of the moves to slots
   [i] and [j] (stays included: a stay is the move to the serving slot).
   Decided by the gate on the O(1) estimates when it can; otherwise both
   sums are the exact in-order folds the boxed rule computes, compared
   as it compares them. *)
let compare_totals scr ~d i j =
  let c = Loads.gate_replaced_sums ~est:scr.vec_a ~margin:scr.vec_b i j in
  if c <> Loads.undecided then c
  else
    let exact k = Loads.replaced_sum scr.vec_base d k scr.join_l.(k) in
    Loads.compare_load_prefixes_eps ~from:0 ~len:1 [| exact i |] [| exact j |]

(* The local rule of [decide_with], on scratch planes against the tracker.
   [nbr.(0..d-1)] is the (live, ascending) neighborhood and
   [rates]/[sigs] its link rates and signals, equal to the live [Problem]
   queries; the caller has [scratch_ensure]d capacity [d].
   Decision-for-decision equivalence with the boxed rule is pinned by the
   qcheck battery in [test_flat.ml]. The body builds no closure: a
   decision allocates only what the tracker queries box, its [Some] and
   a rare exact total-load fallback. *)
let decide_flat p tr scr ~nbr ~d ~rates ~sigs ~current ~objective u =
  Wlan_obs.Counters.incr c_decisions;
  if d = 0 then None
  else begin
    let join_l = scr.join_l and plane = scr.vec_base in
    Loads.Tracker.load_if_joins_into tr ~user:u ~rates ~nbr ~d ~into:join_l;
    (* The no-move plane: the serving AP at its leave load, every other
       neighbor at its live load — [hypothetical] of the boxed rule for
       every slot but the one moved to, which reads the join cache (the
       live loads array stands in for the per-neighbor [load b] reads: no
       move happens mid-decision). A stay at the serving AP is the move
       to its own slot, whose join cache holds its live load. A served
       user's AP is always in its live neighborhood: the tracker rejects
       zero-rate members, and [Online] detaches a user whose AP fails or
       whose serving link is lost. *)
    let base_l = Loads.Tracker.loads tr in
    let current_k = ref (-1) in
    for k = 0 to d - 1 do
      let b = nbr.(k) in
      if b = current then current_k := k else plane.(k) <- base_l.(b)
    done;
    if current <> Association.none then
      plane.(!current_k) <- Loads.Tracker.load_if_leaves tr ~user:u ~ap:current;
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
    (* fold over feasible neighbors in ascending order: first feasible
       seeds the best, later ones replace it on a strictly better
       objective or an eps-equal one with strictly stronger signal — the
       boxed [List.fold_left] over [scored], without building it. Load
       vectors are built in two reused buffers (best / trial, swapped on
       improvement); [lo] is the first index where the last built vector
       may leave the base, [best_lo] that of the best. *)
    let bv = ref scr.vec_a and tv = ref scr.vec_b in
    let best_k = ref (-1) and lo = ref 0 and best_lo = ref 0 in
    for k = 0 to d - 1 do
      let a = nbr.(k) in
      if a = current || join_l.(k) <= Problem.ap_budget p a +. 1e-12 then
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
                lo :=
                  Loads.replace_sorted_prefix plane d pos.(k) join_l.(k) !tv;
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
    else if current = Association.none then Some nbr.(!best_k)
    else if !best_k <> !current_k then begin
      (* served: move only on strict improvement over staying *)
      let c =
        match objective with
        | Min_total_load -> compare_totals scr ~d !best_k !current_k
        | Min_load_vector ->
            (* the stay vector goes into the free trial buffer *)
            lo :=
              Loads.replace_sorted_prefix plane d pos.(!current_k)
                join_l.(!current_k) !tv;
            Loads.compare_load_prefixes_eps ~from:(Int.min !lo !best_lo)
              ~len:d !bv !tv
      in
      if c < 0 then Some nbr.(!best_k) else None
    end
    else None
  end

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

  (** The live link rate — reads the working copy that {!set_rate}
      mutates, not the instance [create] was given. *)
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
    let scr = t.scr in
    decide_flat t.p t.tr scr ~nbr:scr.nbr ~d ~rates:scr.nrate ~sigs:scr.nsig
      ~current:t.assoc.(u) ~objective:t.objective u

  let apply_move t ~user ~ap =
    let old_ap = t.assoc.(user) in
    if old_ap <> Association.none then mark_watchers t old_ap;
    mark_watchers t ap (* includes [user]: it re-checks next round *);
    Loads.Tracker.move t.tr ~user ~ap

  (** {2 Membership and topology deltas}

      Each returns what actually happened so the caller can trace it;
      no-op deltas (arriving twice, failing a dead AP) change nothing. *)

  let arrive t ~user =
    Wlan_obs.Counters.incr c_deltas;
    if t.present.(user) then false
    else begin
      t.present.(user) <- true;
      mark t user;
      true
    end

  let depart t ~user =
    Wlan_obs.Counters.incr c_deltas;
    if not t.present.(user) then `Absent
    else begin
      t.present.(user) <- false;
      clear t user;
      let ap = t.assoc.(user) in
      if ap = Association.none then `Unserved
      else begin
        Loads.Tracker.unserve t.tr ~user;
        mark_watchers t ap;
        `Served ap
      end
    end

  let fail_ap t ~ap =
    Wlan_obs.Counters.incr c_deltas;
    if not t.alive.(ap) then `Dead
    else begin
      t.alive.(ap) <- false;
      (* every member is in range of [ap] (the tracker rejects zero-rate
         members), so the in-range member list, ascending, holds them *)
      let detached = ref [] in
      Sparse.iter_member_users t.p.Problem.links ap (fun u ->
          if t.assoc.(u) = ap then begin
            Loads.Tracker.unserve t.tr ~user:u;
            detached := u :: !detached
          end);
      mark_watchers t ap (* the detached members are watchers too *);
      `Failed (List.rev !detached)
    end

  let recover_ap t ~ap =
    Wlan_obs.Counters.incr c_deltas;
    if t.alive.(ap) then false
    else begin
      t.alive.(ap) <- true;
      mark_watchers t ap;
      true
    end

  (** [set_rate t ~user ~ap rate] installs a new link rate (negative is
      clamped to [0.] = out of range). If [user] was being served over
      that link it is detached first and — when the link survives —
      reattached at the new rate, so the tracker multisets never hold a
      stale value; a link pushed to [0.] forcibly unserves the user
      ([`Detached], a session interruption). *)
  let set_rate t ~user ~ap rate =
    (* [rate < 0.] is false for nan, so clamping alone would let a nan
       rate through to the load division — reject it explicitly *)
    if Float.is_nan rate then
      invalid_arg "Online.set_rate: rate must not be nan";
    Wlan_obs.Counters.incr c_deltas;
    let rate = if rate < 0. then 0. else rate in
    let old = Problem.link_rate t.p ~ap ~user in
    if Float.equal old rate then `Unchanged
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
          `Changed
        end
        else begin
          mark_watchers t ap;
          mark t user (* no longer a member of [ap] *);
          `Detached
        end
      else begin
        (* no load changed — only this user's own options did *)
        mark t user;
        `Changed
      end
    end

  (** [drift t ~user ~tiers ~steps] moves each in-range link of [user]
      [steps] positions along the [tiers] ladder
      ({!Churn_script.drifted_rate}): one {!set_rate} per live candidate
      slot, ascending AP order. [`Drifted n] when some rate changed, [n]
      counting the serving links lost (session interruptions). *)
  let drift t ~user ~tiers ~steps =
    let changed = ref false and interrupted = ref 0 in
    Problem.iter_candidates t.p user (fun ap r _ ->
        match set_rate t ~user ~ap (Churn_script.drifted_rate ~tiers r steps) with
        | `Unchanged -> ()
        | `Changed -> changed := true
        | `Detached ->
            changed := true;
            incr interrupted);
    if !changed then `Drifted !interrupted else `Unchanged

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

(** {1 The paper's three distributed algorithms} *)

let mnu ?init ?max_rounds ?(scheduler = Sequential) p =
  let o = run ?init ?max_rounds ~scheduler ~objective:Min_total_load p in
  (Solution.make ~algorithm:"MNU-distributed" p o.assoc, o)

(** Distributed MLA is the same local rule as distributed MNU (§6.2). *)
let mla ?init ?max_rounds ?(scheduler = Sequential) p =
  let o = run ?init ?max_rounds ~scheduler ~objective:Min_total_load p in
  (Solution.make ~algorithm:"MLA-distributed" p o.assoc, o)

let bla ?init ?max_rounds ?(scheduler = Sequential) p =
  let o = run ?init ?max_rounds ~scheduler ~objective:Min_load_vector p in
  (Solution.make ~algorithm:"BLA-distributed" p o.assoc, o)
