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
let c_stay_memo_hits = Wlan_obs.Counters.make "distributed.stay_memo_hits"

type outcome = {
  assoc : Association.t;
  rounds : int;  (** decision rounds executed *)
  moves : int;  (** total (re)associations applied *)
  converged : bool;  (** a full round made no move *)
  oscillated : bool;  (** a previously seen state recurred (Simultaneous) *)
}


let vec_lt a b = Loads.compare_load_vectors_eps a b < 0
let vec_approx_equal a b =
  Array.length a = Array.length b && Loads.compare_load_vectors_eps a b = 0

(* The local decision rule, abstracted over how hypothetical and current
   loads are obtained. [if_joins]/[if_leaves] answer "what would AP [ap]'s
   load be if [user] joined / left"; [load] is the current load of an
   unaffected AP. Both the eager array-scanning queries and the
   incremental {!Loads.Tracker} queries compute bit-identical floats, so
   the decision is the same under either backend. *)
let decide_with p ~neighbors ~current ~if_joins ~if_leaves ~load ~objective u =
  Wlan_obs.Counters.incr c_decisions;
  match neighbors with
  | [] -> None
  | _ ->
      let old_ap = current in
      (* Hypothetical load of neighbor [b] if [u] moves to [new_ap]. *)
      let hypothetical new_ap b =
        if b = new_ap then if_joins ~user:u ~ap:b
        else if b = old_ap then if_leaves ~user:u ~ap:b
        else load b
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
        a = current
        || if_joins ~user:u ~ap:a <= Problem.ap_budget p a +. 1e-12
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

(** The local decision of user [u]: [Some ap] when [u] should (re)associate
    with [ap], [None] to stay put. [loads] must be the current AP loads. *)
let decide p assoc ~loads ~objective u =
  decide_with p ~neighbors:(Problem.neighbor_aps p u) ~current:assoc.(u)
    ~if_joins:(fun ~user ~ap -> Loads.load_if_joins p assoc ~user ~ap)
    ~if_leaves:(fun ~user ~ap -> Loads.load_if_leaves p assoc ~user ~ap)
    ~load:(fun b -> loads.(b))
    ~objective u

(** {2 Flat decision kernel (DESIGN.md §4.12)}

    The boxed rule above ({!decide}) allocates per decision: a filtered
    candidate list, a scored assoc list, and — under [Min_load_vector] —
    a fresh sorted array per candidate. The flat kernel every scheduler
    and [Online] runs computes the {e same} decision into preallocated
    scratch planes:

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

    Scratch lives in an {!Optkit.Arena}: one allocation per run (or per
    [Online] network), reused across every decision and settle. *)

type scratch = {
  arena : Optkit.Arena.t;
  mutable cap : int;  (* all planes hold at least [cap] entries *)
  mutable nbr : int array;  (* live neighborhood (Online fills these) *)
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
    scratch_ensure scr d;
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

let run ?init ?(max_rounds = 200) ~scheduler ~objective p =
  Wlan_obs.Counters.incr c_runs;
  let n_aps, n_users = Problem.dims p in
  let assoc =
    match init with
    | Some a -> Association.copy a
    | None -> Association.empty ~n_users
  in
  let tr = Loads.Tracker.create p assoc in
  (* per-user neighborhood planes — AP, link rate and signal side by
     side, read once off the candidate slots (the topology is static for
     the whole run, so the cached rates and signals are exactly what the
     live queries return) — plus scratch sized to the maximum degree *)
  let links = p.Problem.links in
  let max_d = ref 1 in
  for u = 0 to n_users - 1 do
    max_d := Int.max !max_d (Sparse.degree links u)
  done;
  let scr = make_scratch () in
  scratch_ensure scr !max_d;
  let all_alive = Array.make n_aps true in
  let nbr = Array.make n_users [||] in
  let nrate = Array.make n_users [||] in
  let nsig = Array.make n_users [||] in
  for u = 0 to n_users - 1 do
    let d =
      Sparse.fill_candidates links u ~ap_alive:all_alive ~aps:scr.nbr
        ~rates:scr.nrate ~sigs:scr.nsig
    in
    nbr.(u) <- Array.sub scr.nbr 0 d;
    nrate.(u) <- Array.sub scr.nrate 0 d;
    nsig.(u) <- Array.sub scr.nsig 0 d
  done;
  (* Decision memoisation. A user's decision is a pure function of its own
     association and the tracker state of its neighbor APs (loads and tx
     rows), and that state only changes when some user moves into or out
     of the AP. We version every AP, bump the versions of the APs a move
     touches, and remember the neighborhood version sum at which a user
     last decided to stay: versions only grow, so an equal sum means no
     neighbor AP changed and the cached "stay" is still the decision the
     full evaluation would return. Skipped stays have no side effects in
     any scheduler, so the move sequence — and every float — is identical
     to the unmemoised loop. *)
  let version = Array.make n_aps 0 in
  let stay_stamp = Array.make n_users (-1) in
  let stamp u = Array.fold_left (fun acc a -> acc + version.(a)) 0 nbr.(u) in
  let apply ~user ~ap =
    let old_ap = assoc.(user) in
    if old_ap <> Association.none then
      version.(old_ap) <- version.(old_ap) + 1;
    version.(ap) <- version.(ap) + 1;
    Loads.Tracker.move tr ~user ~ap
  in
  (* [Some d] when the decision must be (re)computed — [d] is it, and a
     stay is recorded under [s]; [None] for a memoised stay. *)
  let decide_memo u =
    let s = stamp u in
    if stay_stamp.(u) = s then begin
      Wlan_obs.Counters.incr c_stay_memo_hits;
      None
    end
    else begin
      let d =
        decide_flat p tr scr ~nbr:nbr.(u) ~d:(Array.length nbr.(u))
          ~rates:nrate.(u) ~sigs:nsig.(u) ~current:assoc.(u) ~objective u
      in
      if d = None then stay_stamp.(u) <- s;
      Some d
    end
  in
  let moves = ref 0 in
  let rounds = ref 0 in
  let converged = ref false in
  let oscillated = ref false in
  (match scheduler with
  | Sequential ->
      while (not !converged) && !rounds < max_rounds do
        incr rounds;
        let moved = ref false in
        for u = 0 to n_users - 1 do
          match decide_memo u with
          | None | Some None -> ()
          | Some (Some ap) ->
              apply ~user:u ~ap;
              incr moves;
              moved := true
        done;
        if not !moved then converged := true
      done
  | Simultaneous ->
      let seen = Hashtbl.create 64 in
      Hashtbl.replace seen (Array.to_list assoc) ();
      while (not !converged) && (not !oscillated) && !rounds < max_rounds do
        incr rounds;
        (* all decisions read the same snapshot: take them before any is
           applied (the version stamps are untouched until then, so the
           memo is consistent with the snapshot) *)
        let decisions =
          List.init n_users (fun u -> (u, decide_memo u))
          |> List.filter_map (fun (u, d) ->
                 match d with Some (Some ap) -> Some (u, ap) | _ -> None)
        in
        if decisions = [] then converged := true
        else begin
          (* applying them through the tracker one by one ends in the same
             state (and the same cached-load floats) as a full recompute *)
          List.iter (fun (u, ap) -> apply ~user:u ~ap) decisions;
          moves := !moves + List.length decisions;
          let key = Array.to_list assoc in
          if Hashtbl.mem seen key then oscillated := true
          else Hashtbl.replace seen key ()
        end
      done
  | Locked ->
      (* Locks held by users that committed a move stay held until the end
         of the round (their neighborhoods must not be re-read by peers);
         users that decide to stay release immediately — which is also why
         a memoised stay (no locks ever taken) is indistinguishable from
         the full lock-decide-release cycle it replaces. The scan origin
         rotates every round so no user starves behind a habitual locker. *)
      while (not !converged) && !rounds < max_rounds do
        let locked = Array.make n_aps false in
        let moved = ref false in
        let offset = if n_users = 0 then 0 else !rounds mod n_users in
        incr rounds;
        for i = 0 to n_users - 1 do
          let u = (i + offset) mod n_users in
          let ns = nbr.(u) in
          if Array.length ns > 0 && stay_stamp.(u) <> stamp u
             && Array.for_all (fun a -> not locked.(a)) ns
          then begin
            (* acquire locks, decide on live state *)
            Array.iter (fun a -> locked.(a) <- true) ns;
            match decide_memo u with
            | None | Some None ->
                Array.iter (fun a -> locked.(a) <- false) ns
            | Some (Some ap) ->
                apply ~user:u ~ap;
                incr moves;
                moved := true
          end
        done;
        if not !moved then converged := true
      done);
  Wlan_obs.Counters.add c_rounds !rounds;
  Wlan_obs.Counters.add c_moves !moves;
  Log.debug (fun m ->
      m "finished: rounds %d, moves %d, converged %b, oscillated %b" !rounds
        !moves !converged !oscillated);
  { assoc; rounds = !rounds; moves = !moves; converged = !converged;
    oscillated = !oscillated }

(** {1 Online re-association under churn}

    [Online] keeps a running network alive across membership and topology
    deltas. Where {!run} solves one frozen instance to quiescence, an
    [Online.t] absorbs events — users arriving and departing, APs failing
    and recovering, link rates drifting — and re-converges {e
    incrementally}: each delta marks only the users whose decision inputs
    it touched (a dirty set; an AP's watchers are its in-range members,
    read straight off the working link structure),
    and {!settle} re-runs the local rule for exactly those users, letting
    dirtiness propagate move by move. No from-scratch solve ever happens.

    {b Equivalence.} The dirty set is the same staleness relation the
    version-stamp memo in {!run} tracks: a user is dirty iff some AP in
    its base neighborhood changed since the user last decided. Skipped
    users would decide "stay" with no side effect, so a [settle] from an
    all-dirty start executes the {e identical} move sequence — and, via
    the {!Loads.Tracker} bit-exactness contract, the identical floats —
    as [run ~scheduler:Sequential] on the effective static instance (dead
    AP rows and absent user columns zeroed, see {!effective_problem}).
    At quiescence the association is therefore a Nash point of the local
    rule on the final static topology. The differential and oracle suites
    in [test_churn.ml] pin both facts.

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
        (* working copy: the rate plane is owned and mutated on drift;
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

  let create ?init ?present ~objective p =
    let n_aps, n_users = Problem.dims p in
    let p = Problem.copy_for_mutation p in
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
    let tr = Loads.Tracker.create p assoc in
    let t =
      {
        p;
        objective;
        assoc;
        tr;
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
     neighborhood. The live slots of [u] at alive APs, in ascending
     order, fill the neighborhood planes, so the rule sees exactly the
     candidates of [u] on [effective_problem]. *)
  let decide_online t u =
    let scr = t.scr in
    let d =
      Sparse.fill_candidates t.p.Problem.links u ~ap_alive:t.alive
        ~aps:scr.nbr ~rates:scr.nrate ~sigs:scr.nsig
    in
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

  (** [settle t] drains the dirty set: each round re-runs the local rule
      for the users marked dirty at the round's start (ascending index),
      letting moves mark further users, until no user is dirty.
      [`Sequential] applies each move immediately and always converges on
      a static network; [`Simultaneous] decides the whole round on one
      snapshot and can oscillate (Fig. 4) — revisited states are detected
      and reported. Already-quiescent states return in O(1) with
      [rounds = 0]. *)
  let settle ?(max_rounds = 200) ?(mode = `Sequential) t =
    Wlan_obs.Counters.incr c_settles;
    let n_users = Array.length t.assoc in
    let before = Association.copy t.assoc in
    let rounds = ref 0 and moves = ref 0 in
    let converged = ref false and oscillated = ref false in
    (match mode with
    | `Sequential ->
        while (not !converged) && !rounds < max_rounds do
          if t.n_dirty = 0 then converged := true
          else begin
            incr rounds;
            Wlan_obs.Counters.add c_dirty_scanned t.n_dirty;
            Wlan_obs.Counters.record_max c_dirty_peak t.n_dirty;
            for u = 0 to n_users - 1 do
              if t.dirty.(u) then begin
                clear t u;
                match decide_online t u with
                | None -> ()
                | Some ap ->
                    apply_move t ~user:u ~ap;
                    incr moves
              end
            done
          end
        done
    | `Simultaneous ->
        let seen = Hashtbl.create 64 in
        Hashtbl.replace seen (Array.to_list t.assoc) ();
        while
          (not !converged) && (not !oscillated) && !rounds < max_rounds
        do
          if t.n_dirty = 0 then converged := true
          else begin
            incr rounds;
            Wlan_obs.Counters.add c_dirty_scanned t.n_dirty;
            Wlan_obs.Counters.record_max c_dirty_peak t.n_dirty;
            (* decide the whole round on one snapshot, then apply *)
            let decisions = ref [] in
            for u = n_users - 1 downto 0 do
              if t.dirty.(u) then begin
                clear t u;
                match decide_online t u with
                | None -> ()
                | Some ap -> decisions := (u, ap) :: !decisions
              end
            done;
            match !decisions with
            | [] -> ()
            | ds ->
                List.iter (fun (u, ap) -> apply_move t ~user:u ~ap) ds;
                moves := !moves + List.length ds;
                let key = Array.to_list t.assoc in
                if Hashtbl.mem seen key then oscillated := true
                else Hashtbl.replace seen key ()
          end
        done);
    Wlan_obs.Counters.add c_settle_rounds !rounds;
    Wlan_obs.Counters.add c_settle_moves !moves;
    let changed = ref [] in
    for u = n_users - 1 downto 0 do
      if t.assoc.(u) <> before.(u) then
        changed := (u, before.(u), t.assoc.(u)) :: !changed
    done;
    {
      rounds = !rounds;
      moves = !moves;
      reassociated = List.length !changed;
      changed = !changed;
      converged = !converged;
      oscillated = !oscillated;
    }

  (** The static instance the network currently embodies: the working
      link structure with dead-AP and absent-user links zeroed. A fresh
      {!run} on it is the "what a from-scratch solve would have done"
      baseline the disruption metrics compare against, and the
      quiescence oracle's ground truth. *)
  let effective_problem t =
    Problem.masked t.p ~ap_alive:t.alive ~user_present:t.present
end

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
