(** Maximum Coverage with Group Budgets (MCG), cost version — the engine of
    the paper's Centralized MNU (Fig. 3), after Chekuri–Kumar (APPROX'04).

    Sets are partitioned into groups (one group per AP); each group [G_i]
    has a budget [B_i] (the AP's multicast airtime budget). The greedy loop
    picks, among groups whose spent budget is still strictly below their
    limit, the most cost-effective set ([|S ∩ X'| / c(S)]). A selection may
    overshoot its group's budget; the classic repair partitions the
    selections into [H1] (those that kept their group within budget) and
    [H2] (the at-most-one-per-group overshooting selections) and keeps the
    half covering more elements, yielding the 8-approximation of Theorem 2
    (the greedy H is a 4-approximation, and max(H1, H2) ≥ H/2). *)

(* Deterministic event counters (DESIGN.md §4.9). The greedy loop is
   purely sequential, so these totals are trivially scheduling-free. *)
let c_runs = Wlan_obs.Counters.make "mcg.runs"
let c_rounds = Wlan_obs.Counters.make "mcg.rounds"
let c_selections = Wlan_obs.Counters.make "mcg.selections"
let c_candidate_evals = Wlan_obs.Counters.make "mcg.candidate_evals"
let c_heap_pops = Wlan_obs.Counters.make "mcg.heap_pops"
let c_bound_skips = Wlan_obs.Counters.make "mcg.bound_skips"
let c_resumed_picks = Wlan_obs.Counters.make "mcg.resumed_picks"

type result = {
  kept : int list;  (** the returned solution (H1 or H2), in order *)
  raw_order : int list;  (** H before the split, in selection order *)
  covered : Bitset.t;  (** covered by [kept] *)
  group_cost : float array;  (** per-group cost of [kept]; each <= budget *)
}

(* what [sets] cover of [universe] *)
let cover_of inst ~universe sets =
  let { Cover_instance.members; lo; hi; _ } = inst in
  let x' = Bitset.copy universe in
  let cov = Bitset.create (Bitset.capacity universe) in
  List.iter
    (fun j -> ignore (Bitset.move_in ~src:x' ~dst:cov members lo.(j) hi.(j)))
    sets;
  cov

(** {1 The H1/H2 split}

    The repair is a {e global} decision: greedy keeps whichever half
    covers more over the whole instance. A sharded driver runs the greedy
    per interaction component and must therefore re-make that decision
    across shards: {!session_round_split} returns both halves (and their
    weights) of one shard's round so the caller can sum weights globally
    and keep the same half everywhere — exactly what one unsharded run
    would have kept, since per-group spent sequences (which determine the
    overshoot tags) never cross shards. {!session_round} makes its own
    keep decision from the same split. *)

type split = {
  h1 : int list;  (** within-budget selections, in order *)
  h2 : int list;  (** overshooting selections, in order *)
  cov1 : Bitset.t;
  cov2 : Bitset.t;
  w1 : float;  (** weight of [cov1], as {!greedy} would score it *)
  w2 : float;
}

(* [x0] is the round's coverable universe *)
let split_of inst ~weights ~budgets ~x0 ~raw_order =
  let weight_of set =
    match weights with
    | None -> float_of_int (Bitset.cardinal set)
    | Some w -> Bitset.fold (fun e acc -> acc +. w.(e)) set 0.
  in
  let spent = Array.make (Cover_instance.n_groups inst) 0. in
  let tagged =
    List.map
      (fun j ->
        let g = Cover_instance.group inst j in
        spent.(g) <- spent.(g) +. Cover_instance.cost inst j;
        (j, spent.(g) > budgets.(g) +. 1e-12))
      raw_order
  in
  let h1 =
    List.filter_map (fun (j, over) -> if over then None else Some j) tagged
  in
  let h2 =
    List.filter_map (fun (j, over) -> if over then Some j else None) tagged
  in
  let cov1 = cover_of inst ~universe:x0 h1 in
  let cov2 = cover_of inst ~universe:x0 h2 in
  {
    h1;
    h2;
    cov1;
    cov2;
    w1 = weight_of cov1;
    w2 = weight_of cov2;
  }

(** {1 Sessions: the greedy round with cross-round bound persistence}

    Every greedy run is a session round. Candidates come from a flat
    per-group lazy max-heap bank ({!Flat_heap}, DESIGN.md §4.12) whose
    equal priorities put the lower set index first, so validated tops
    never depend on heap layout. Each round validates the group with the
    best stored bound first, then skips every group whose stored bound
    (an upper bound on its best fresh score) cannot beat the best
    validated score: groups untouched by recent winners are never
    re-scored.

    The SCG driver (Fig. 6) re-runs the greedy once per round over a
    monotonically shrinking remaining set. A session exploits that
    monotonicity: a set's last {e exactly}-computed score (against some
    earlier, larger remaining set) is an upper bound on its score against
    any later one, so each round's heap bank is seeded straight from the
    stored bound plane with zero gain evaluations — the top protocol
    revalidates lazily, exactly as it already does for stale
    within-round bounds.

    Two disciplines keep the bounds sound:
    - Scores computed {e during} a round are measured against the round's
      working universe [x'], which shrinks with every raw selection —
      including the half the H1/H2 split then drops. They can
      under-estimate the next round's gains and are never persisted; at
      the next round's start every set the round revalidated is
      re-scored exactly against the new remaining.
    - A set with zero gain against the current remaining is dead forever
      (gains never grow back), so it is dropped from all later rounds.

    Element weights reach a session only through {!greedy}, which runs a
    single round; multi-round sessions are unweighted.

    Every session that is not resumed records its first round
    ({!first_round}); a session at lower budgets {!resume}s from that
    record instead of refreshing and re-deriving its first picks (DESIGN.md §4.5, "Prefix resumption"). *)

type 'a first_round = {
  f_inst : 'a Cover_instance.t;
  f_mode : [ `Soft | `Hard ];
  f_budgets : float array;
  f_x0 : Bitset.t;  (** the round's coverable universe *)
  f_ub : float array;  (** the refresh plane, against [f_x0] *)
  f_alive : bool array;
  f_picks : int array;  (** raw picks, in order *)
  f_witness : float array;  (** running witness at each pick *)
}

type 'a session = {
  s_inst : 'a Cover_instance.t;
  s_mode : [ `Soft | `Hard ];
  s_arena : Arena.t option;
  s_budgets : float array;
  s_weights : float array option;
  s_ub : float array;  (** stored score bound per set (alive sets only) *)
  s_alive : bool array;
  s_touched : int array;
      (** sets the last round revalidated, to re-score *)
  s_scratch : Bitset.t;  (** a weighted gain's set, in ascending order *)
  s_in_touched : bool array;
  mutable s_n_touched : int;
  mutable s_first : bool;
  mutable s_witness : float;  (** see {!session_witness} *)
  mutable s_from : 'a first_round option;  (** set by {!resume} *)
  mutable s_record : 'a first_round option;  (** see {!first_round} *)
}

let make_session ?(mode = `Soft) ?arena ?element_weights inst ~budgets =
  if Array.length budgets <> Cover_instance.n_groups inst then
    invalid_arg "Mcg: budgets length <> number of groups";
  (match element_weights with
  | Some w ->
      if Array.length w <> Cover_instance.n_elements inst then
        invalid_arg "Mcg: element_weights arity";
      Array.iter (fun x -> if x < 0. then invalid_arg "Mcg: negative weight") w
  | None -> ());
  let n = Int.max 1 (Cover_instance.n_sets inst) in
  {
    s_inst = inst;
    s_mode = mode;
    s_arena = arena;
    s_budgets = budgets;
    s_weights = element_weights;
    s_ub = Array.make n 0.;
    s_alive = Array.make n false;
    s_touched = Array.make n 0;
    s_scratch =
      Bitset.create
        (if element_weights = None then 0 else Cover_instance.n_elements inst);
    s_in_touched = Array.make n false;
    s_n_touched = 0;
    s_first = true;
    s_witness = 0.;
    s_from = None;
    s_record = None;
  }

let session ?mode ?arena inst ~budgets = make_session ?mode ?arena inst ~budgets

(** One greedy round against [remaining]: the raw selection order and its
    H1/H2 split. [remaining] must be a subset of every earlier round's —
    the SCG driver's shrinking uncovered set. *)
let round s ~remaining =
  let inst = s.s_inst and budgets = s.s_budgets and mode = s.s_mode in
  (* planes read in place: no boxed float per access (DESIGN.md §4.12) *)
  let { Cover_instance.members; lo; hi; costs; group_of; n_groups; _ } =
    inst
  in
  let n_sets = Array.length costs in
  let x0 = Bitset.inter remaining inst.Cover_instance.coverable in
  (* local event accumulators, flushed to the counter plane once at the
     end: plain int refs keep the greedy inner loop free of even the
     gated atomic load, and the flushed totals are identical *)
  let n_rounds = ref 0
  and n_selections = ref 0
  and n_candidate_evals = ref 0
  and n_heap_pops = ref 0
  and n_bound_skips = ref 0 in
  let x' = Bitset.copy x0 in
  (* float cells: the last gain, and the running witness *)
  let gain = [| 0. |] and run_w = [| 0. |] in
  (* weighted gain of covering [S ∩ u], left in [gain.(0)]; weights
     are summed in ascending element order, through the scratch set *)
  let gain_vs u j =
    incr n_candidate_evals;
    match s.s_weights with
    | None -> gain.(0) <- float_of_int (Bitset.count_in u members lo.(j) hi.(j))
    | Some w ->
        gain.(0) <- 0.;
        Bitset.add_in s.s_scratch members lo.(j) hi.(j);
        Bitset.iter_inter (fun e -> gain.(0) <- gain.(0) +. w.(e)) s.s_scratch u;
        Bitset.remove_in s.s_scratch members lo.(j) hi.(j)
  in
  (* static eligibility: sets over their group's budget can never be
     picked *)
  let admissible j = costs.(j) <= budgets.(group_of.(j)) +. 1e-12 in
  (* refresh: the first round scores every admissible set (a resumed one
     filters the recorded plane instead); later rounds re-score only the
     sets the previous round revalidated, against the new remaining —
     everything else's stored bound is still valid *)
  let first = s.s_first in
  if first then begin
    s.s_first <- false;
    (match s.s_from with
    | Some f when not (Bitset.equal f.f_x0 x0) ->
        invalid_arg "Mcg.resume: another first remaining set"
    | _ -> ());
    for j = 0 to n_sets - 1 do
      if admissible j then
        match s.s_from with
        | Some f ->
            s.s_ub.(j) <- f.f_ub.(j);
            s.s_alive.(j) <- f.f_alive.(j)
        | None ->
            gain_vs x0 j;
            if gain.(0) > 0. then begin
              s.s_ub.(j) <- gain.(0) /. costs.(j);
              s.s_alive.(j) <- true
            end
    done
  end
  else
    for k = 0 to s.s_n_touched - 1 do
      let j = s.s_touched.(k) in
      s.s_in_touched.(j) <- false;
      if s.s_alive.(j) then begin
        gain_vs x0 j;
        if gain.(0) > 0. then s.s_ub.(j) <- gain.(0) /. costs.(j)
        else s.s_alive.(j) <- false
      end
    done;
  s.s_n_touched <- 0;
  let touch j =
    if not s.s_in_touched.(j) then begin
      s.s_in_touched.(j) <- true;
      s.s_touched.(s.s_n_touched) <- j;
      s.s_n_touched <- s.s_n_touched + 1
    end
  in
  let spent = Array.make n_groups 0. in
  let raw = ref [] in
  (* the running witness's value at each raw pick *)
  let picked_w = ref [] in
  let pick j =
    incr n_selections;
    let g = group_of.(j) in
    spent.(g) <- spent.(g) +. costs.(j);
    raw := j :: !raw;
    picked_w := run_w.(0) :: !picked_w;
    Bitset.remove_in x' members lo.(j) hi.(j)
  in
  (* a resumed first round applies the recorded prefix whose witnesses
     clear the smallest budget by 1e-9, as the sweeps would have *)
  (match s.s_from with
  | Some f when first ->
      let b = Array.fold_left Float.min infinity budgets in
      let k = ref 0 in
      while !k < Array.length f.f_picks && f.f_witness.(!k) <= b -. 1e-9 do
        run_w.(0) <- f.f_witness.(!k);
        touch f.f_picks.(!k);
        pick f.f_picks.(!k);
        incr k
      done;
      Wlan_obs.Counters.add c_resumed_picks !k
  | _ -> ());
  (* seed the heap bank from stored bounds — zero gain evaluations — but
     not the resumed picks (touched above; in every other round nothing
     is touched yet). Group capacity = seed count: the sweeps never
     push. *)
  let seeds j = s.s_alive.(j) && not s.s_in_touched.(j) in
  let caps = Array.make n_groups 0 in
  for j = 0 to n_sets - 1 do
    if seeds j then caps.(group_of.(j)) <- caps.(group_of.(j)) + 1
  done;
  let fh =
    Flat_heap.make ?arena:s.s_arena ~slot:"mcg.heap" ~capacities:caps ()
  in
  let { Flat_heap.prio; value; off; size; cell; _ } = fh in
  for j = 0 to n_sets - 1 do
    if seeds j then begin
      cell.(0) <- s.s_ub.(j);
      Flat_heap.push fh group_of.(j) j
    end
  done;
  let revalidate j =
    touch j;
    gain_vs x' j;
    if gain.(0) <= 0. then cell.(0) <- neg_infinity
    else cell.(0) <- gain.(0) /. costs.(j)
  in
  let fits g j =
    match mode with
    | `Soft -> true
    | `Hard -> costs.(j) <= budgets.(g) -. spent.(g) +. 1e-12
  in
  (* validate a group's best candidate in place and return its plane
     index ([-1]: none), its fresh priority left in [cell] and at that
     index; in [`Hard] mode, sets that no longer fit the group's
     remaining budget are dropped for good (remaining budget only
     shrinks) *)
  let rec candidate g =
    let i = Flat_heap.top fh g ~revalidate in
    if i < 0 then -1
    else begin
      incr n_heap_pops;
      let j = value.(i) in
      if fits g j then begin
        let w = costs.(j) +. spent.(g) in
        if w > run_w.(0) then run_w.(0) <- w;
        i
      end
      else begin
        Flat_heap.remove fh g i;
        candidate g
      end
    end
  in
  (* A group whose stored bound is below the best validated score by more
     than this margin is skipped without re-scoring: its best fresh score
     (<= the bound) is then too far below the winner to win the round or
     land in the fold's 1e-12 tie window. 1e-9 dominates that window, so
     skipping never changes the selection. *)
  let skip_margin = 1e-9 in
  let eligible g = spent.(g) < budgets.(g) -. 1e-12 in
  (* per-round candidates as flat planes (at most one entry per group),
     appended in sweep order: each stays in its group's heap, at plane
     index [cand_i] with its fresh priority at [prio.(cand_i)], until the
     pick removes the winner — a group's heap does not change again in
     the sweep once visited *)
  let cand_g, cand_i =
    match s.s_arena with
    | Some a ->
        (Arena.ints a "mcg.cand_g" n_groups, Arena.ints a "mcg.cand_i" n_groups)
    | None ->
        (Array.make (Int.max 1 n_groups) 0, Array.make (Int.max 1 n_groups) 0)
  in
  let n_cand = ref 0 in
  let append g i =
    cand_g.(!n_cand) <- g;
    cand_i.(!n_cand) <- i;
    incr n_cand
  in
  let continue = ref true in
  while !continue && not (Bitset.is_empty x') do
    incr n_rounds;
    n_cand := 0;
    (* the paper's inner for-loop: best candidate of each eligible group,
       validating the best-bound group first so the skip threshold is as
       high as possible before the sweep; a group's stored root bounds
       its best fresh score *)
    let gmax = ref (-1) and bmax = ref neg_infinity in
    for g = 0 to n_groups - 1 do
      if eligible g && size.(g) > 0 && prio.(off.(g)) > !bmax then begin
        gmax := g;
        bmax := prio.(off.(g))
      end
    done;
    let seeded = if !gmax >= 0 then candidate !gmax else -1 in
    let best_prio = ref (if seeded >= 0 then prio.(seeded) else neg_infinity) in
    for g = 0 to n_groups - 1 do
      if eligible g then
        if g = !gmax then begin
          if seeded >= 0 then append g seeded
        end
        else if size.(g) = 0 then ()
        else if prio.(off.(g)) < !best_prio -. skip_margin then
          incr n_bound_skips
        else begin
          let i = candidate g in
          if i >= 0 then begin
            if prio.(i) > !best_prio then best_prio := prio.(i);
            append g i
          end
        end
    done;
    (* near-equal cost-effectiveness breaks toward the least-loaded group,
       which spreads the cover across APs at no loss of greedy quality *)
    let best = ref (-1) in
    for k = !n_cand - 1 downto 0 do
      if !best < 0 then best := k
      else begin
        let p = prio.(cand_i.(k)) and best_p = prio.(cand_i.(!best)) in
        if
          p > best_p +. 1e-12
          || (p >= best_p -. 1e-12
             && spent.(cand_g.(k)) < spent.(cand_g.(!best)) -. 1e-12)
        then best := k
      end
    done;
    if !best < 0 then continue := false
    else begin
      (* only the winner leaves its heap; the losers stay where they are *)
      let g = cand_g.(!best) and i = cand_i.(!best) in
      let j = value.(i) in
      Flat_heap.remove fh g i;
      pick j
    end
  done;
  Wlan_obs.Counters.incr c_runs;
  Wlan_obs.Counters.add c_rounds !n_rounds;
  Wlan_obs.Counters.add c_selections !n_selections;
  Wlan_obs.Counters.add c_candidate_evals !n_candidate_evals;
  Wlan_obs.Counters.add c_heap_pops !n_heap_pops;
  Wlan_obs.Counters.add c_bound_skips !n_bound_skips;
  Array.iter (fun x -> s.s_witness <- Float.max s.s_witness x) spent;
  (* in [`Hard] mode every returned candidate passed its fit check *)
  if mode = `Hard then s.s_witness <- Float.max s.s_witness run_w.(0);
  let raw_order = List.rev !raw in
  if first && Option.is_none s.s_from then
    s.s_record <-
      Some
        {
          f_inst = inst;
          f_mode = mode;
          f_budgets = Array.copy budgets;
          f_x0 = x0;
          f_ub = Array.copy s.s_ub;
          f_alive = Array.copy s.s_alive;
          f_picks = Array.of_list raw_order;
          f_witness = Array.of_list (List.rev !picked_w);
        };
  (split_of inst ~weights:s.s_weights ~budgets ~x0 ~raw_order, raw_order)

let session_round_split s ~remaining =
  let sp, _ = round s ~remaining in
  sp

(** A round reads its budgets only in [admissible], [eligible], the
    [`Hard] [fits] check and the split's overshoot tag; the witness
    bounds every value those reads compared (see the interface). *)
let session_witness s = s.s_witness

let first_round s = s.s_record
let witnesses f = Array.copy f.f_witness

let resume s f =
  if not s.s_first then invalid_arg "Mcg.resume: the session has started";
  if s.s_inst != f.f_inst || s.s_mode <> f.f_mode then
    invalid_arg "Mcg.resume: another instance or mode";
  if Array.exists2 (fun b b' -> b > b') s.s_budgets f.f_budgets then
    invalid_arg "Mcg.resume: a larger budget";
  s.s_from <- Some f

let kept_group_cost inst kept =
  let group_cost = Array.make (Cover_instance.n_groups inst) 0. in
  List.iter
    (fun j ->
      let g = Cover_instance.group inst j in
      group_cost.(g) <- group_cost.(g) +. Cover_instance.cost inst j)
    kept;
  group_cost

(** One round, keeping the half that covers more. *)
let session_round s ~remaining =
  let sp, raw_order = round s ~remaining in
  let kept, covered =
    if sp.w1 >= sp.w2 then (sp.h1, sp.cov1) else (sp.h2, sp.cov2)
  in
  {
    kept;
    raw_order;
    covered;
    group_cost = kept_group_cost s.s_inst kept;
  }

(** [greedy inst ~budgets ?universe ()] runs budgeted greedy + split: the
    first round of a fresh session. Only elements of [universe] (default:
    everything coverable) count as coverage. *)
let greedy ?element_weights inst ~budgets ?universe () =
  let remaining =
    match universe with
    | Some u -> u
    | None -> inst.Cover_instance.coverable
  in
  session_round
    (make_session ?element_weights inst ~budgets)
    ~remaining

(** Number of elements the solution covers. *)
let coverage r = Bitset.cardinal r.covered

(** Check the budget constraint of a result. *)
let within_budgets r ~budgets =
  Array.for_all2 (fun c b -> c <= b +. 1e-9) r.group_cost budgets
