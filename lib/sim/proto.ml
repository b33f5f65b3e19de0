(** The distributed association protocol at message level (§4.2/§5.2).

    Users periodically query their neighbor APs; each AP responds with the
    multicast sessions it currently transmits, the transmission rates, its
    resulting load, its budget and — for its own associated user — the
    load it would have if that user left. From those responses alone (no
    global state) a user computes every neighbor's hypothetical load if it
    joined, and decides by the abstract engine's own local rule
    ([Mcast_core.Distributed.choose]): the rule is shared, not
    re-implemented, so only the inputs here are message-level.

    APs are tiny state machines keyed by their associated users; user
    decisions are pure functions of the response set, so the protocol's
    outcome can be asserted equal to the abstract [Mcast_core.Distributed]
    fixpoint in the integration tests. *)

(** {1 AP agents} *)

type ap_state = {
  ap_id : int;
  mutable members : (int * int * float) list;
      (** (user, session, link rate) of associated users *)
}

let ap_create ap_id = { ap_id; members = [] }

let ap_join st ~user ~session ~link_rate =
  if not (List.exists (fun (u, _, _) -> u = user) st.members) then
    st.members <- (user, session, link_rate) :: st.members

let ap_leave st ~user =
  st.members <- List.filter (fun (u, _, _) -> u <> user) st.members

(** Transmission rate per session: the minimum link rate among members of
    that session ([] if unserved). *)
let ap_tx_table st =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, s, r) ->
      match Hashtbl.find_opt tbl s with
      | Some r' when r' <= r -> ()
      | _ -> Hashtbl.replace tbl s r)
    st.members;
  tbl

let load_of_table ~session_rates tbl =
  (* sum in session order, not Hashtbl bucket order: float addition is
     not associative, so the merge order must not depend on the table's
     insertion history *)
  let bindings = Hashtbl.fold (fun s tx acc -> (s, tx) :: acc) tbl [] in
  List.fold_left
    (fun acc (s, tx) -> acc +. (session_rates.(s) /. tx))
    0.
    (List.sort compare bindings)

let ap_load st ~session_rates = load_of_table ~session_rates (ap_tx_table st)

let ap_load_without st ~session_rates ~user =
  let st' = { st with members = List.filter (fun (u, _, _) -> u <> user) st.members } in
  ap_load st' ~session_rates

(** {1 Query responses} *)

type response = {
  from_ap : int;
  sessions : (int * float) list;  (** (session, tx rate) currently served *)
  load : float;
  budget : float;  (** the AP's advertised multicast airtime limit *)
  load_without_you : float option;  (** only for the queried user's own AP *)
}

let ap_answer st ~session_rates ~budget ~user =
  let tbl = ap_tx_table st in
  (* sorted by session id: the advertisement must not leak Hashtbl bucket
     order, or two APs with identical members could answer differently *)
  let sessions =
    Hashtbl.fold (fun s tx acc -> (s, tx) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let is_member = List.exists (fun (u, _, _) -> u = user) st.members in
  {
    from_ap = st.ap_id;
    sessions;
    load = load_of_table ~session_rates tbl;
    budget;
    load_without_you =
      (if is_member then Some (ap_load_without st ~session_rates ~user)
       else None);
  }

(** {1 User decisions} *)

(** What a user knows about one neighbor AP: measured during scanning. *)
type neighbor_info = { ap : int; link_rate : float; signal : float }

(** [decide] — the §4.2/§5.2 local rule ({!Mcast_core.Distributed.choose},
    the one the abstract engine runs), on planes filled from responses
    only. Returns [Some ap] to (re)associate with [ap], [None] to stay.

    Robust to partial information: neighbors whose query response was lost
    are simply not candidates this round and do not enter the neighborhood
    objective — the user re-queries them next period. *)
let decide ~objective ~session_rates ~session ~current
    ~(neighbors : neighbor_info list) ~(responses : response list) =
  (* only neighbors we actually heard back from, in ascending AP index —
     the order the rule folds its candidates and sums its neighborhood
     in (scanning lists them strongest first) *)
  let heard =
    List.filter_map
      (fun (n : neighbor_info) ->
        List.find_opt (fun r -> r.from_ap = n.ap) responses
        |> Option.map (fun r -> (n, r)))
      neighbors
    |> List.sort (fun ((a : neighbor_info), _) (b, _) -> Int.compare a.ap b.ap)
    |> Array.of_list
  in
  let serving =
    match current with
    | None -> Some (-1)
    | Some a0 ->
        Array.find_index (fun ((n : neighbor_info), _) -> n.ap = a0) heard
  in
  match serving with
  | None ->
      (* our own AP's answer was lost, so we cannot evaluate leaving it:
         stay put and retry next period *)
      None
  | Some serving ->
      (* hypothetical load of a neighbor with me joined: Definition 1
         re-summed over the advertised sessions, my session's tx lowered
         to my link rate (an existing tx I can decode stays), in session
         order — the float expression the AP sums for its own [load], so
         the value is exact. An incremental [load - old + new] is an ulp
         off, and an ulp at the first differing entry of two load vectors
         turns a strict BLA preference into an eps-tie that the signal
         then breaks. *)
      let join k ((n : neighbor_info), r) =
        if k = serving then r.load
        else
          let tx_s =
            match List.assoc_opt session r.sessions with
            | Some tx when tx <= n.link_rate -> tx
            | _ -> n.link_rate
          in
          (session, tx_s) :: List.remove_assoc session r.sessions
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          |> List.fold_left
               (fun acc (s, tx) -> acc +. (session_rates.(s) /. tx))
               0.
      in
      let base k (_, r) =
        if k = serving then Option.value r.load_without_you ~default:r.load
        else r.load
      in
      Mcast_core.Distributed.choose ~objective ~serving
        ~aps:(Array.map (fun ((n : neighbor_info), _) -> n.ap) heard)
        ~joins:(Array.mapi join heard) ~base:(Array.mapi base heard)
        ~budgets:(Array.map (fun (_, r) -> r.budget) heard)
        ~signals:(Array.map (fun ((n : neighbor_info), _) -> n.signal) heard)
