(** The distributed association protocol at message level (§4.2/§5.2).

    Users periodically query their neighbor APs; each AP responds with the
    transmission rate of every session it sends, its resulting load, its
    budget and — for its own associated user — the load it would have if
    that user left. From those responses alone (no global state) a user
    computes every neighbor's hypothetical load if it joined, and decides
    by the abstract engine's own local rule
    ([Mcast_core.Distributed.choose]): the rule is shared, not
    re-implemented, so only the inputs here are message-level.

    An AP's answer is read off the run's {!Loads.Tracker}, and the join
    load is {!Loads.join_load}: every load here is Definition 1's one row
    sum, so the protocol's fixpoint can be asserted equal to the abstract
    [Mcast_core.Distributed] one in the integration tests. *)

open Wlan_model

(** {1 Query responses} *)

type response = {
  from_ap : int;
  tx : float array;
  load : float;
  budget : float;
  load_without_you : float option;
}

let answer tracker (assoc : Association.t) ~budget ~ap ~user =
  {
    from_ap = ap;
    tx = Loads.Tracker.tx_row tracker ap;
    load = Loads.Tracker.ap_load tracker ap;
    budget;
    load_without_you =
      (if assoc.(user) = ap then
         Some (Loads.Tracker.load_if_leaves tracker ~user ~ap)
       else None);
  }

(** {1 User decisions} *)

(** [decide] — the §4.2/§5.2 local rule ({!Mcast_core.Distributed.choose},
    the one the abstract engine runs), on planes filled from responses
    only. Returns [Some ap] to (re)associate with [ap], [None] to stay.

    Robust to partial information: neighbors whose query response was lost
    are simply not candidates this round and do not enter the neighborhood
    objective — the user re-queries them next period. *)
let decide ~objective ~session_rates ~session ~current
    ~(neighbors : Scanning.neighbor list) ~(responses : response list) =
  (* only neighbors we actually heard back from, in ascending AP index —
     the order the rule folds its candidates and sums its neighborhood
     in (scanning lists them strongest first) *)
  let heard =
    List.filter_map
      (fun (n : Scanning.neighbor) ->
        List.find_opt (fun r -> r.from_ap = n.ap) responses
        |> Option.map (fun r -> (n, r)))
      neighbors
    |> List.sort (fun ((a : Scanning.neighbor), _) (b, _) ->
           Int.compare a.ap b.ap)
    |> Array.of_list
  in
  let serving =
    match current with
    | None -> Some (-1)
    | Some a0 ->
        Array.find_index (fun ((n : Scanning.neighbor), _) -> n.ap = a0) heard
  in
  match serving with
  | None ->
      (* our own AP's answer was lost, so we cannot evaluate leaving it:
         stay put and retry next period *)
      None
  | Some serving ->
      (* hypothetical load of a neighbor with me joined: Definition 1 on
         its advertised rates, my session's lowered to my link rate —
         the row sum the AP's own [load] is, so the value is exact. An
         incremental [load - old + new] is an ulp off, and an ulp at the
         first differing entry of two load vectors turns a strict BLA
         preference into an eps-tie that the signal then breaks. *)
      let join k ((n : Scanning.neighbor), r) =
        if k = serving then r.load
        else Loads.join_load session_rates r.tx ~s:session ~rate:n.link_rate
      in
      let base k (_, r) =
        if k = serving then Option.value r.load_without_you ~default:r.load
        else r.load
      in
      Mcast_core.Distributed.choose ~objective ~serving
        ~aps:(Array.map (fun ((n : Scanning.neighbor), _) -> n.ap) heard)
        ~joins:(Array.mapi join heard) ~base:(Array.mapi base heard)
        ~budgets:(Array.map (fun (_, r) -> r.budget) heard)
        ~signals:(Array.map (fun ((n : Scanning.neighbor), _) -> n.signal) heard)
