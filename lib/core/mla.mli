(** Centralized MLA — Minimize the total Load of APs (§6.1): weighted Set
    Cover via Theorem 5. *)

(** The greedy [CostSC] algorithm: a [(ln n + 1)]-approximation
    (Theorem 6). Serves every coverable user. *)
val run : Wlan_model.Problem.t -> Solution.t

(** The layering alternative the paper mentions: an f-approximation where
    [f] is the most (AP, session, rate) subsets any one user appears in. *)
val run_layered : Wlan_model.Problem.t -> Solution.t

(** LP-relaxation rounding, also an f-approximation; dense LP, so use on
    small/medium instances. [None] only if the LP solver fails. *)
val run_lp_rounding : Wlan_model.Problem.t -> Solution.t option

(** Explicit interference modeling (the paper's §8 future work): subset
    costs are inflated by [1 + lambda * d(a)] where [d(a)] is AP [a]'s
    co-channel conflict degree under [channels], steering the cover away
    from interference-dense APs. [lambda = 0] recovers {!run}; the
    returned metrics are plain Definition-1 loads.
    @raise Invalid_argument on negative [lambda]. *)
val run_interference_aware :
  channels:Wlan_model.Channels.assignment ->
  ?lambda:float ->
  Wlan_model.Problem.t ->
  Solution.t
