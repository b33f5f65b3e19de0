(** Reductions from the association-control problems to covering problems
    (Theorems 1, 3 and 5): for each AP [a], session [s] and candidate
    transmission rate [t], the users of [s] reachable from [a] at link
    rate at least [t] form a subset with cost [rate(s) / t], grouped by
    AP. Only rates that actually occur among an AP's receivers are
    generated (anything else is dominated). *)

open Wlan_model

(** What a covering set means in WLAN terms. *)
(* test/cover_ref.ml's reference replay and the compile-path differentials
   check each set's meaning — lint: allow field-reachability *)
type tx = { ap : int; session : int; tx_rate : float }

(** Build the covering instance. With [filter_over_budget] (used by MNU),
    subsets costing more than the AP budget are dropped — they can never
    appear in a feasible solution, and the MCG analysis assumes every set
    fits its group's budget. *)
val cover_instance :
  ?filter_over_budget:bool -> Problem.t -> tx Optkit.Cover_instance.t

(** [shard_cover ~filter_over_budget p ~aps ~local ~n_local] is the
    covering instance of the sub-problem on the ascending APs [aps] —
    group [g] is AP [aps.(g)], with its budget — over the users [local]
    maps into [0, n_local) ([-1]: outside), built straight from [p]'s
    member planes, with its universe: the local users in range of one
    of [aps]. Equal to {!cover_instance} and {!coverable_users} of the
    reindexed sub-problem (DESIGN.md §4.10). *)
val shard_cover :
  filter_over_budget:bool ->
  Problem.t ->
  aps:int array ->
  local:int array ->
  n_local:int ->
  tx Optkit.Cover_instance.t * Optkit.Bitset.t

(** The ground set the cover should target: users within range of at
    least one AP. *)
val coverable_users : Problem.t -> Optkit.Bitset.t

(** [association_of_sets inst ~universe sets] replays the chosen [sets]
    in order against [universe]: each user goes to the AP (group) of the
    first set covering it — over a {!shard_cover} instance, the shard's
    local AP. *)
val association_of_sets :
  tx Optkit.Cover_instance.t -> universe:Optkit.Bitset.t -> int list -> Association.t

(** [replay_sets inst ~universe ~users ~aps assoc sets] is the same
    replay into a caller's [assoc], through maps from the instance's
    elements to users and its groups to APs: each user still unserved
    in [assoc] goes to the AP of the first of [sets] covering it. With
    identity maps into an empty association it is
    {!association_of_sets}; over a {!shard_cover} instance, [users] and
    [aps] are the shard's, and [assoc] the global association. *)
val replay_sets :
  tx Optkit.Cover_instance.t ->
  universe:Optkit.Bitset.t ->
  users:int array ->
  aps:int array ->
  Association.t ->
  int array ->
  unit
