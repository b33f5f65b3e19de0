(** [Churn_script] → serve-event adapter: expand a declarative churn
    script into the [wlan-mcast-ev 1] inputs a client would send.

    Each event becomes the deltas the churn engine applies for it
    ({!Mcast_core.Distributed.Online.deltas_of_event}), each framed as
    one [at <t> ...] input: a [Burst {users}] is one [arrive] per user
    at the same timestamp, so the whole burst lands in one atomic
    settle batch, and [drift] carries the tier-step count the daemon
    moves along the same ladder as the simulator.

    {!Wlan_model.Churn_script.t} exposes its event list concretely, so a
    caller can hand the adapter a list that bypassed
    [Churn_script.make]'s sorting. The adapter {e refuses} such input:
    timestamps must be nondecreasing, and a violation is reported as a
    typed {!error} — never silently reordered, because the serve
    protocol's batch semantics (and the replay log's byte identity)
    depend on event order being the order on the wire. *)

type error =
  | Non_monotone of { index : int; prev : float; time : float }
      (** event [index] (0-based) has [time < prev] *)

val error_message : error -> string

(** Expand a raw timed-event list, preserving order. *)
val inputs_of_events :
  Wlan_model.Churn_script.timed list ->
  (Protocol.input list, error) result

(** The full framed session a client would send: [hello], the script's
    events, then [flush], [snapshot], [bye]. *)
val frames_of_script :
  Wlan_model.Churn_script.t -> (string, error) result
