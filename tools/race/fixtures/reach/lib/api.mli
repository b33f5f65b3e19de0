(* export-reachability corpus: one export per reader shape. *)

type t = int

val shipped : t -> t
(** Read by [bin/] directly: a shipped reader. *)

val tested : t -> t
(** Read only by [test/]: flagged as test-only. *)

val unread : t -> t
(** Read by nobody: flagged as unread. *)

val own_only : t -> t
(** Read only by [shipped], inside this unit: still unread outside. *)

val via_open : t
(** Read through a local open in [bin/]. *)

val via_alias : t
(** Read through [module P = Reach_lib.Api] in [bin/]. *)

val pp : Format.formatter -> t -> unit
(** Read as a [%a] printer argument in [bin/]. *)

(* the oracle the test compares [shipped] against:
   lint: allow export-reachability *)
val oracle : t -> t

module Sub : sig
  val deep : t
  (** Read as [Reach_lib.Api.Sub.deep] from [test/]: test-only. *)
end
