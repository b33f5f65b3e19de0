(* field-reachability corpus: one field per reader shape, read from
   ../bin/field_reader.ml and ../test/field_reader.ml. *)

type r = {
  shipped : int;  (* read by bin/ *)
  own_only : int;  (* read only inside field.ml *)
  by_pattern : int;  (* read only through a record pattern *)
  tested : int;  (* read only by test/ *)
  unread : int;  (* built, never read *)
  (* the fixture's escape hatch — lint: allow field-reachability *)
  allowed : int;  (* read only by test/, silenced *)
}

type k = {
  overridden : int;  (* only replaced by [{ k with ... }]: no read *)
  kept : int;  (* copied by [{ k with ... }]: a read *)
}

module Sub : sig
  type s = { deep : int }  (* in a submodule signature, read by test/ *)
end

type p = private { hidden : int }  (* a private record, read by bin/ *)
