type r = {
  shipped : int;
  own_only : int;
  by_pattern : int;
  tested : int;
  unread : int;
  allowed : int;
}

type k = { overridden : int; kept : int }
type b = { answer : int; copied : int; proved : bool }

module Sub = struct
  type s = { deep : int }
end

type p = { hidden : int }

let own r = r.own_only
let finish b = { b with proved = true }
