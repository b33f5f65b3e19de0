type t = int

let own_only x = x + 1
let shipped x = own_only x * 2
let tested x = x - 1
let unread x = x
let via_open = 1
let via_alias = 2
let pp ppf x = Format.fprintf ppf "%d" x
let oracle x = (x + 1) * 2

module Sub = struct
  let deep = 3
end
