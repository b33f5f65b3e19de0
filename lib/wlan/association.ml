(** User-to-AP association state.

    An association maps every user to the AP it receives its multicast
    session from, or to nothing if the user is unserved. Represented densely
    as an int array indexed by user, with [none] (-1) for unserved users. *)

type t = int array

let none = -1

(** Fresh association with every user unserved. *)
let empty ~n_users : t = Array.make n_users none

let copy : t -> t = Array.copy

let ap_of (t : t) u = if t.(u) = none then None else Some t.(u)
let is_served (t : t) u = t.(u) <> none
let serve (t : t) ~user ~ap = t.(user) <- ap

(** Number of users currently served. *)
let served_count (t : t) =
  Array.fold_left (fun n a -> if a <> none then n + 1 else n) 0 t

let equal (a : t) (b : t) = a = b

(** Every served user must be in range of its AP. *)
let in_range_ok p (t : t) =
  let ok = ref true in
  Array.iteri
    (fun u a -> if a <> none && not (Problem.in_range p ~ap:a ~user:u) then ok := false)
    t;
  !ok

let pp ppf (t : t) =
  let pairs =
    Array.to_list (Array.mapi (fun u a -> (u, a)) t)
    |> List.filter (fun (_, a) -> a <> none)
  in
  Fmt.pf ppf "@[<h>%a@]"
    Fmt.(list ~sep:sp (fun ppf (u, a) -> pf ppf "u%d->a%d" u a))
    pairs
