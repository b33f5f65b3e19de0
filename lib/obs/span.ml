(** Wall-clock span plane. Main-domain only, clock injected by the
    binary, never feeds deterministic outputs — see span.mli. *)

type clock = unit -> float

(* Only read/written on the main domain (set_clock from the binary's
   startup, with_span guarded by Domain.is_main_domain). *)
let the_clock : clock option ref = ref None

let set_clock c = the_clock := c

(* Mutable accumulation tree; frozen into the public node type by
   [tree]. Children are kept newest-first and reversed on freeze. *)
type mnode = {
  m_name : string;
  mutable m_count : int;
  mutable m_total_s : float;
  mutable m_minor_w : float;
  mutable m_promoted_w : float;
  mutable m_children : mnode list;
}

let fresh name =
  {
    m_name = name;
    m_count = 0;
    m_total_s = 0.;
    m_minor_w = 0.;
    m_promoted_w = 0.;
    m_children = [];
  }

let root = fresh "<root>"

(* Stack of open spans with their start marks (time, minor words,
   promoted words); innermost first. *)
let stack : (mnode * float * float * float) list ref = ref []

let reset () =
  root.m_count <- 0;
  root.m_total_s <- 0.;
  root.m_minor_w <- 0.;
  root.m_promoted_w <- 0.;
  root.m_children <- [];
  stack := []

let child_named parent name =
  match List.find_opt (fun n -> String.equal n.m_name name) parent.m_children
  with
  | Some n -> n
  | None ->
      let n = fresh name in
      parent.m_children <- n :: parent.m_children;
      n

let enter now name =
  let parent = match !stack with [] -> root | (n, _, _, _) :: _ -> n in
  let node = child_named parent name in
  let g = Gc.quick_stat () in
  stack := (node, now (), g.Gc.minor_words, g.Gc.promoted_words) :: !stack

let leave now =
  match !stack with
  | [] -> ()
  | (node, t0, mw0, pw0) :: rest ->
      node.m_count <- node.m_count + 1;
      node.m_total_s <- node.m_total_s +. (now () -. t0);
      let g = Gc.quick_stat () in
      node.m_minor_w <- node.m_minor_w +. (g.Gc.minor_words -. mw0);
      node.m_promoted_w <- node.m_promoted_w +. (g.Gc.promoted_words -. pw0);
      stack := rest

let with_span name f =
  if not (Domain.is_main_domain ()) then f ()
  else
    match !the_clock with
    | None -> f ()
    | Some now ->
        enter now name;
        Fun.protect ~finally:(fun () -> leave now) f

type node = {
  name : string;
  count : int;
  total_s : float;
  minor_words : float;
  promoted_words : float;
  children : node list;
}

let rec freeze m =
  {
    name = m.m_name;
    count = m.m_count;
    total_s = m.m_total_s;
    minor_words = m.m_minor_w;
    promoted_words = m.m_promoted_w;
    (* m_children is newest-first; rev_map restores open order *)
    children = List.rev_map freeze m.m_children;
  }

let tree () = (freeze root).children

let pp_tree ppf nodes =
  let rec width indent n =
    List.fold_left
      (fun acc c -> Int.max acc (width (indent + 2) c))
      (indent + String.length n.name)
      n.children
  in
  let w =
    List.fold_left (fun acc n -> Int.max acc (width 0 n)) 0 nodes
  in
  let rec pp indent n =
    Fmt.pf ppf "%s%-*s %8d %12.3f ms %10.2f Mw minor %8.2f Mw promoted@."
      (String.make indent ' ')
      (w - indent) n.name n.count (n.total_s *. 1e3)
      (n.minor_words /. 1e6) (n.promoted_words /. 1e6);
    List.iter (pp (indent + 2)) n.children
  in
  List.iter (pp 0) nodes
