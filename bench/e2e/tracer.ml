(* Per-layer tracing from the benchmark's own files: every call into a
   library's public function goes through [call], which — when tracing
   is on — opens a [Wlan_obs.Span] named after the function and adds
   the deltas of every [Wlan_obs.Counters] cell over the call to that
   span. Off, [call] is a plain application, so the untraced run and
   the correctness replays share the traced code path. *)

(* Tracing state; only touched from the main domain. *)
let on = ref false
let counters : Wlan_obs.Counters.t array ref = ref [||]

(* Counter values at the entry of each open span (innermost first) and
   the accumulated deltas per span path. *)
let entry_stack : (string * int array) list ref = ref []
let deltas : (string, int array) Hashtbl.t = Hashtbl.create 64

let path_key parent name = if parent = "" then name else parent ^ "/" ^ name

let start () =
  Wlan_obs.Counters.reset ();
  counters :=
    Array.of_list
      (List.map
         (fun (name, _) -> Wlan_obs.Counters.make name)
         (Wlan_obs.Counters.snapshot ()));
  Hashtbl.reset deltas;
  entry_stack := [];
  Wlan_obs.Span.reset ();
  Wlan_obs.Span.set_clock (Some Common.now_s);
  Wlan_obs.Counters.set_enabled true;
  on := true

let stop () =
  on := false;
  Wlan_obs.Counters.set_enabled false;
  Wlan_obs.Span.set_clock None

let read_counters () = Array.map Wlan_obs.Counters.value !counters

let call name f =
  if not !on then f ()
  else begin
    let parent = match !entry_stack with [] -> "" | (k, _) :: _ -> k in
    let key = path_key parent name in
    entry_stack := (key, read_counters ()) :: !entry_stack;
    Fun.protect
      ~finally:(fun () ->
        match !entry_stack with
        | [] -> ()
        | (_, before) :: rest ->
            entry_stack := rest;
            let acc =
              match Hashtbl.find_opt deltas key with
              | Some a -> a
              | None ->
                  let a = Array.make (Array.length before) 0 in
                  Hashtbl.add deltas key a;
                  a
            in
            Array.iteri
              (fun i c -> acc.(i) <- acc.(i) + Wlan_obs.Counters.value c - before.(i))
              !counters)
      (fun () -> Wlan_obs.Span.with_span name f)
  end

(* ------------------------------------------------------------------ *)
(* Reading the trace                                                   *)
(* ------------------------------------------------------------------ *)

type node = {
  path : string;
  span : Wlan_obs.Span.node;
  self_s : float;
  counter_deltas : (string * int) list;  (** non-zero only *)
  kids : node list;
}

let rec build parent (s : Wlan_obs.Span.node) =
  let path = path_key parent s.name in
  let kids = List.map (build path) s.children in
  let child_s =
    List.fold_left (fun acc k -> acc +. k.span.Wlan_obs.Span.total_s) 0. kids
  in
  let counter_deltas =
    match Hashtbl.find_opt deltas path with
    | None -> []
    | Some a ->
        List.filteri (fun i _ -> a.(i) <> 0)
          (Array.to_list
             (Array.mapi (fun i c -> (Wlan_obs.Counters.name c, a.(i))) !counters))
  in
  { path; span = s; self_s = s.total_s -. child_s; counter_deltas; kids }

let forest () = List.map (build "") (Wlan_obs.Span.tree ())

let rec fold f acc n = List.fold_left (fold f) (f acc n) n.kids

(* Total wall seconds and activations of every span named [name]. *)
let total name =
  List.fold_left
    (fold (fun (s, c) n ->
         if String.equal n.span.name name then
           (s +. n.span.total_s, c + n.span.count)
         else (s, c)))
    (0., 0) (forest ())

(* Whole-run counter deltas, summed over the root spans. *)
let counter_total name =
  List.fold_left
    (fun acc n ->
      acc
      + Option.value ~default:0 (List.assoc_opt name n.counter_deltas))
    0 (forest ())

let rec node_json n =
  let s = n.span in
  Common.Obj
    [
      ("name", Common.Str s.Wlan_obs.Span.name);
      ("count", Common.Int s.count);
      ("total_s", Common.Num s.total_s);
      ("self_s", Common.Num n.self_s);
      ("minor_words", Common.Num s.minor_words);
      ("promoted_words", Common.Num s.promoted_words);
      ( "counters",
        Common.Obj (List.map (fun (k, v) -> (k, Common.Int v)) n.counter_deltas)
      );
      ("children", Common.Arr (List.map node_json n.kids));
    ]

let tree_json () = Common.Arr (List.map node_json (forest ()))
