(** Parsing and rendering of the [wlan-mcast-evlog 1] format (see the
    interface for the semantics). *)

open Mcast_core

let version = 1
let magic = "wlan-mcast-evlog"

type header = {
  objective : Distributed.objective;
  obj_label : string;
  mode : [ `Sequential | `Simultaneous ];
  max_rounds : int;
  queue_limit : int;
  tiers : float list;
  scenario_digest : string option;
}

let objective_of_label l =
  match List.assoc_opt l Distributed.objective_labels with
  | Some o -> o
  | None -> invalid_arg (Printf.sprintf "Replay_log: unknown objective %S" l)

let mode_name = function
  | `Sequential -> "sequential"
  | `Simultaneous -> "simultaneous"

let render_header h =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" magic version);
  Buffer.add_string buf (Printf.sprintf "objective %s\n" h.obj_label);
  Buffer.add_string buf (Printf.sprintf "mode %s\n" (mode_name h.mode));
  Buffer.add_string buf (Printf.sprintf "max-rounds %d\n" h.max_rounds);
  Buffer.add_string buf (Printf.sprintf "queue-limit %d\n" h.queue_limit);
  Buffer.add_string buf
    (Printf.sprintf "tiers %s\n"
       (String.concat " " (List.map (Printf.sprintf "%.17g") h.tiers)));
  (match h.scenario_digest with
  | Some d -> Buffer.add_string buf (Printf.sprintf "scenario %s\n" d)
  | None -> ());
  Buffer.contents buf

type entry = Ev of string | Out of string

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Complete (newline-terminated) lines only: a trailing partial line is
   a torn write from a crash and is dropped, not parsed. *)
let complete_lines s =
  let rec go acc start =
    match String.index_from_opt s start '\n' with
    | None -> List.rev acc
    | Some i -> go (String.sub s start (i - start) :: acc) (i + 1)
  in
  go [] 0

let parse_int what s =
  match int_of_string_opt s with
  | Some v when v > 0 -> v
  | _ -> fail "bad %s %S" what s

let parse s =
  match complete_lines s with
  | [] -> fail "empty log"
  | first :: rest ->
      (match String.split_on_char ' ' first with
      | [ m; v ] when m = magic ->
          if int_of_string_opt v <> Some version then
            fail "unsupported %s version %S" magic v
      | _ -> fail "not a %s log: %S" magic first);
      let obj_label = ref "" in
      let mode = ref `Sequential in
      let max_rounds = ref 0 in
      let queue_limit = ref 0 in
      let tiers = ref [] in
      let scenario_digest = ref None in
      let entries = ref [] in
      let in_header = ref true in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | None -> fail "malformed line %S" line
          | Some i -> (
              let key = String.sub line 0 i in
              let rest =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match key with
              | "ev" ->
                  in_header := false;
                  entries := Ev rest :: !entries
              | "out" ->
                  in_header := false;
                  entries := Out rest :: !entries
              | _ when not !in_header ->
                  fail "header directive %S after entries" key
              | "objective" ->
                  ignore (objective_of_label rest);
                  obj_label := rest
              | "mode" -> (
                  match rest with
                  | "sequential" -> mode := `Sequential
                  | "simultaneous" -> mode := `Simultaneous
                  | m -> fail "bad mode %S" m)
              | "max-rounds" -> max_rounds := parse_int "max-rounds" rest
              | "queue-limit" -> queue_limit := parse_int "queue-limit" rest
              | "tiers" ->
                  tiers :=
                    List.map
                      (fun tok ->
                        match float_of_string_opt tok with
                        | Some r when Float.is_finite r && r > 0. -> r
                        | _ -> fail "bad tier %S" tok)
                      (String.split_on_char ' ' rest)
              | "scenario" -> scenario_digest := Some rest
              | _ -> fail "unknown directive %S" key))
        rest;
      if !obj_label = "" then fail "missing objective";
      if !max_rounds = 0 then fail "missing max-rounds";
      if !queue_limit = 0 then fail "missing queue-limit";
      ( {
          objective = objective_of_label !obj_label;
          obj_label = !obj_label;
          mode = !mode;
          max_rounds = !max_rounds;
          queue_limit = !queue_limit;
          tiers = !tiers;
          scenario_digest = !scenario_digest;
        },
        List.rev !entries )

let events entries =
  List.filter_map (function Ev e -> Some e | Out _ -> None) entries
