(** Versioned profile report: deterministic counters only (report.mli). *)

let schema = "wlan-mcast/profile/1"

type t = {
  label : string;
  seed : int;
  scenarios : int;
  targets : string list;
  counters : (string * int) list;
}

let make ~label ~seed ~scenarios ~targets =
  { label; seed; scenarios; targets; counters = Counters.snapshot () }

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"%s\",\n" (escape schema);
  add "  \"label\": \"%s\",\n" (escape t.label);
  add "  \"seed\": %d,\n" t.seed;
  add "  \"scenarios\": %d,\n" t.scenarios;
  add "  \"targets\": [%s],\n"
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "\"%s\"" (escape s)) t.targets));
  add "  \"counters\": {\n";
  let n = List.length t.counters in
  List.iteri
    (fun i (name, v) ->
      add "    \"%s\": %d%s\n" (escape name) v
        (if i = n - 1 then "" else ","))
    t.counters;
  add "  }\n";
  add "}\n";
  Buffer.contents buf

let pp_text ppf t =
  Fmt.pf ppf "profile %s (seed %d, scenarios %d)@." t.label t.seed
    t.scenarios;
  Fmt.pf ppf "targets: %s@." (String.concat " " t.targets);
  let w =
    List.fold_left
      (fun acc (name, _) -> Int.max acc (String.length name))
      0 t.counters
  in
  List.iter
    (fun (name, v) -> Fmt.pf ppf "  %-*s %12d@." w name v)
    t.counters
