(** Deterministic JSON/CSV rendering of churn disruption metrics.

    One document carries the named runs of a churn replay (typically one
    per algorithm variant). Rendering is a pure function of the runs:
    floats print with [%.17g] (bit-exact round-trip), steps in
    chronological order, runs in caller order — and deliberately {e no}
    wall-clock, hostname or job-count fields, so the same replay renders
    byte-identical bytes at every [--jobs] value. The golden-trace suite
    and the CI churn-smoke diff rely on that.

    This module renders strings only; file IO belongs to the binary. *)

open Wlan_sim

type run = {
  label : string;  (** e.g. ["mnu"] — names the algorithm variant *)
  objective : string;
  mode : string;  (** ["sequential"] or ["simultaneous"] *)
  outcome : Churn.outcome;
}

let schema = "wlan-mcast/churn-metrics/1"

(* NaN (disabled baseline) and infinities have no JSON literal: render
   them as null. *)
let float_json f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let escape = Wlan_obs.Report.escape

let render_step b ~indent (s : Churn.step) ~last =
  Buffer.add_string b
    (Printf.sprintf
       "%s{ \"time\": %s, \"events\": %d, \"reassociated\": %d, \
        \"interrupted\": %d, \"rounds\": %d, \"moves\": %d, \
        \"converged\": %b, \"oscillated\": %b, \"total_load\": %s, \
        \"max_load\": %s, \"opt_total_load\": %s, \"opt_max_load\": %s, \
        \"total_overshoot\": %s, \"peak_overshoot\": %s }%s\n"
       indent (float_json s.time) s.events s.reassociated s.interrupted
       s.rounds s.moves s.converged s.oscillated
       (float_json s.total_load)
       (float_json s.max_load)
       (float_json s.opt_total_load)
       (float_json s.opt_max_load)
       (float_json (Churn.total_overshoot s))
       (float_json (Churn.peak_overshoot s))
       (if last then "" else ","))

let render_run b (r : run) ~last =
  let o = r.outcome in
  Buffer.add_string b "    {\n";
  Buffer.add_string b
    (Printf.sprintf "      \"label\": \"%s\",\n" (escape r.label));
  Buffer.add_string b
    (Printf.sprintf "      \"objective\": \"%s\",\n" (escape r.objective));
  Buffer.add_string b
    (Printf.sprintf "      \"mode\": \"%s\",\n" (escape r.mode));
  Buffer.add_string b
    (Printf.sprintf "      \"total_rounds\": %d,\n" o.Churn.total_rounds);
  Buffer.add_string b
    (Printf.sprintf "      \"total_moves\": %d,\n" o.total_moves);
  Buffer.add_string b
    (Printf.sprintf "      \"total_reassociated\": %d,\n"
       o.total_reassociated);
  Buffer.add_string b
    (Printf.sprintf "      \"total_interrupted\": %d,\n" o.total_interrupted);
  Buffer.add_string b
    (Printf.sprintf "      \"oscillated\": %b,\n" o.oscillated);
  Buffer.add_string b "      \"steps\": [\n";
  let n = List.length o.steps in
  List.iteri
    (fun i s -> render_step b ~indent:"        " s ~last:(i = n - 1))
    o.steps;
  Buffer.add_string b "      ]\n";
  Buffer.add_string b (Printf.sprintf "    }%s\n" (if last then "" else ","))

(** The full JSON document for [runs], in caller order. *)
let json ~seed runs =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf "  \"schema\": \"%s\",\n" (escape schema));
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string b "  \"runs\": [\n";
  let n = List.length runs in
  List.iteri (fun i r -> render_run b r ~last:(i = n - 1)) runs;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

(* RFC-4180 field quoting: a field containing a comma, a double quote or
   a line break is wrapped in double quotes, with embedded quotes
   doubled. The JSON [escape] above is not suitable here — CSV has no
   backslash escapes. *)
let csv_escape s =
  let hostile = function ',' | '"' | '\n' | '\r' -> true | _ -> false in
  if not (String.exists hostile s) then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

let csv_header =
  "label,time,events,reassociated,interrupted,rounds,moves,converged,\
   oscillated,total_load,max_load,opt_total_load,opt_max_load,\
   total_overshoot,peak_overshoot"

(* CSV floats: %.17g prints nan/inf as words, which spreadsheet tools
   treat as opaque cells — acceptable, and still deterministic. *)
let csv_float = Printf.sprintf "%.17g"

(** One row per step per run, runs in caller order. *)
let csv runs =
  let b = Buffer.create 4096 in
  Buffer.add_string b csv_header;
  Buffer.add_char b '\n';
  List.iter
    (fun (r : run) ->
      List.iter
        (fun (s : Churn.step) ->
          Buffer.add_string b
            (Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%b,%b,%s,%s,%s,%s,%s,%s\n"
               (csv_escape r.label) (csv_float s.time) s.events s.reassociated
               s.interrupted s.rounds s.moves s.converged s.oscillated
               (csv_float s.total_load)
               (csv_float s.max_load)
               (csv_float s.opt_total_load)
               (csv_float s.opt_max_load)
               (csv_float (Churn.total_overshoot s))
               (csv_float (Churn.peak_overshoot s))))
        r.outcome.Churn.steps)
    runs;
  Buffer.contents b
