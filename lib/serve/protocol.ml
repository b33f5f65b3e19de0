(** The [wlan-mcast-ev 1] wire codec: length-prefixed line frames, a
    total (never-raising) parser for the payload grammar, and an
    incremental decoder that survives garbage by resynchronizing on
    newlines. All floats print as [%.17g] so timestamps and rates
    round-trip bit-exactly (the {!Wlan_model.Scenario_io} convention). *)

let version = 1
let magic = "wlan-mcast-ev"

type event = Mcast_core.Distributed.Online.delta =
  | Arrive of { user : int }
  | Depart of { user : int }
  | Ap_fail of { ap : int }
  | Ap_recover of { ap : int }
  | Set_rate of { user : int; ap : int; rate : float }
  | Drift of { user : int; steps : int }

type input =
  | Hello of { version : int }
  | Event of { time : float; event : event }
  | Flush
  | Snapshot
  | Bye

type error_code =
  | Bad_frame
  | Oversize
  | Truncated
  | Bad_input
  | Bad_hello
  | Expected_hello
  | Out_of_range
  | Non_monotone
  | Closed

let error_code_name = function
  | Bad_frame -> "bad-frame"
  | Oversize -> "oversize"
  | Truncated -> "truncated"
  | Bad_input -> "bad-input"
  | Bad_hello -> "bad-hello"
  | Expected_hello -> "expected-hello"
  | Out_of_range -> "out-of-range"
  | Non_monotone -> "non-monotone"
  | Closed -> "closed"

type output =
  | Ok_hello of { version : int }
  | Delta of { time : float; user : int; from_ap : int; to_ap : int }
  | Settled of {
      time : float;
      events : int;
      interrupted : int;
      rounds : int;
      moves : int;
      reassociated : int;
      deltas : int;
      forced : bool;
      converged : bool;
      oscillated : bool;
      total_load : float;
      max_load : float;
    }
  | State of {
      time : float;
      present : int;
      served : int;
      total_load : float;
      max_load : float;
      fresh_total : float;
      fresh_max : float;
      ssa_total : float;
      ssa_max : float;
      digest : string;
    }
  | Error of { code : error_code; detail : string }

(* [%.17g]: enough digits that [float_of_string] recovers the exact
   bits — the same convention as the scenario/churn text formats. *)
let fl = Printf.sprintf "%.17g"

let render_event = function
  | Arrive { user } -> Printf.sprintf "arrive %d" user
  | Depart { user } -> Printf.sprintf "depart %d" user
  | Ap_fail { ap } -> Printf.sprintf "ap-fail %d" ap
  | Ap_recover { ap } -> Printf.sprintf "ap-recover %d" ap
  | Set_rate { user; ap; rate } ->
      Printf.sprintf "set-rate %d %d %s" user ap (fl rate)
  | Drift { user; steps } -> Printf.sprintf "drift %d %d" user steps

let render_input = function
  | Hello { version } -> Printf.sprintf "hello %s %d" magic version
  | Event { time; event } ->
      Printf.sprintf "at %s %s" (fl time) (render_event event)
  | Flush -> "flush"
  | Snapshot -> "snapshot"
  | Bye -> "bye"

let bool01 b = if b then "1" else "0"

let render_output = function
  | Ok_hello { version } -> Printf.sprintf "ok %s %d" magic version
  | Delta { time; user; from_ap; to_ap } ->
      Printf.sprintf "delta %s %d %d %d" (fl time) user from_ap to_ap
  | Settled
      {
        time;
        events;
        interrupted;
        rounds;
        moves;
        reassociated;
        deltas;
        forced;
        converged;
        oscillated;
        total_load;
        max_load;
      } ->
      Printf.sprintf
        "settled %s events %d interrupted %d rounds %d moves %d \
         reassociated %d deltas %d forced %s converged %s oscillated %s \
         total %s max %s"
        (fl time) events interrupted rounds moves reassociated deltas
        (bool01 forced) (bool01 converged) (bool01 oscillated)
        (fl total_load) (fl max_load)
  | State
      {
        time;
        present;
        served;
        total_load;
        max_load;
        fresh_total;
        fresh_max;
        ssa_total;
        ssa_max;
        digest;
      } ->
      Printf.sprintf
        "state %s present %d served %d total %s max %s fresh %s %s ssa %s \
         %s digest %s"
        (fl time) present served (fl total_load) (fl max_load)
        (fl fresh_total) (fl fresh_max) (fl ssa_total) (fl ssa_max) digest
  | Error { code; detail } ->
      if detail = "" then Printf.sprintf "error %s" (error_code_name code)
      else Printf.sprintf "error %s %s" (error_code_name code) detail

let sanitize s =
  String.map (fun c -> if c < ' ' || c > '~' then '?' else c) s

let clip s = if String.length s <= 40 then s else String.sub s 0 40 ^ "..."

(* {2 Payload parsing} — total; [Error (code, detail)] on anything the
   grammar does not cover. *)

let int_tok what s k =
  match int_of_string_opt s with
  | Some v -> k v
  | None -> Result.error (Bad_input, Printf.sprintf "bad %s %S" what s)

let float_tok what s k =
  match float_of_string_opt s with
  | Some v -> k v
  | None -> Result.error (Bad_input, Printf.sprintf "bad %s %S" what s)

let time_tok s k =
  float_tok "time" s @@ fun t ->
  if Float.is_finite t && t >= 0. then k t
  else Result.error (Bad_input, Printf.sprintf "bad time %S" s)

let rate_tok s k =
  float_tok "rate" s @@ fun r ->
  if Float.is_finite r && r >= 0. then k r
  else Result.error (Bad_input, Printf.sprintf "bad rate %S" s)

let parse_event time = function
  | [ "arrive"; u ] -> int_tok "user" u @@ fun user ->
      Ok (Event { time; event = Arrive { user } })
  | [ "depart"; u ] -> int_tok "user" u @@ fun user ->
      Ok (Event { time; event = Depart { user } })
  | [ "ap-fail"; a ] -> int_tok "ap" a @@ fun ap ->
      Ok (Event { time; event = Ap_fail { ap } })
  | [ "ap-recover"; a ] -> int_tok "ap" a @@ fun ap ->
      Ok (Event { time; event = Ap_recover { ap } })
  | [ "set-rate"; u; a; r ] ->
      int_tok "user" u @@ fun user ->
      int_tok "ap" a @@ fun ap ->
      rate_tok r @@ fun rate ->
      Ok (Event { time; event = Set_rate { user; ap; rate } })
  | [ "drift"; u; s ] ->
      int_tok "user" u @@ fun user ->
      int_tok "steps" s @@ fun steps ->
      Ok (Event { time; event = Drift { user; steps } })
  | toks ->
      Result.error
        ( Bad_input,
          Printf.sprintf "unknown event %s"
            (clip (sanitize (String.concat " " toks))) )

let parse_input line =
  match String.split_on_char ' ' line with
  | [ "hello"; m; v ] ->
      if m <> magic then
        Result.error (Bad_hello, Printf.sprintf "unknown magic %S" (clip (sanitize m)))
      else begin
        match int_of_string_opt v with
        | Some version -> Ok (Hello { version })
        | None ->
            Result.error (Bad_hello, Printf.sprintf "bad version %S" (clip (sanitize v)))
      end
  | "at" :: t :: rest -> time_tok t @@ fun time -> parse_event time rest
  | [ "flush" ] -> Ok Flush
  | [ "snapshot" ] -> Ok Snapshot
  | [ "bye" ] -> Ok Bye
  | _ ->
      Result.error
        (Bad_input, Printf.sprintf "unparseable %s" (clip (sanitize line)))

(* {2 Framing} *)

let frame_into buf payload =
  if String.contains payload '\n' then
    invalid_arg "Protocol.frame: payload contains a newline";
  Buffer.add_string buf (string_of_int (String.length payload));
  Buffer.add_char buf ' ';
  Buffer.add_string buf payload;
  Buffer.add_char buf '\n'

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  frame_into buf payload;
  Buffer.contents buf

module Decoder = struct
  type item = Frame of string | Corrupt of error_code * string

  type t = {
    mutable data : string;  (** unconsumed suffix is [pos ..] *)
    mutable pos : int;
    mutable skipping : bool;  (** discarding up to the next newline *)
  }

  (* The largest declared payload; a longer one is refused unbuffered. *)
  let max_frame = 65536

  let create () = { data = ""; pos = 0; skipping = false }

  let pending t = String.length t.data - t.pos

  let feed t chunk =
    if pending t = 0 then begin
      t.data <- chunk;
      t.pos <- 0
    end
    else begin
      (* compact: keep only the unconsumed suffix *)
      t.data <- String.sub t.data t.pos (pending t) ^ chunk;
      t.pos <- 0
    end

  let at_boundary t = pending t = 0 && not t.skipping

  let is_digit c = c >= '0' && c <= '9'

  (* Abandon the current frame: consume through the next newline (now or
     in later chunks) and report [code]. *)
  let corrupt t code detail =
    (match String.index_from_opt t.data t.pos '\n' with
    | Some i ->
        t.pos <- i + 1;
        t.skipping <- false
    | None ->
        t.pos <- String.length t.data;
        t.skipping <- true);
    Some (Corrupt (code, detail))

  let rec next t =
    let len = String.length t.data in
    if t.skipping then
      match String.index_from_opt t.data t.pos '\n' with
      | None ->
          t.pos <- len;
          None
      | Some i ->
          t.pos <- i + 1;
          t.skipping <- false;
          next t
    else if t.pos >= len then None
    else begin
      let i = t.pos in
      let j = ref i in
      while !j < len && is_digit t.data.[!j] do incr j done;
      if !j = i then
        corrupt t Bad_frame
          (Printf.sprintf "length prefix expected, got %s"
             (clip (sanitize (String.sub t.data i (min 8 (len - i))))))
      else if !j - i > 8 then corrupt t Bad_frame "length prefix too long"
      else if !j = len then None (* digits may continue in the next chunk *)
      else if t.data.[!j] <> ' ' then
        corrupt t Bad_frame "no space after length prefix"
      else begin
        let n = int_of_string (String.sub t.data i (!j - i)) in
        if n > max_frame then
          corrupt t Oversize
            (Printf.sprintf "declared %d bytes, limit %d" n max_frame)
        else begin
          let body = !j + 1 in
          if len - body < n + 1 then None (* wait for body + newline *)
          else if t.data.[body + n] <> '\n' then
            corrupt t Bad_frame "frame not newline-terminated at length"
          else begin
            let payload = String.sub t.data body n in
            t.pos <- body + n + 1;
            Some (Frame payload)
          end
        end
      end
    end
end
