(* An RFC-4180 parser for the CSV round-trip test: rows of fields,
   quoted fields may contain commas, doubled quotes and line breaks.
   Accepts both \n and \r\n row ends; a trailing newline does not
   produce an empty row. *)

let parse text =
  let rows = ref [] and row = ref [] and field = Buffer.create 32 in
  let n = String.length text in
  let flush_field () =
    row := Buffer.contents field :: !row;
    Buffer.clear field
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !row :: !rows;
    row := []
  in
  let i = ref 0 in
  (* chars consumed since the last row flush — distinguishes a trailing
     empty quoted field from a trailing newline *)
  let pending = ref false in
  while !i < n do
    (match text.[!i] with
    | '"' ->
        pending := true;
        (* quoted field: consume to the closing quote *)
        incr i;
        let closed = ref false in
        while not !closed do
          if !i >= n then invalid_arg "Csv_ref.parse: unclosed quote"
          else if text.[!i] = '"' then
            if !i + 1 < n && text.[!i + 1] = '"' then begin
              Buffer.add_char field '"';
              i := !i + 2
            end
            else begin
              closed := true;
              incr i
            end
          else begin
            Buffer.add_char field text.[!i];
            incr i
          end
        done
    | ',' ->
        pending := true;
        flush_field ();
        incr i
    | '\r' when !i + 1 < n && text.[!i + 1] = '\n' ->
        pending := false;
        flush_row ();
        i := !i + 2
    | '\n' ->
        pending := false;
        flush_row ();
        incr i
    | c ->
        pending := true;
        Buffer.add_char field c;
        incr i)
  done;
  if !pending then flush_row ();
  List.rev !rows
