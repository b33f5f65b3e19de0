(* Assertions of the [dune runtest] smoke rule:

     smoke_check BENCHMARK.json RUN.smoke... -- TRACE.smoke...

   For every captured [wlan_bench run] output, each end_to_end metric
   of BENCHMARK.json must be printed as [name value unit] with its unit,
   [fail_ratio] must be 0, and the last line must be the verdict object
   holding exactly those metrics; likewise per_layer for every [trace]
   output. No timing is asserted. *)

(* A JSON reader just large enough for BENCHMARK.json and the verdict
   line. *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let parse s =
  let pos = ref 0 in
  let len = String.length s in
  let fail what = failwith (Printf.sprintf "JSON: %s at byte %d" what !pos) in
  let rec ws () =
    if !pos < len && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let eat c =
    ws ();
    if !pos < len && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if !pos + String.length word <= len
       && String.equal (String.sub s !pos (String.length word)) word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          if !pos + 1 >= len then fail "bad escape";
          Buffer.add_char b s.[!pos + 1];
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    if !pos >= len then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < len && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = string () in
            eat ':';
            let v = value () in
            ws ();
            if !pos < len && s.[!pos] = ',' then (incr pos; members ((k, v) :: acc))
            else (eat '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        ws ();
        if !pos < len && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < len && s.[!pos] = ',' then (incr pos; items (v :: acc))
            else (eat ']'; Arr (List.rev (v :: acc)))
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < len && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x -> Num x
        | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> len then fail "trailing bytes";
  v

let field k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> failwith ("missing key " ^ k))
  | _ -> failwith ("not an object looking up " ^ k)

let read path = In_channel.with_open_bin path In_channel.input_all

let errors = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr errors;
      prerr_endline ("smoke: " ^ m))
    fmt

(* [(name, unit)] of one metric list of BENCHMARK.json. *)
let declared bench key =
  match field key bench with
  | Arr ms ->
      List.map
        (fun mt ->
          match (field "name" mt, field "unit" mt) with
          | Str n, Str u -> (n, u)
          | _ -> failwith "metric without name/unit")
        ms
  | _ -> failwith (key ^ " is not a list")

let check_output ~metrics path =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read path))
  in
  let printed name unit =
    List.exists
      (fun line ->
        match String.split_on_char ' ' line with
        | [ n; v; u ] ->
            String.equal n name && String.equal u unit
            && Option.is_some (float_of_string_opt v)
        | _ -> false)
      lines
  in
  List.iter
    (fun (name, unit) ->
      if not (printed name unit) then fail "%s: %s not printed in %s" path name unit)
    metrics;
  if not (List.mem "fail_ratio 0 ratio" lines) then fail "%s: fail_ratio is not 0" path;
  match List.rev lines with
  | [] -> fail "%s: empty output" path
  | last :: _ -> (
      match parse last with
      | exception Failure e -> fail "%s: last line is not JSON (%s)" path e
      | v -> (
          (match (field "correct" v, field "failed" v, field "attempted" v) with
          | Bool true, Num 0., Num a when a >= 1. -> ()
          | _ -> fail "%s: verdict is not correct" path);
          match field "metrics" v with
          | Obj kvs ->
              let got = List.sort compare (List.map fst kvs) in
              let want = List.sort compare (List.map fst metrics) in
              if got <> want then fail "%s: JSON metrics differ from BENCHMARK.json" path;
              List.iter
                (fun (name, unit) ->
                  match List.assoc_opt name kvs with
                  | Some mv -> (
                      match (field "value" mv, field "unit" mv) with
                      | Num _, Str u when String.equal u unit -> ()
                      | _ -> fail "%s: %s has no numeric value in %s" path name unit)
                  | None -> ())
                metrics
          | _ -> fail "%s: metrics is not an object" path))

let () =
  match Array.to_list Sys.argv with
  | _ :: bench :: rest ->
      let bench = parse (read bench) in
      let rec split runs = function
        | "--" :: traces -> (List.rev runs, traces)
        | r :: more -> split (r :: runs) more
        | [] -> (List.rev runs, [])
      in
      let runs, traces = split [] rest in
      List.iter (check_output ~metrics:(declared bench "end_to_end")) runs;
      List.iter (check_output ~metrics:(declared bench "per_layer")) traces;
      if !errors > 0 then exit 1
  | _ ->
      prerr_endline "usage: smoke_check BENCHMARK.json RUN... -- TRACE...";
      exit 2
