(* Shared plumbing of the end-to-end benchmark: clock, order statistics,
   /proc memory readings, the metric record and the JSON it is written
   as. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Linear-interpolated quantile of an unsorted sample; [q] in [0, 1]. *)
let quantile q xs =
  match Array.length xs with
  | 0 -> invalid_arg "quantile: empty sample"
  | n ->
      let s = Array.copy xs in
      Array.sort Float.compare s;
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then s.(n - 1)
      else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile 0.5 xs

let ratio a b = if b > 0. then a /. b else 0.

(* Peak resident set ([VmHWM]) of a process, in MB; [pid] "self" for the
   benchmark itself. Linux only: the benchmark refuses to report a peak
   it could not read. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> scan ())
      in
      scan ())

(* Peak resident set, in MB, of [wlan_bench mem ARGS]: a child process
   that reruns part of a workload on one domain and prints its own
   [VmHWM] as its last line. With two domains the heap's high-water mark
   depends on how their collections interleave, which spread it over
   ~20% between runs; on one domain the collector's pace follows the
   allocations alone and the peak depends on the inputs only. *)
let single_domain_peak_mb args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.append [| exe; "mem" |] args) in
  let lines = In_channel.input_lines ic in
  match (Unix.close_process_in ic, List.rev lines) with
  | Unix.WEXITED 0, last :: _ -> (
      match float_of_string_opt last with
      | Some mb -> mb
      | None -> failwith ("memory pass printed " ^ last))
  | _ -> failwith "memory pass failed"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec json_to_buffer b = function
  | Num x when Float.is_finite x -> Buffer.add_string b (Printf.sprintf "%.17g" x)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (Harness.Bench_json.escape s);
      Buffer.add_char b '"'
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          json_to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          json_to_buffer b (Str k);
          Buffer.add_char b ':';
          json_to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let json_to_string j =
  let b = Buffer.create 1024 in
  json_to_buffer b j;
  Buffer.contents b

(* [E2e] metrics are gated in BENCHMARK.json and measured with tracing
   off; [Layer] metrics come from the traced run; [Diag] metrics are
   printed and written to the run's JSON file but not gated. *)
type kind = E2e | Layer | Diag

type metric = { name : string; value : float; unit : string; kind : kind }

let m kind name unit value = { name; value; unit; kind }

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* On a shared 2-core virtual machine, CPU speed swung by up to 2× for
   minutes at a time (other tenants) and the two cores often differed,
   which spread the raw times of ten runs over 10-35% (interquartile
   range over median). A run therefore probes the host in the gaps
   between its pieces of measured work and reports each piece scaled to
   a host where probe.exe takes [reference_probe_s], by the probes just
   before and after it. Raw walls stay in the output. *)
let reference_probe_s = 0.1

(* One sample: two probes at once, one per core, combined as the
   harmonic mean — the pace of work spread over both cores. *)
let probe_once () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "probe.exe" in
  let read ic =
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, Option.bind line float_of_string_opt) with
    | Unix.WEXITED 0, Some s -> s
    | _ -> failwith "host-speed probe failed"
  in
  let a = Unix.open_process_args_in exe [| exe |] in
  let b = Unix.open_process_args_in exe [| exe |] in
  let ta = read a in
  let tb = read b in
  2. /. ((1. /. ta) +. (1. /. tb))

(* The probes of one run, newest first: each the fastest of [samples]
   (three; one at smoke size). The host's slow phases last minutes and
   slow every sample, while its sub-second slowdowns catch one sample
   in a few; the fastest sample tracks the first and ignores the second.
   Against a fixed 1.5 s piece of two-domain work repeated 60 times,
   this scaling cut the spread (standard deviation over mean) from 6.8%
   raw to 5.3%, where the median of three samples gave 5.7%. *)
type host = { samples : int; mutable probes : float list }

let probe host =
  host.probes <-
    Array.fold_left Float.min infinity (Array.init host.samples (fun _ -> probe_once ()))
    :: host.probes

let start_host ~smoke =
  let host = { samples = (if smoke then 1 else 3); probes = [] } in
  probe host;
  host

(* A measured wall time and the factor that scales it to the reference
   host speed. *)
type timed = { wall : float; scale : float }

let scaled t = t.wall *. t.scale

(* Run [f] as one piece of measured work: timed, then the host probed
   again; scaled by the probes just before and after it. *)
let segment host f =
  let before = List.hd host.probes in
  let r, wall = time f in
  probe host;
  let after = List.hd host.probes in
  (r, { wall; scale = reference_probe_s /. ((before +. after) /. 2.) })

(* The gated metrics — set-up, the summed work and the median operation
   latency at the reference host speed, plus the peak resident set —
   with the raw walls and the probes as diagnostics. *)
let e2e_metrics host ~setup ~work ~latencies_ms ~peak_mem_mb =
  let sum f = List.fold_left (fun acc t -> acc +. f t) 0. work in
  let p50 f = median (Array.of_list (List.map f latencies_ms)) in
  ( [
      m E2e "setup_s" "s" (scaled setup);
      m E2e "work_s" "s" (sum scaled);
      m E2e "p50_ms" "ms" (p50 scaled);
      m E2e "peak_mem_mb" "MB" peak_mem_mb;
      m Diag "wall.setup_s" "s" setup.wall;
      m Diag "wall.work_s" "s" (sum (fun t -> t.wall));
      m Diag "wall.p50_ms" "ms" (p50 (fun t -> t.wall));
      m Diag "host.probe_s" "s" (median (Array.of_list host.probes));
    ],
    [
      ("probes", Arr (List.rev_map (fun p -> Num p) host.probes));
      ( "work",
        Arr
          (List.map
             (fun t -> Obj [ ("wall", Num t.wall); ("scale", Num t.scale) ])
             work) );
    ] )

(* ------------------------------------------------------------------ *)
(* Metrics and operation accounting                                    *)
(* ------------------------------------------------------------------ *)

(* Operations attempted and failed; the first few failures keep their
   reason for the report. *)
type ops = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;  (** newest first *)
}

let new_ops () = { attempted = 0; failed = 0; reasons = [] }

let check ops ok what =
  ops.attempted <- ops.attempted + 1;
  if not ok then begin
    ops.failed <- ops.failed + 1;
    if ops.failed <= 20 then ops.reasons <- what :: ops.reasons
  end

type outcome = {
  workload : string;
  seed : int;
  metrics : metric list;
  ops : ops;
  extra : (string * json) list;  (** workload-specific detail for [--out] *)
}

let metric_json ms =
  Obj
    (List.map
       (fun mt -> (mt.name, Obj [ ("value", Num mt.value); ("unit", Str mt.unit) ]))
       ms)

(* Print every metric as [name value unit] and the verdict, write the
   full record to [out], and finish stdout with the one-line summary
   holding exactly the metrics of [kind]. *)
let report ~kind ~out o =
  let nfail = o.ops.failed in
  let fail_ratio = ratio (float_of_int nfail) (float_of_int o.ops.attempted) in
  let metrics = o.metrics @ [ m Diag "fail_ratio" "ratio" fail_ratio ] in
  List.iter (fun mt -> Printf.printf "%s %.6g %s\n" mt.name mt.value mt.unit) metrics;
  List.iter (fun why -> Printf.printf "failed: %s\n" why) (List.rev o.ops.reasons);
  let correct = nfail = 0 && o.ops.attempted > 0 in
  Printf.printf "verdict: %s (%d attempted, %d failed)\n"
    (if correct then "correct" else "INCORRECT")
    o.ops.attempted nfail;
  let summary =
    [
      ("correct", Bool correct);
      ("attempted", Int o.ops.attempted);
      ("failed", Int nfail);
    ]
  in
  Option.iter
    (fun path ->
      mkdir_p (Filename.dirname path);
      write_file path
        (json_to_string
           (Obj
              ([ ("workload", Str o.workload); ("seed", Int o.seed) ]
              @ summary
              @ [
                  ("metrics", metric_json metrics);
                  ("failures", Arr (List.rev_map (fun s -> Str s) o.ops.reasons));
                ]
              @ o.extra))
        ^ "\n"))
    out;
  print_endline
    (json_to_string
       (Obj
          (summary
          @ [ ("metrics", metric_json (List.filter (fun mt -> mt.kind = kind) metrics)) ]
          )));
  correct
