(* Positive fixture for lib-hygiene. Lives under a lib/ directory so
   the engine classifies it as library code. *)

let bad_debug x =
  print_endline "debug";
  Printf.printf "%d\n" x

let bad_fmt () = Fmt.pr "hello@."
let bad_cast (x : int) : float = Obj.magic x

let bad_bail () = exit 2

let ok_log x = Logs.debug (fun m -> m "x = %d" x)
let ok_to_channel oc s = output_string oc s
