(* A lib/ reporting module: report.ml (like trace.ml) may print. *)

let banner () = print_endline "== results =="
