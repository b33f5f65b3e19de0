(* A lib/ reporting module: trace.ml (like report.ml) may print. *)

let dump n = Printf.printf "%d events\n" n
