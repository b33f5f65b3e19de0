(* Host-speed probe: a fixed allocation-heavy OCaml loop that prints its
   wall seconds. The benchmark runs it in the gaps between its pieces of
   measured work and scales each piece by the probes around it, because
   a shared machine's speed can swing by far more than any useful bound
   while the ratio of solver time to probe time barely moves. It is its
   own executable and links nothing of the program under test, so no
   change to the program (GC settings, module initialisers) can move it. *)

let () =
  Gc.set { (Gc.get ()) with minor_heap_size = 262144; space_overhead = 120 };
  let t0 = Monotonic_clock.now () in
  for _ = 1 to 4 do
    let l = List.init 200_000 (fun i -> (i, float_of_int i)) in
    ignore
      (Sys.opaque_identity
         (List.fold_left (fun a (i, f) -> a +. f +. float_of_int i) 0. (List.rev l)))
  done;
  Printf.printf "%.9f\n" (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9)
