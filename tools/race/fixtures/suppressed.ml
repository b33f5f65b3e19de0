(* Suppression fixture: the same racy shapes as the positive fixtures,
   each silenced through one of the two escape hatches. Must produce
   zero findings — this is the end-to-end proof that the engine
   re-parses sources through Suppress. *)

let totals : (int, float) Hashtbl.t = Hashtbl.create 8

let comment_hatch pool xs =
  (* lint: allow shared-mutable-escape *)
  Harness.Pool.run pool (List.map (fun x () -> Hashtbl.replace totals x 0.) xs)

let same_line_hatch (tbl : (int, float) Hashtbl.t) =
  Hashtbl.fold (fun _ v acc -> acc +. v) tbl 0. (* lint: allow order-sensitive-merge *)

let attribute_hatch pool =
  (Harness.Pool.run pool [ (fun () -> Random.State.make_self_init ()) ] [@lint.allow ambient_rng_in_task])

let underscore_spelling pool =
  (* lint: allow non_commutative_counter *)
  Harness.Pool.run pool [ (fun () -> Wlan_obs.Counters.reset ()) ]
