(* Fixture for the Domain.is_main_domain guard: a with_span-shaped
   function that pushes onto a module-level stack only on the main
   domain is clean when a pooled task calls it, under the guard and
   under its negation; the same body without the guard is flagged. *)

let stack : string list ref = ref []

let guarded_span name f =
  if not (Domain.is_main_domain ()) then f ()
  else begin
    stack := name :: !stack;
    Fun.protect ~finally:(fun () -> stack := List.tl !stack) f
  end

let guarded_direct name f =
  if Domain.is_main_domain () then begin
    stack := name :: !stack;
    Fun.protect ~finally:(fun () -> stack := List.tl !stack) f
  end
  else f ()

let unguarded_span name f =
  stack := name :: !stack;
  Fun.protect ~finally:(fun () -> stack := List.tl !stack) f

let pooled_guarded pool xs =
  Harness.Pool.run pool
    (List.map (fun x () -> guarded_span "task" (fun () -> x + 1)) xs)

let pooled_direct pool xs =
  Harness.Pool.run pool
    (List.map (fun x () -> guarded_direct "task" (fun () -> x + 1)) xs)

let pooled_unguarded pool xs =
  Harness.Pool.run pool
    (List.map (fun x () -> unguarded_span "task" (fun () -> x + 1)) xs)
