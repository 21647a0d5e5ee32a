(* Polyhedral work counters.

   Process-wide totals of the work the library does, counted where it
   happens.  They are deterministic for a given sequence of calls, so a
   compile reports them as exact figures.  The counters are plain
   mutable ints: the polyhedral library runs on the compiling domain
   only, never inside the engine's worker domains. *)

type t = {
  mutable eliminations : int;
  mutable created_rows : int;
  mutable projections : int;
  mutable emptiness_tests : int;
  mutable normalized_rows : int;
}

let counters =
  { eliminations = 0; created_rows = 0; projections = 0; emptiness_tests = 0;
    normalized_rows = 0 }

let reset () =
  counters.eliminations <- 0;
  counters.created_rows <- 0;
  counters.projections <- 0;
  counters.emptiness_tests <- 0;
  counters.normalized_rows <- 0

let fields () =
  [
    ("eliminations", counters.eliminations);
    ("created_rows", counters.created_rows);
    ("projections", counters.projections);
    ("emptiness_tests", counters.emptiness_tests);
    ("normalized_rows", counters.normalized_rows);
  ]

let totals () = List.map (fun (name, n) -> ("poly." ^ name, n)) (fields ())

let to_string () =
  String.concat " " (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) (fields ()))
