(** Enumerator generation for access maps (paper §6): per (kernel,
    array argument, read|write), a compiled function from the partition
    box and scalar arguments to the linear element ranges the partition
    accesses. *)

open Ppoly

val partition_image : Pmap.t -> Pset.t
(** The range of a map whose domain is restricted to the symbolic
    partition box (paper §6): for each blockOff and blockIdx dim [v]
    with corners [pmin], [pmax], a piece that mentions [v] gets the
    rows [v - pmin >= 0] and [pmax - v - 1 >= 0], and a piece that does
    not gets [pmax - pmin - 1 >= 0], what eliminating [v] makes of
    them; then the grid is projected away.
    Test oracle window: test_poly "partition-box index-built box ==
    name-built box, then range" and "partition-box empty images"
    count its eliminations against a box built by name. *)

type entry = {
  arr : string;
  dims : Kir.dim array;
  read : Enumerate.t option;
  read_name : string;
  write : Enumerate.t option;
  write_name : string;
}

type t = { kernel : string; entries : entry list }

val build : ?rectangles:bool -> Model.kernel_model -> t
(** One entry per array.  An array that only takes exact atomics
    reads and writes one map, so its [read] and [write] are one
    enumerator; arrays whose maps differ only in the names of their
    index dims share one partition image, each enumerator still
    scanning its own array's dims. *)

val entry : t -> string -> entry option

val ranges : Enumerate.t -> bindings:(string * int) list -> (int * int) list
(** Evaluate under parameter bindings to canonical half-open ranges. *)

val ranges_counted :
  Enumerate.t -> bindings:(string * int) list -> (int * int) list * int
(** Like {!ranges}, plus the raw emission count (the cost driver). *)

val render_entry : entry -> string
(** C-like rendering of the generated scan loops (demonstration).
    Test oracle window: test_corpus_digest "corpus-digest models,
    enumerators, verdicts" hashes it. *)
