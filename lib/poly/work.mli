(** Polyhedral work counters: process-wide totals of the work the
    library does, counted where it happens.

    - [eliminations]: variable eliminations that found the variable in
      at least one row (Fourier–Motzkin or equality substitution);
    - [created_rows]: rows those eliminations created, before
      normalization;
    - [projections]: {!Poly.project_out} calls;
    - [emptiness_tests]: {!Poly.is_empty} calls;
    - [normalized_rows]: {!Row.normalize} calls.

    Counts are deterministic for a given sequence of calls.  They are
    plain mutable ints, not domain-safe: the library runs on the
    compiling domain only. *)

type t = {
  mutable eliminations : int;
  mutable created_rows : int;
  mutable projections : int;
  mutable emptiness_tests : int;
  mutable normalized_rows : int;
}

val counters : t
(** The running totals; the library bumps these fields. *)

val reset : unit -> unit

val totals : unit -> (string * int) list
(** The totals as [poly.*] metric names, in the order listed above. *)

val to_string : unit -> string
(** [eliminations=E created_rows=C projections=P emptiness_tests=T
    normalized_rows=N]. *)
