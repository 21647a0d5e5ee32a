(** The on-disk application model (paper §4.1): per kernel, its name,
    suggested partitioning strategy, parameters, and per-array read and
    write maps — what the first compiler pass writes and the second
    pass reads. *)

open Ppoly

type array_model = {
  arr : string;
  dims : Kir.dim array;
  read : Pmap.t option;
  write : Pmap.t option;
  atomic : Pmap.t option;
      (** atomic read-modify-write accesses, when exactly modeled *)
  atomic_ops : Kir.atomic_op list;
      (** distinct atomic operators applied to this array; [[]] = none *)
  atomic_exact : bool;
      (** [false] when atomic accesses were unanalyzable *)
  read_exact : bool;
  write_instrumented : bool;
      (** writes collected at run time by the instrumentation fallback
          (paper §11) *)
}

type kernel_model = {
  kname : string;
  strategy : Dim3.axis;
  params : string array;
  arrays : array_model list;
}

type t = { kernels : kernel_model list }

val empty : t
val find : t -> string -> kernel_model option
val find_exn : t -> string -> kernel_model

val of_analysis : Access.t -> kernel_model
val of_analyses : Access.t list -> t

val to_string : t -> string
(** One s-expression per kernel, newline separated. *)

val of_string : string -> t

val save : t -> file:string -> unit
val load : file:string -> t
