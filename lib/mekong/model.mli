(** The on-disk application model (paper §4.1): per kernel, its name,
    suggested partitioning strategy, parameters, and per-array read and
    write maps — what the first compiler pass writes and the second
    pass reads. *)

open Ppoly

(** The analysis's per-array record, stored as is; the fields are
    documented at {!Access.array_access}. *)
type array_model = Access.array_access = {
  arr : string;
  dims : Kir.dim array;
  read : Pmap.t option;
  write : Pmap.t option;
  atomic : Pmap.t option;
  atomic_ops : Kir.atomic_op list;
  atomic_exact : bool;
  read_exact : bool;
  write_instrumented : bool;
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
