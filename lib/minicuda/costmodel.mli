(** Static cost estimation of kernels from their IR: "simple
    operations" per thread, with memory accesses weighted heavier than
    ALU work and loop trip counts evaluated from the launch's scalar
    arguments. *)

val ops_per_thread : Kir.t -> scalar_env:(string * int) list -> float
(** Estimated operations per thread for one launch. *)

val ops_per_block :
  Kir.t -> scalar_env:(string * int) list -> block:Dim3.t -> float
