(** Matmul: dense product of two quadratic matrices (paper §9.1).  Under
    the suggested row-band partition, A reads match the linear H2D
    distribution but the column-wise reads of B require the runtime's
    all-gather redistribution before the kernel starts. *)

val kernel : Kir.t
(** [matmul(n, a, b, c)] computing [c = a * b], one thread per element
    of [c].  Test oracle window: test_mekong "matmul". *)

val block : Dim3.t
val grid_for : int -> Dim3.t
(** Test oracle window: test_exec "allocation guard". *)

val program_h :
  n:int -> a:Host_ir.host_array -> b:Host_ir.host_array ->
  result:Host_ir.host_array -> Host_ir.t

val program :
  n:int -> a:float array -> b:float array -> result:float array -> Host_ir.t

val reference : n:int -> float array -> float array -> float array
(** CPU reference mirroring the kernel arithmetic exactly. *)

val initial : n:int -> float array * float array
(** Deterministic input matrices (A, B). *)
