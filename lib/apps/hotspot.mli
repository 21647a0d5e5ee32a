(** Hotspot: a 5-point stencil on a quadratic grid (paper §9.1,
    structured-grid dwarf).  The read map of [inp] is the halo pattern
    of the paper's Figure 3; the write map is 1:1. *)

val kernel : Kir.t
(** [hotspot(n, inp, out)] with [inp]/[out] of shape [n][n]. *)

val block : Dim3.t
(** 16 x 16 threads. *)

val grid_for : int -> Dim3.t

val program_h :
  n:int -> iterations:int -> init:Host_ir.host_array ->
  result:Host_ir.host_array -> Host_ir.t
(** Host program over host arrays (real or phantom): upload, iterate
    with ping-pong buffers, download. *)

val program :
  n:int -> iterations:int -> init:float array -> result:float array ->
  Host_ir.t

val reference : n:int -> iterations:int -> float array -> float array
(** CPU reference mirroring the kernel arithmetic exactly (results are
    bit-identical). *)

val initial : n:int -> float array
(** A deterministic initial temperature field. *)
