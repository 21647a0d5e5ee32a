(** N-Body: direct gravitational simulation (paper §9.1).  Bodies are
    rows of an [n x 4] array (x, y, z, mass / vx, vy, vz, padding); the
    j-loop makes the read map of [pos_in] cover the whole array (an
    all-gather per iteration) while writes stay row-contiguous. *)

val kernel : Kir.t
(** [nbody(n, dt, pos_in, vel_in, pos_out, vel_out)]. *)

val block : Dim3.t
(** 256 threads. *)

val grid_for : int -> Dim3.t

val program_h :
  n:int -> iterations:int -> dt:float -> pos:Host_ir.host_array ->
  vel:Host_ir.host_array -> pos_result:Host_ir.host_array -> Host_ir.t

val program :
  n:int -> iterations:int -> dt:float -> pos:float array ->
  vel:float array -> pos_result:float array -> Host_ir.t

val reference :
  n:int -> iterations:int -> dt:float -> float array -> float array ->
  float array * float array
(** CPU reference mirroring the kernel arithmetic exactly; returns the
    final (positions, velocities). *)

val initial : n:int -> float array * float array
(** Deterministic initial (positions, velocities). *)
