(** Vector addition: the minimal data-parallel kernel (quickstart and
    simplest analysis target).  Reads and writes are 1:1 with the
    thread grid — one tracker segment per partition (paper §8.1's
    extreme case). *)

val kernel : Kir.t
(** [vecadd(n, a, b, c)].  Test oracle window: test_mekong "vecadd". *)

val block : Dim3.t
val grid_for : int -> Dim3.t
(** Test oracle window: test_mekong "enumerators vs execution". *)

val program :
  n:int -> a:float array -> b:float array -> result:float array -> Host_ir.t

val reference : float array -> float array -> float array
