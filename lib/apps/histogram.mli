(** Histogram: the canonical irregular workload.  Each thread
    atomically increments a {e data-dependent} bin, so the polyhedral
    analysis cannot model the atomic's targets (inexact access) — yet
    the verifier still proves the array reducible, because atomicAdd
    never observes old values.  Executes via partition-local
    accumulation plus an ordered merge (DESIGN.md §20). *)

val kernel : Kir.t
(** [histogram(n, nbins, data, hist)]; [data] values are the bin
    indices (integral floats in [[0, nbins)]).
    Test oracle window: test_verify "safe and reducible". *)

val block : Dim3.t
val grid_for : int -> Dim3.t
(** Test oracle window: test_exec "allocation guard". *)

val program :
  n:int -> nbins:int -> data:float array -> result:float array -> Host_ir.t

val initial : n:int -> nbins:int -> float array
(** Scrambled integral bin indices in [[0, nbins)]. *)

val reference : nbins:int -> float array -> float array
(** Sequential bin counts. *)
