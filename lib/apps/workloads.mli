(** Benchmark workload configurations (paper Table 1) and functional
    test instances. *)

type size = Small | Medium | Large

val size_name : size -> string
val sizes : size list

type benchmark = Hotspot_b | Nbody_b | Matmul_b

val benchmarks : benchmark list
val benchmark_name : benchmark -> string

val problem_size : benchmark -> size -> int
(** Table 1 problem sizes. *)

val iterations : benchmark -> int
(** Table 1 iteration counts (1 for Matmul). *)

val nbody_dt : float

val program : ?iterations:int -> benchmark -> size -> Host_ir.t
(** Paper-scale host program with phantom host arrays (performance
    runs never materialize them); [iterations] shrinks iterative
    benchmarks for quick runs. *)

(** Small functional instances (real data, bit-exact checks): each
    returns the program, the output array it writes, and a thunk
    computing the CPU reference. *)

val functional_hotspot :
  n:int -> iterations:int -> Host_ir.t * float array * (unit -> float array)

val functional_nbody :
  n:int -> iterations:int -> Host_ir.t * float array * (unit -> float array)

val functional_matmul : n:int -> Host_ir.t * float array * (unit -> float array)

val functional_vecadd : n:int -> Host_ir.t * float array * (unit -> float array)

val functional_dot : n:int -> Host_ir.t * float array * (unit -> float array)
(** Exact-arithmetic dot product (reducible atomics; DESIGN.md §20). *)

val functional_histogram :
  n:int -> nbins:int -> Host_ir.t * float array * (unit -> float array)
(** Data-dependent histogram (inexact reducible atomics). *)
