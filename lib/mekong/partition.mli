(** Grid partitioning and the kernel partition transform (paper §7).

    A thread-grid partition is a 3-tuple of half-open block-index
    intervals.  Partitioned kernels receive the bounds as extra
    arguments and apply blockIdx.w -> min_w + blockIdx.w (Eq. 8) and
    gridDim.w -> max_w (Eq. 9); launches use max_w - min_w blocks
    (Eq. 10). *)

type t = {
  device : int;
  min_blocks : Dim3.t;  (** inclusive *)
  max_blocks : Dim3.t;  (** exclusive *)
}

val n_blocks : t -> int
val is_empty : t -> bool

val launch_grid : t -> Dim3.t
(** The grid configuration of the partitioned launch (Eq. 10). *)

val make : grid:Dim3.t -> axis:Dim3.axis -> n:int -> t list
(** Split [grid] into [n] contiguous balanced chunks of blocks along
    [axis]; devices beyond the block count get empty partitions. *)

val make_weighted : grid:Dim3.t -> axis:Dim3.axis -> weights:float array -> t list
(** Split [grid] into contiguous chunks along [axis] sized
    proportionally to [weights] (per-device relative throughput on a
    heterogeneous fleet), by rounded cumulative prefix: deterministic,
    contiguous, covers the grid exactly.  Uniform weights reproduce
    [make].  Raises [Invalid_argument] on an empty or non-positive
    weight vector. *)

val widen : t -> grid:Dim3.t -> axis:Dim3.axis -> blocks:int -> t
(** Widen the partition by [blocks] block-rows on each side along
    [axis], clamped to the grid (the redundant-compute apron of a
    halo-tiled stencil launch). *)

val split : t -> axis:Dim3.axis -> n:int -> t list
(** Split one partition into at most [n] contiguous balanced sub-chunks
    along [axis], covering its block box exactly in ascending block
    order on the same device (memory-pressure chunking: the chunks
    launch sequentially).  Empty chunks are dropped. *)

val make_2d :
  grid:Dim3.t -> axis1:Dim3.axis -> axis2:Dim3.axis -> n:int -> t list
(** Split [grid] into a near-square grid of rectangular tiles over two
    axes (extension over the paper's 1-D chunks: smaller stencil halo
    surfaces). *)

val transform_kernel : Kir.t -> Kir.t
(** Clone the kernel, append the partition parameters, apply the
    Eq. 8/9 substitutions. *)

val partition_args : t -> Host_ir.harg list
(** Scalar values for the appended parameters, in the same order. *)

val box_bindings : t -> block:Dim3.t -> (string * int) list
(** Parameter bindings describing the partition box for the enumerators
    (paper §6.2): blockIdx bounds plus derived blockOff corners. *)

