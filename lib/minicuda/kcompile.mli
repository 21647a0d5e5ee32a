(** Launch-time compilation of kernel IR to register-file code.

    A kernel plus everything resolved at launch (grid, block, scalar
    arguments, array extents) partially evaluates into
    destination-passing steps over unboxed [int]/[float] register
    files: constants preset, locals in slots, subscript linearization
    and bounds checks inlined into direct array accesses, no float
    crossing a closure boundary, so a launch allocates only its
    register files.  Evaluation follows {!Keval}'s order, so results
    and diagnostics are identical.  {!Keval} remains the semantics
    oracle, and kernels outside the statically-typable fragment return
    [Error] so {!launch} falls back to the interpreter (see DESIGN.md
    §13). *)

type t
(** A kernel specialized to one (grid, block, args) launch shape. *)

val compile :
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Keval.arg list ->
  (t, string) result
(** Specialize a kernel.  [Error reason] means the kernel left the
    compilable fragment and must run under {!Keval.run}.  Raises
    [Invalid_argument] exactly when [Keval.run] would raise before
    executing any thread (argument-count mismatch, unbound dimension
    parameter). *)

val name : t -> string

type access = {
  loads : float array;  (** loads read this array *)
  stores : float array;  (** stores and atomics write this array *)
  touched : bool array option;
      (** when present, every stored offset is also set [true] here *)
}
(** How one array parameter is backed during a launch.  A plain device
    buffer is [{ loads = d; stores = d; touched = None }]; a partition's
    reducible accumulator sets [touched]; write-set instrumentation
    loads from the device and stores to scratch. *)

val run : ?pool:Gpu_runtime.Dpool.t -> t -> access:(string -> access) -> unit
(** Execute every block of the grid.  [access] is applied once per
    array parameter per launch; accesses then index the records' arrays
    directly (an offset past an array's length raises
    [Invalid_argument] like any OCaml array access).

    With [pool], the blocks are split across its domains.  Only pass a
    pool for kernels whose accesses prove distinct blocks disjoint (a
    [Verify.Safe] verdict): under that verdict results are
    bit-identical to sequential order. *)

val callbacks :
  (string -> access) ->
  (string -> int -> float) * (string -> int -> float -> unit)
(** The same access records as {!Keval.run}'s [load]/[store]
    callbacks, for the interpreter fallback: each array's record is
    resolved once, stores also set [touched]. *)

(** {2 The launch executor} *)

type executor
(** The one kernel-launch path of every engine: a compiled-kernel
    cache plus the ["exec.*"] counters of one metrics registry. *)

val executor : Obs.Metrics.t -> executor
(** An empty cache counting into the registry: [exec.compiles],
    [exec.cache_hits], [exec.seq_launches], [exec.par_launches] and
    [exec.interpreted] registered at zero, the [exec.max_domains]
    gauge at 1. *)

val clear_cache : executor -> unit
(** Drop every compiled kernel; the counters keep counting. *)

val launch :
  executor ->
  ?parallel:bool ->
  ?interpret:bool ->
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Keval.arg list ->
  access:(string -> access) ->
  unit
(** Run one launch bit-identically to {!Keval.run}.  The kernel is
    compiled for this (name, grid, block, args) shape, or taken from
    the cache (a failed compilation is cached too); a kernel outside
    the fragment runs under {!Keval.run} through {!callbacks}, as does
    every launch with [interpret] (default false: the interpreter
    baseline).  [parallel] (default false) splits the blocks over the
    global {!Gpu_runtime.Dpool}; pass it only for a [Verify.Safe]
    kernel.  Each launch bumps one of [exec.seq_launches],
    [exec.par_launches] or [exec.interpreted], and [exec.max_domains]
    records the most domains any launch engaged. *)

val publish_metrics : ?into:Obs.Metrics.t -> Obs.Metrics.t -> unit
(** Merge an executor's registry into another (default:
    {!Obs.Metrics.default}; see {!Obs.Metrics.merge}). *)
