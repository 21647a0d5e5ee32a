(** Launch-time compilation of kernel IR to lane-sweep register code.

    A kernel plus everything resolved at launch (grid, block, scalar
    arguments, array extents) partially evaluates into
    destination-passing steps over structure-of-arrays [int]/[float]
    register files: each step is one loop over a contiguous range of
    the block's threads (its lanes), the whole block at once unless a
    branch or loop splits it into runs of lanes, values uniform across
    the block are computed once, subscript linearization and bounds
    checks are inlined into direct array accesses (an access affine in
    the thread index is checked per box or row of lanes, then copied),
    and no float crosses a closure boundary.  Stores and atomics go to
    a per-block log that is flushed in thread order.  Launches that are not
    lane-safe (an array some store writes is also read by a load) run
    the same steps in the same environment one thread at a time, each
    thread a one-lane range with its stores written directly, and a
    block whose lane run raises re-runs that way from its start.
    Results and diagnostics are therefore {!Keval}'s.  Kernels must
    pass {!Kir.check}, which gives every value one static type, so
    every kernel compiles; {!Keval} remains the semantics oracle
    (DESIGN.md §13). *)

type t
(** A kernel specialized to one (grid, block, args) launch shape. *)

val compile : Kir.t -> grid:Dim3.t -> block:Dim3.t -> args:Keval.arg list -> t
(** Specialize a kernel that passes {!Kir.check}.  Raises
    [Invalid_argument] exactly when [Keval.run] would raise before
    executing any thread (argument-count mismatch, a float bound to an
    int parameter, unbound dimension parameter).
    Test oracle window: test_exec "argument mismatch". *)

type guard_class = All_true | All_false | Mixed
(** How a guard evaluates over the threads of one block. *)

val guard_classifier :
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Keval.arg list ->
  Kir.exp ->
  (Dim3.t -> guard_class) option
(** The block classifier {!compile} folds an [If] condition of the
    kernel with, or [None] when the condition does not fold: it must be
    a conjunction of [<], [<=], [>], [>=] compares whose sides are
    affine in thread and block indices, launch constants and locals
    bound by one [Local] only, small enough to be exact (DESIGN.md
    §13).  Applied to a block index, it returns [All_true] or
    [All_false] only when every thread of that block agrees; a
    conjunction of individually mixed compares is [Mixed] even when it
    holds nowhere.  Test support.
    Test oracle window: test_exec "guards block classifier == brute
    force == Poly over the thread box" and "guards folded guards
    match Keval". *)

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
    [Invalid_argument] like any OCaml array access).  Each domain's one
    environment (register files and log) is allocated on its first
    block of [t] and reused by later launches, so launches of one [t]
    must not overlap; it drops its references to the launch's arrays
    when the launch returns or raises.

    With [pool], the blocks are split across its domains.  Only pass a
    pool for kernels whose accesses prove distinct blocks disjoint (a
    [Verify.Safe] verdict): under that verdict results are
    bit-identical to sequential order.
    Test oracle window: test_exec "allocation guard". *)

(** {2 The launch executor} *)

type executor
(** The one kernel-launch path of every engine: a store of compiled
    kernels plus the ["exec.*"] counters of one metrics registry.  The
    store has one entry per (kernel, grid, block, scalar args) shape;
    entries hash on the kernel's name and the shape, and match the
    kernel itself (physically, else {!Kir.equal}): a name identifies a
    kernel only inside one program.  Stored kernels keep their
    per-domain register files but no launch's arrays.  Launches through
    one executor must not overlap. *)

val executor : Obs.Metrics.t -> executor
(** An executor with an empty store, counting into the registry:
    [exec.compiles], [exec.cache_hits], [exec.seq_launches],
    [exec.par_launches], [exec.interpreted], [kcompile.scalar_blocks],
    [kcompile.guards_folded], [kcompile.guards_scanned] and
    [kcompile.affine_accesses] registered at zero, the
    [exec.max_domains] gauge at 1.  No launch here bumps [exec.interpreted]: it counts the
    launches {!Single_gpu}'s [`Interpreter] mode runs under {!Keval}. *)

val clear_cache : executor -> unit
(** Drop every compiled kernel of the executor's store; the counters
    keep counting. *)

val launch :
  executor ->
  ?parallel:bool ->
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Keval.arg list ->
  access:(string -> access) ->
  unit
(** Run one launch of a kernel that passes {!Kir.check},
    bit-identically to {!Keval.run}.  The kernel is compiled for this
    (kernel, grid, block, args) shape, or taken from the executor's
    store.  [parallel] (default false) splits the blocks over the
    global {!Gpu_runtime.Dpool}; pass it only for a [Verify.Safe]
    kernel.  Each launch bumps one of [exec.seq_launches] or
    [exec.par_launches], and [exec.max_domains]
    records the most domains any launch engaged.
    [kcompile.scalar_blocks] counts the blocks of more than one thread
    that ran one thread at a time, raising launches included.
    [kcompile.guards_folded] and [kcompile.guards_scanned] count the
    (folded guard, block) pairs whose block class took one branch
    directly, or the compare steps and lane scan (DESIGN.md §13).
    [kcompile.affine_accesses] counts, per compilation, the loads,
    stores and atomics compiled to the affine access step. *)

val publish_metrics : ?into:Obs.Metrics.t -> Obs.Metrics.t -> unit
(** Merge an executor's registry into another (default:
    {!Obs.Metrics.default}; see {!Obs.Metrics.merge}). *)
