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
    [Error] so callers fall back to the interpreter (see DESIGN.md
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

val run :
  ?pool:Gpu_runtime.Dpool.t ->
  ?max_domains:int ->
  ?block_range:Dim3.t * Dim3.t ->
  t ->
  access:(string -> access) ->
  [ `Seq | `Par of int ]
(** Execute over the full grid or the inclusive [block_range].
    [access] is applied once per array parameter per launch; accesses
    then index the records' arrays directly (an offset past an array's
    length raises [Invalid_argument] like any OCaml array access).

    With [pool], the block range is split across domains ([`Par d]
    reports how many were engaged; degenerate ranges still run
    sequentially as [`Seq]).  Only pass a pool for kernels whose
    accesses prove distinct blocks disjoint (a [Verify.Safe] verdict):
    under that verdict results are bit-identical to sequential order. *)

val callbacks :
  (string -> access) ->
  (string -> int -> float) * (string -> int -> float -> unit)
(** The same access records as {!Keval.run}'s [load]/[store]
    callbacks, for the interpreter fallback: each array's record is
    resolved once, stores also set [touched]. *)

(** {2 Executor counters} *)

type stats = {
  mutable st_compiles : int;  (** kernels compiled (cache misses) *)
  mutable st_cache_hits : int;  (** compiled kernels reused *)
  mutable st_interpreted : int;  (** launches run by the Keval fallback *)
  mutable st_seq : int;  (** compiled sequential launches *)
  mutable st_par : int;  (** compiled parallel launches *)
  mutable st_domains : int;  (** max domains engaged by any launch *)
}

val new_stats : unit -> stats
val record_path : stats -> [ `Seq | `Par of int ] -> unit

val publish_metrics : ?into:Obs.Metrics.t -> stats -> unit
(** Add the counters to a metrics registry under the engine's
    ["exec.*"] names (default: {!Obs.Metrics.default}): counters for
    the launch counts, the [exec.max_domains] gauge for [st_domains]. *)
