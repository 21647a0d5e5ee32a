(** Launch-time compilation of kernel IR to OCaml closures.

    A kernel plus everything resolved at launch (grid, block, scalar
    arguments, array extents) partially evaluates into closures over
    flat slot-indexed int/float environments: no boxed values, no
    hashtable locals, unrolled subscript linearization with
    precomputed extents.  {!Keval} remains the semantics oracle —
    compiled execution is bit-identical, and kernels outside the
    statically-typable fragment return [Error] so callers fall back
    to the interpreter (see DESIGN.md §13). *)

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

val run :
  ?pool:Gpu_runtime.Dpool.t ->
  ?max_domains:int ->
  ?block_range:Dim3.t * Dim3.t ->
  t ->
  load:(string -> int -> float) ->
  store:(string -> int -> float -> unit) ->
  [ `Seq | `Par of int ]
(** Execute over the full grid or the inclusive [block_range], with
    {!Keval.run}'s access-callback contract — except that [load a] /
    [store a] are applied once per array per participating domain, so
    callers can resolve the array name to its backing buffer once
    instead of per access.

    With [pool], the block range is split across domains ([`Par d]
    reports how many were engaged; degenerate ranges still run
    sequentially as [`Seq]).  Only pass a pool for kernels whose
    accesses prove distinct blocks disjoint (a [Verify.Safe] verdict):
    under that verdict results are bit-identical to sequential order.
    The callbacks must then be safe to call from several domains. *)

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
