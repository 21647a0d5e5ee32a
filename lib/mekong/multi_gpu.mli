(** The partitioned execution engine: runs a host program over all
    devices of a simulated machine, orchestrated exactly as the code
    the rewriter inserts (paper §5, Fig. 4): synchronize read sets,
    barrier, launch the partitions, update the trackers.  Each launch
    is a {!Plan} step list run by one interpreter (DESIGN.md §21). *)

type compiled_kernel = Plan.compiled_kernel = {
  ck_model : Model.kernel_model;
  ck_partitioned : Kir.t;
  ck_enums : Codegen.t;
  ck_shadow : Kir.t option;
  ck_gate : Verify.verdict;
}
(** See {!Plan.compiled_kernel}. *)

type linked = {
  l_ck : compiled_kernel;
  l_reduce : string;
      (** the reduction-mode signature of the kernel's launch-plan keys:
          each reducible array with its operator ([""] for every
          verdict but [Reducible]) *)
  l_iters : int;
      (** the product of the [Repeat] counts around the kernel's
          launches (the largest, if launched twice; 1 outside any
          loop) *)
}
(** What every launch of one kernel name reads from the linked binary. *)

type exe = {
  prog : Host_ir.t;
  compiled : (string * compiled_kernel) list;
  kernels : (string, linked) Hashtbl.t;
      (** [compiled] by name, the first entry of a name winning *)
  aliases : (string * string) list;
      (** the double-buffer pairs the program swaps, in program order *)
  gate : (string * int) list;
      (** per verdict series ([engine.gate.safe], [.reducible],
          [.racy], [.unknown]), the number of [kernels] with that
          verdict, which each run adds *)
}
(** The "linked binary": host program plus, per kernel, the partitioned
    clone and the generated enumerators, and the facts every run reads
    from them ({!Plan.loop_context} among them).  Read-only: {!link}
    builds it. *)

val link :
  ?rectangles:bool -> ?force_strategy:Dim3.axis -> model:Model.t ->
  Host_ir.t -> exe
(** [rectangles:false] disables the enumerator rectangle-union
    optimization; [force_strategy] overrides the model's suggested
    partitioning axis (both for ablations).  Raises [Invalid_argument]
    for kernels that use atomics but whose verifier verdict is neither
    [Safe] nor [Reducible]: overlapping read-modify-writes have no
    partitioned execution that preserves CUDA semantics, and the
    diagnostic carries the verifier's typed reason (witnesses
    included). *)

exception All_devices_lost
(** Terminal: the fault schedule killed every device of the machine.
    Raised by {!run}/{!run_bounded} instead of spinning in backoff
    against an empty fleet; there is no partial result because no
    device can hold any state. *)

type fault_report = {
  fr_faults : int;
      (** transient faults and losses observed by the machine *)
  fr_retries : int;  (** statement retries after transient faults *)
  fr_replays : int;
      (** checkpoint replays after unrecoverable data loss *)
  fr_devices_lost : int;  (** permanent device losses survived *)
}

val no_faults : fault_report

type result = {
  machine : Gpusim.Machine.t;
  time : float;  (** simulated end-to-end seconds *)
  faults : fault_report;
      (** what the self-healing loop saw and did, read back from the
          run's ["faults.*"] series (all zero on ideal hardware) *)
  metrics : Obs.Metrics.t;
      (** the registry of the run's {!context}, the only place engine
          counters live: transfers, plan-cache hits and misses, memory
          chunking, verifier verdicts and reducible merges, faults,
          autotuner calibration and executor launches under the names
          of DESIGN.md §14.  Every series is registered at zero. *)
}

val publish_metrics : ?into:Obs.Metrics.t -> result -> unit
(** Merge the run's {!result.metrics} into a registry (default:
    {!Obs.Metrics.default}; see {!Obs.Metrics.merge}) and snapshot the
    machine's ["gpusim.*"] counters into it. *)

(** The lines of a run report. *)
type report_line = Plan_cache | Executor | Gate | Faults | Memory | Autotune

val pp_report : report_line list -> Format.formatter -> Obs.Metrics.t -> unit
(** Print the given report lines, each read from the registry and ended
    by a newline: ["plan cache: H hits / M misses"], ["executor: ..."],
    ["race gate: safe=..."], ["faults=... retries=..."],
    ["chunked_launches=... chunks=..."], ["autotuned=... predicted=..."]. *)

val run :
  ?cfg:Gpu_runtime.Rconfig.t ->
  ?tiling:[ `One_d | `Two_d ] ->
  ?cache:bool ->
  ?checkpoint_every:int ->
  ?overlap:bool ->
  ?autotune:bool ->
  machine:Gpusim.Machine.t ->
  exe ->
  result
(** Execute.  Every launch runs as the step list {!Plan.of_launch}
    builds (or {!Plan.halo} for a halo-tiled stencil loop); DESIGN.md
    §21 describes the steps, the transform each mode below applies to
    Fig. 4's base plan, and how retry and replay re-run them.  In
    functional machines the buffers end up bit-identical
    to a single-GPU run; in performance machines only simulated time
    and statistics are produced.  [cfg] selects the alpha/beta/gamma
    measurement configuration of §9.2; [tiling:`Two_d] splits grids
    into rectangular tiles over two axes instead of the paper's
    contiguous 1-D chunks (an extension: smaller stencil halos at the
    price of fragmented tracker segments).  [cache] (default true)
    memoizes per-launch plans — partitions, evaluated range lists,
    cost-model results — per (kernel, grid, block, args) key; results
    are bit-identical either way, only redundant host computation is
    skipped (see {!Launch_cache}).

    Functional launches, the instrumentation shadows included, run
    through one {!Kcompile.launch} executor counting into
    [result.metrics] (compiled register code, bit-identical to
    {!Keval.run}; every kernel passed {!Kir.check} where it entered the
    pipeline, so each one compiles); kernels
    whose verifier verdict is {!Verify.Safe} additionally split each
    partition's blocks over the global {!Gpu_runtime.Dpool}, whose
    size is the one domains knob.  Kernels with a {!Verify.Reducible}
    verdict execute their atomic accumulation through partition-local
    buffers initialized to the operator's identity, merged into the
    host-gathered base in ascending partition order after every launch
    (at every device count, including one), so results are a
    deterministic function of the partition shape alone.  Parallel
    execution affects wall-clock only, never simulated time or
    results.

    When the machine injects faults the engine self-heals: transient
    kernel and transfer faults are retried with capped exponential
    backoff charged in simulated time; a permanent device loss
    re-partitions the remaining work over the survivors (N down to 1),
    re-homes the lost device's segments onto still-fresh replicas, and
    replays from the last host-side checkpoint (taken every
    [checkpoint_every] launches, default 8) only when some range had no
    fresh copy anywhere.  Under any fault schedule that leaves at least
    one device alive, functional results are bit-identical to the
    fault-free run; on ideal hardware none of this machinery runs and
    [faults] is {!no_faults}.

    [overlap] (default false) drops the host barrier between the read
    exchange and the partition launches of each non-chunked kernel
    launch, letting transfers and compute overlap: the copy engines
    are in-order and every exchange transfer is issued before any
    launch, so each kernel still observes its complete read set, while
    device k+1's halo fetches run under device k's kernel, the next
    iteration's exchange prefetches under the current iteration's
    compute, and host pattern work hides under device execution.
    Simulated results are bit-identical to the barriered engine on
    every machine — including under fault schedules and memory
    pressure (the chunked path keeps its barrier; its eager tracker
    updates rely on it) — only simulated time changes.

    Under a finite per-device memory capacity
    ({!Gpusim.Config.t.mem_capacity}) the engine adapts to memory
    pressure (DESIGN.md §15): cold buffer segments are spilled to the
    host by LRU to make room, and any partition whose polyhedral
    working-set footprint exceeds the capacity is split into
    sequential chunks that fit, each synchronizing, launching and
    updating trackers on its own.  Feasible runs complete
    bit-identically to the uncapped run; infeasible ones fail with a
    one-line diagnostic naming the buffer, device and shortfall.

    [autotune] (default false) replaces the fixed partitioning strategy
    with a cost-driven search per launch ({!Autotune.choose}): 1-D on
    each viable axis, near-square 2-D tile grids,
    throughput-proportional uneven splits on heterogeneous fleets
    ({!Gpusim.Config.device_speeds}), and 1-D splits over fewer devices
    than the fleet offers, each scored with the simulator's own
    compute/transfer/host cost model; the argmin wins, with a 2%
    hysteresis preferring the model's fixed axis.  Double-buffered
    stencil loops ([Repeat (n, [Launch; Swap])]) whose winner is
    halo-eligible execute halo/overlapped-tiled: per temporal block the
    engine exchanges one widened boundary strip, then runs the block's
    launches with a one-block-row redundant-compute apron and no
    per-step sync or barrier.  Results stay bit-identical to the
    fixed-strategy engine on every app (DESIGN.md §18 gives the
    legality argument); only the schedule — and so simulated time and
    transfer counts — changes.  Requires a patterns config (alpha or
    beta); under gamma the flag is ignored.  Plans are cached under a
    key extended with the scoring inputs ({!Autotune.signature}), so
    device loss or speed changes never replay a stale choice.  Halo
    tiling, like launch graphs, needs a loop that runs whole: ideal
    hardware, no preemption/resume and unlimited device memory, where
    nothing indexes into the statement stream (DESIGN.md §21); any
    other run expands its loops and uses the per-step schedule. *)

type handoff = {
  h_index : int;
      (** index to resume from, into the expanded statement stream: a
          run with [abort_at] or [resume] indexes into its stream, so
          every [Repeat] body is expanded in it *)
  h_buffers : (string * int * float array option) list;
      (** (name, len, content) of every live buffer at preemption;
          content is [None] on performance machines *)
}
(** A preemption handoff: a checkpoint in portable form.  Because the
    engine's statements are idempotent, resuming a fresh
    engine at [h_index] with these buffers restored reproduces the
    uninterrupted run bit-identically — including on a {e different}
    machine (the serving layer re-dispatches preempted jobs onto new
    device leases this way). *)

type bounded = Done of result | Preempted of result * handoff

type context
(** The engine's run-wide state: one metrics registry and the one
    {!Kcompile.executor}, with its compiled-kernel store, that counts
    into it.  A run given a context counts into its registry, which it
    returns as {!result.metrics}: after several runs, each counter
    series holds their sum, [engine.time_seconds] the last run's value
    and [exec.max_domains] the most domains any launch engaged.  Runs
    through one context must not overlap. *)

val context : unit -> context
(** A fresh context: an empty registry and an empty store. *)

val run_bounded :
  ?cfg:Gpu_runtime.Rconfig.t ->
  ?tiling:[ `One_d | `Two_d ] ->
  ?cache:bool ->
  ?checkpoint_every:int ->
  ?overlap:bool ->
  ?autotune:bool ->
  ?abort_at:float ->
  ?resume:handoff ->
  ?context:context ->
  machine:Gpusim.Machine.t ->
  exe ->
  bounded
(** {!run} with preemption.  When the machine's simulated clock
    ({!Gpusim.Machine.elapsed}) reaches [abort_at] (seconds, machine
    time, must be positive), the engine stops between statements,
    gathers every live buffer to the host in name order — paying the
    simulated transfer time — and returns
    [Preempted (partial_result, handoff)].  [resume] restores a
    previous handoff before executing: buffers are re-allocated and
    re-scattered (paying the upload), and execution continues from the
    handoff's statement index.  The resuming machine must run the same
    linked [exe] in the same mode (functional/performance); it may
    have a different device count.  Without [abort_at] the result is
    always [Done] and behavior is exactly {!run}'s.

    Installing the handoff, preempting and running a statement are
    the actions of one recovery loop, and all three self-heal under
    {!run}'s retry policy: a retry repeats its action (a statement's
    retry never becomes a preemption), and a replay before a resumed
    run's first checkpoint installs the handoff again.  Only
    {!All_devices_lost}, [Failure] (backoff budget exhausted, or
    device memory no chunking can satisfy) and [Invalid_argument]
    escape.

    [context] is where the run counts and compiles (default: a fresh
    one, as {!run} uses, so [result.metrics] holds this run alone); a
    caller running many jobs passes one context to all of them so each
    launch shape compiles once.  A device loss still empties its store.
    [result.faults] is this run's share either way. *)
