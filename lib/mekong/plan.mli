(** Engine plans (DESIGN.md §21).

    What one kernel launch, or one halo-tiled stencil loop, does on the
    machine, as a typed list of {!step}s built from the launch-plan
    cache's payload ({!Launch_cache.plan}) and the compiled kernel
    alone.  The module never touches the simulated machine or the
    virtual buffers: {!Multi_gpu} interprets the steps, charging time,
    stamps and counters and owning retry, replay and preemption.

    The base plan is the paper's Fig. 4 — [Sync_reads; Barrier; Launch;
    Update_writes], just [Barrier; Launch] without range patterns —
    and every engine mode
    is one transform of it, applied by {!of_launch} in this order:
    overlap drops the barrier, memory-pressure chunking replaces the
    four phases by one {!Chunk}, a reducible kernel appends a {!Merge}
    (and prepends {!Gather_bases} outside the calibration window),
    instrumented writes append a {!Shadow}, and autotuned runs wrap the
    launch in a {!Measure}.  {!halo} builds the temporally blocked
    schedule of a whole stencil loop. *)

type compiled_kernel = {
  ck_model : Model.kernel_model;
  ck_partitioned : Kir.t;
  ck_enums : Codegen.t;
  ck_shadow : Kir.t option;
      (** partitioned minimal clone collecting write sets at run time
          for arrays with unanalyzable writes (paper §11 fallback) *)
  ck_gate : Verify.verdict;
      (** the data-race verifier's verdict on the original kernel:
          [Safe] lets one partition's blocks execute domain-parallel
          with bit-identical results (DESIGN.md §13); [Reducible]
          routes atomic accumulation through partition-local buffers
          merged in ascending partition order (DESIGN.md §20); any
          other verdict runs blocks sequentially *)
}

val reducible : compiled_kernel -> (string * Kir.atomic_op) list
(** The arrays a [Reducible] kernel accumulates, with their operator
    ([[]] for every other verdict). *)

val launch_bindings :
  Kir.t -> grid:Dim3.t -> block:Dim3.t -> args:Host_ir.harg list ->
  (string * int) list
(** Scalar arguments plus block and grid dimensions of one launch. *)

val loop_context : Host_ir.t -> (string * string) list * (string -> int)
(** The double-buffer pairs a host program swaps (in program order) and
    each kernel's iteration context, by name: the product of the
    [Repeat] counts around its launch (1 outside any loop).  The
    autotuner's static scoring inputs, which {!Multi_gpu.link} records
    in the linked binary. *)

type env = {
  patterns : bool;
      (** range lists are evaluated and trackers consulted (alpha and
          beta configurations; gamma skips both) *)
  tiling : [ `One_d | `Two_d ];
  overlap : bool;  (** drop the barrier between exchange and launch *)
  autotune : bool;  (** autotuning is in effect (requires [patterns]) *)
  live : int list;  (** live device ids; partition slots map onto them *)
  mem_cap : int;  (** per-device capacity in bytes ([max_int] = none) *)
  elem_bytes : int;
  buf_len : string -> int;  (** element length of a buffer by name *)
}
(** Everything a plan depends on beyond the launch itself. *)

val choose :
  cfg:Gpusim.Config.t ->
  aliases:(string * string) list ->
  iters:int ->
  env ->
  compiled_kernel ->
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Host_ir.harg list ->
  Autotune.choice
(** The autotuner's choice for one launch over [env.live], scoring the
    partition plans of {!launch}'s planner (so needs [env.patterns]);
    [aliases] and [iters] are its {!loop_context}, as the linked binary
    records them. *)

val launch :
  ?choice:Autotune.choice ->
  ?min_chunks:int ->
  env ->
  compiled_kernel ->
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Host_ir.harg list ->
  Launch_cache.plan
(** The launch plan: non-empty partitions over [env.live] (the
    winner's partition plans as scored when [choice] is given, else the
    model's axis under [env.tiling]), their evaluated range lists and
    costs, and — under a finite capacity with [patterns] — each
    partition's memory-pressure chunks (at least [min_chunks] of them
    when it is chunked at all).  Raises [Failure] with a one-line
    diagnostic when no chunking fits the capacity, or when chunking
    would let one device read what another writes in the same
    launch. *)

type stamp =
  | Each  (** a fresh LRU stamp per partition *)
  | Shared  (** one stamp for the whole step *)

type step =
  | Sync_reads of { batch : bool; parts : Launch_cache.partition_plan list }
      (** bring each partition's read set up to date on its device
          ([batch]: pack fragmented segments into one copy) *)
  | Barrier  (** host synchronization with every device *)
  | Launch of Launch_cache.partition_plan list
      (** launch each partition; the list position is the partition's
          reducible accumulator slot *)
  | Update_writes of { stamp : stamp; parts : Launch_cache.partition_plan list }
      (** record each partition's write set in the trackers *)
  | Chunk of { batch : bool; chunks : Launch_cache.partition_plan list list }
      (** a barrier, then per partition (in order) its chunks one after
          another, each doing sync, reserve, launch and tracker update
          under one stamp *)
  | Gather_bases of (string * Kir.atomic_op) list
      (** a barrier, then the host gathers the pre-launch content of
          each reducible array (once per statement: a retry reuses it) *)
  | Merge of (string * Kir.atomic_op) list
      (** fold the partition accumulators into the gathered bases in
          partition order, then scatter the results back *)
  | Shadow of { arrays : string list; parts : Launch_cache.partition_plan list }
      (** run the instrumented clone per partition, check the collected
          write sets for cross-partition conflicts, update the trackers *)
  | Halo_exchange of { buf : string; depth : int; fetch : (int * (int * int)) list }
      (** one temporal block's exchange: per device, one widened range
          of the stencil input, all under one stamp *)
  | Swap of string * string  (** exchange two buffer bindings *)
  | Measure of float * step list
      (** run the steps and record their simulated seconds against the
          autotuner's prediction *)

type t = step list

val of_launch : env -> compiled_kernel -> Launch_cache.plan -> t
(** The steps of one launch.  Raises [Failure] for a chunked launch of
    a kernel that needs instrumented write collection. *)

val halo :
  env ->
  compiled_kernel ->
  Kir.t ->
  Launch_cache.plan ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Host_ir.harg list ->
  iters:int ->
  swap:string * string ->
  t option
(** The halo-tiled steps of [Repeat (iters, [Launch; Swap swap])]: per
    temporal block, [Measure [Halo_exchange; Barrier; (Launch;
    Update_writes; Swap) x depth]] with the launches widened by one
    redundant block row per side.  [None] when the plan's winner has no
    halo schedule or the kernel needs a per-launch merge or shadow. *)

val to_string : t -> string
(** One line per step; nested steps are indented.  Partitions print as
    [d<device>:<blocks>], chunks as [d<device>:<blocks>+<blocks>...]. *)
