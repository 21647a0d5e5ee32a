(** The multi-GPU machine simulator.

    Every device has a compute stream and dual (in/out) copy engines;
    all transfers contend for a shared PCIe fabric; kernels run at a
    throughput derated by the number of active devices (K80 autoboost).
    Transfers respect default-stream ordering against the compute work
    of the devices they touch.

    In functional mode buffers carry real data and kernels execute
    their element code (bit-exact results); in performance mode only
    clocks and statistics advance. *)

type t

(** One entry of the optional execution trace, the simulator's only
    per-operation record.  [`Host category] is one op on the host
    timeline (an issue, a sync, or charged host work);
    [`Fabric lane] is one fabric leg of a transfer, [lane] indexing
    {!link_timelines}. *)
type event = {
  ev_kind :
    [ `Kernel | `H2d | `D2h | `P2p | `Fault | `Mem | `Host of string
    | `Fabric of int ];
  ev_src : int;  (** device id, or -1 for the host (and host/fabric ops) *)
  ev_dst : int;
  ev_bytes : int;
      (** 0 for kernels and host ops; bytes in use for [`Mem]; the
          bytes the leg carried for [`Fabric] *)
  ev_start : float;
  ev_finish : float;
}

(** A snapshot of the machine's counters, taken by {!stats}. *)
type stats = {
  h2d_bytes : int;
  d2h_bytes : int;
  p2p_bytes : int;
  n_transfers : int;
  n_launches : int;
  n_faults : int;  (** transient faults and device losses observed *)
  faulted_transfers : int;
      (** transfers that paid their wire time but failed transiently;
          their bytes are included in the h2d/d2h/p2p counters and the
          pair matrix (the traffic really crossed the fabric), so
          seconds/bytes reconciliation stays exact under faults *)
  faulted_bytes : int;  (** bytes moved by those transfers *)
  spill_bytes : int;  (** bytes evicted device->host under pressure *)
  n_spills : int;  (** spill operations *)
  kernel_seconds : float;
  pattern_seconds : float;
  transfer_seconds : float;
}

exception Transient_fault of { op : string; device : int }
(** The operation consumed its simulated time but produced nothing;
    retrying is safe and the fault layer bounds consecutive failures. *)

exception Device_lost of int
(** The device fell off the bus; it stays lost, and every subsequent
    operation touching it raises again. *)

exception Out_of_memory of { device : int; requested : int; free : int }
(** A reservation would push [device] past its configured capacity;
    [free] is what remained.  Callers treat it as a request to make
    room (spill, chunk), not a crash. *)

val create : ?functional:bool -> ?arena:Buffer.arena -> Config.t -> t
(** Build a machine over a config (validated via {!Config.validate}).
    A functional machine given [arena] draws its buffers' data from it
    (see {!release}); a performance machine ignores it. *)

val config : t -> Config.t
val is_functional : t -> bool
val n_devices : t -> int
val stats : t -> stats
(** The counters as of now; later operations do not update a snapshot
    already taken. *)

val inject_faults : t -> Faults.t -> unit
(** Attach fault-injection state; without it the hardware is ideal. *)

val fault_state : t -> Faults.t option

val device_lost : t -> int -> bool
(** Has this device been permanently lost? *)

val live_devices : t -> int list
(** Devices still on the bus, in id order. *)

val alloc : ?charge:bool -> t -> device:int -> len:int -> Buffer.t
(** Allocate a buffer on a device.  With [charge] (the default) its
    bytes are reserved against the device's capacity and
    [Out_of_memory] is raised when they do not fit; with [~charge:false]
    the buffer is *virtual* — address space only, accounted segment-wise
    by the caller through {!mem_reserve}/{!mem_release}. *)

val free : t -> Buffer.t -> unit
(** Free a buffer, releasing whatever bytes its allocation charged. *)

val release : t -> unit
(** The owner is done with the machine: every array it drew from its
    arena goes back, those of freed buffers too, and any later
    {!alloc} raises [Invalid_argument].  No buffer of the machine may
    be read or written afterwards.  Arrays never go back at {!free}: a
    checkpoint restore frees every buffer and then revives the same
    instances.  Idempotent; without an arena it only marks the
    machine released. *)

val mem_capacity : t -> int
(** Per-device capacity in bytes ([max_int] = unlimited). *)

val mem_used : t -> int -> int
(** Bytes currently charged against one device.
    Test oracle window: test_gpusim "memory accounting", test_mem
    "evict loop fault at the k-th victim". *)

val mem_free : t -> int -> int
(** Remaining capacity of one device. *)

val mem_high_water : t -> int -> int
(** High-water mark of [mem_used] for one device. *)

val mem_reserve : t -> device:int -> bytes:int -> unit
(** Charge bytes against a device's capacity; raises [Out_of_memory]
    (after recording a [`Mem] trace event) when they do not fit.
    Crossing 90% of capacity records a MemPressure ([`Mem]) event. *)

val mem_release : t -> device:int -> bytes:int -> unit
(** Release previously reserved bytes; raises [Invalid_argument] when
    releasing more than is held (an accounting bug, never data). *)

val lru_tick : t -> int
(** Next value of a monotone counter; the runtime stamps resident
    segments with it to order evictions (higher = more recent). *)

val note_spill : t -> bytes:int -> unit
(** Account one spill operation of [bytes] evicted to the host. *)

val host_time : t -> float
(** Current host-thread time. *)

val device_time : t -> int -> float
(** Latest engine time of one device.
    Test oracle window: test_gpusim "timing kernel waves", "timing
    default-stream order" and "timing autoboost derate",
    test_minicuda "single_gpu machine reuse". *)

val elapsed : t -> float
(** Latest time across every engine and the host. *)

val synchronize : t -> unit
(** Host-side synchronization with every device: the host joins the
    latest engine, then pays the serial cudaSetDevice /
    cudaDeviceSynchronize cost per context — charged {e after} the
    devices drain, so sync cost is visible in timings and traces. *)

val host_work : t -> seconds:float -> category:string -> unit
(** Charge host-side computation (e.g. dependency resolution). *)

type evt = float
(** An event: the simulated completion time of an asynchronous
    operation.  The [*_async] operations return one and accept a
    [deps] list of them — explicit cross-stream dependencies, so a
    caller can order transfers and launches against each other without
    a host barrier.

    Stream semantics for transfers: with no [?deps], a transfer runs
    on the device's default stream — it waits the device's compute
    engine, like a plain cudaMemcpyAsync.  With [?deps] (even [[]]),
    it runs on a separate stream ordered only by its copy engine and
    the given events (a cudaStreamWaitEvent chain); the caller asserts
    those events cover every producer and consumer of the ranges it
    touches — double buffering is the usual way to make that true.
    Kernel launches always wait their device's copy engines
    (default-stream ordering); their [?deps] are additional. *)

val h2d : ?deps:evt list ->
  t -> src:float array -> src_off:int -> dst:Buffer.t -> dst_off:int ->
  len:int -> unit
(** Asynchronous host-to-device copy of [len] elements. *)

val h2d_async : ?deps:evt list ->
  t -> src:float array -> src_off:int -> dst:Buffer.t -> dst_off:int ->
  len:int -> evt
(** [h2d] returning the completion event. *)

val d2h : ?deps:evt list ->
  t -> src:Buffer.t -> src_off:int -> dst:float array -> dst_off:int ->
  len:int -> unit

val d2h_async : ?deps:evt list ->
  t -> src:Buffer.t -> src_off:int -> dst:float array -> dst_off:int ->
  len:int -> evt

val p2p : ?deps:evt list ->
  t -> src:Buffer.t -> src_off:int -> dst:Buffer.t -> dst_off:int ->
  len:int -> unit
(** Asynchronous device-to-device copy.  On the flat topology it
    stages through host memory, crossing the shared fabric twice; on
    an islands topology intra-island copies move directly over the
    island link and inter-island copies occupy both uplinks. *)

val p2p_async : ?deps:evt list ->
  t -> src:Buffer.t -> src_off:int -> dst:Buffer.t -> dst_off:int ->
  len:int -> evt

val p2p_multi : ?deps:evt list ->
  t -> src:Buffer.t -> dst:Buffer.t -> segments:(int * int * int) list -> unit
(** Packed device-to-device copy of [(src_off, dst_off, len)] segments
    (a pitched cudaMemcpy2D): the summed bytes move as one transfer,
    paying the latency once. *)

val kernel_duration :
  ?device:int -> t -> blocks:int -> ops_per_block:float -> float
(** Modelled duration of a kernel launch (wave model with autoboost
    derating).  [device] applies that device's [Config.device_speed]
    multiplier; omitted = 1.0 (a homogeneous device). *)

val set_active_devices : t -> int -> unit
(** Declare how many devices the workload keeps busy (drives the
    autoboost derate deterministically). *)

val launch : ?deps:evt list ->
  t -> device:int -> blocks:int -> ops_per_block:float ->
  run:(unit -> unit) -> unit
(** Launch a kernel asynchronously; [run] performs the functional
    element work and is invoked only in functional mode.  [deps] are
    extra events the kernel must wait for, besides the device's copy
    engines (default-stream ordering). *)

val launch_async : ?deps:evt list ->
  t -> device:int -> blocks:int -> ops_per_block:float ->
  run:(unit -> unit) -> evt
(** [launch] returning the kernel's completion event. *)

(** {2 Launch graphs}

    A graph is a recorded run of simulator calls that {!replay} issues
    again as one call, the way a CUDA graph replays a captured stream.
    It is a flat program with one entry per op: a copy with its
    resolved route and bytes, a kernel with its device and the
    duration its live launch modelled, host work with its seconds and
    category, and a host synchronization, plus the number of
    {!lru_tick} calls.  A replay issues each entry through the same
    internal code the live call used, with the same arguments, so it
    does the same float operations in the same order: simulated time,
    {!trace}, {!stats} and the byte matrix come out bit-identical to
    issuing the calls live on a machine in the same state.  What a
    live call settles before that point (range checks, the route
    lookup, the kernel's duration model, the fault draw) is not
    repeated.  Data never moves: graphs exist only on performance
    machines. *)

type graph

val capture : t -> (unit -> unit) -> graph option
(** [capture m f] runs [f], recording every call it makes on [m].
    [Some g] when every call can be replayed; [None] when [m] is
    functional, injects faults or records a causal DAG, when [f] made
    a call a graph cannot hold (a copy or launch with explicit
    [deps], an allocation, a free, a memory reservation or release, a
    spill, {!set_active_devices}), or when the active-device count
    changed, so that kernels were modelled at different derates.  If
    [f] raises, recording stops and the exception propagates.  Raises
    [Invalid_argument] when a capture is already running. *)

val replay : t -> graph -> periods:int -> int
(** [replay m g ~periods:k] advances [m] by [k] periods of a captured
    graph, on the machine that captured it, each as if its ops were
    issued again in order and the LRU counter advanced by its ticks.
    On an untraced machine, once a live period has moved the graph's
    whole scheduling state by one exact shift, the periods that shift
    provably repeats are folded: the clocks and link reservations move
    by a multiple of the shift, a charge tape recorded at capture adds
    the busy seconds again in their order, and the counters advance by
    whole periods (DESIGN.md §4).  Simulated time, {!stats}, the byte
    matrix and the LRU counter come out bit-identical to issuing every
    op; with tracing on every op is issued.  Returns the number of
    periods folded.  The caller guarantees that the calls the graph
    stands for would be made again: the graph does not know why they
    were made.  Raises [Invalid_argument] on another machine, during a
    capture, on a machine that is functional, injects faults or records
    a causal DAG, or when the active-device count differs from the
    capture's (the kernels' durations would differ). *)

val graph_ops : graph -> int
(** The number of simulator ops a graph replays. *)

val enable_trace : ?capacity:int -> t -> unit
(** Record, in one bounded ring buffer, every op the machine
    schedules: host issues, syncs and host work, fabric legs, kernels
    (faulted ones too) and transfers, plus fault and memory-pressure
    instants.  The default capacity is 65536.  The newest events
    survive and drops are counted, so every lane of the trace covers
    the same window and tracing is safe even on paper-scale sweeps. *)

val trace : t -> event list
(** The recorded events in the order they were recorded ([] when
    disabled).  That is per-engine schedule order, not a global time
    order: the host issues ahead of the devices, and a fabric leg may
    backfill before an earlier-admitted one. *)

val trace_dropped : t -> int
(** Events evicted from the bounded trace since it was enabled.
    Test oracle window: test_obs "machine trace ring bounded" and
    "machine trace lanes match busy time under faults", test_mekong's
    plan-cache and fault-tolerance cases. *)

val enable_causal : ?capacity:int -> t -> unit
(** Record every scheduled operation as a node of a causal DAG, with
    its dependency edges resolved at the source: awaited events map to
    the nodes that produced them, default-stream ordering to the
    engines' preceding ops, launches to the copy engines they wait,
    transfers to their host issue op and the fabric legs they occupy
    (link-contention stalls are recorded per node).  Bounded (default
    1,048,576 nodes); overflow drops the newest nodes and counts them
    — a truncated DAG is flagged, never silently analyzed. *)

val causal_enabled : t -> bool

val causal_dag : t -> Obs.Causal.dag option
(** Snapshot the recorded DAG ([None] when recording is off). *)

val with_phase : t -> string -> (unit -> 'a) -> 'a
(** Run [f] with causal nodes labelled with an engine phase (barrier,
    sync_reads, halo_exchange, ...), restoring the previous label
    (exception-safe).  The ["spill"] phase also switches a d2h's
    attribution category to spill. *)

val byte_matrix : t -> ((int * int) * int) list
(** Bytes moved per (src, dst) endpoint pair, sorted; -1 is the host.
    Always accounted (independent of tracing), charged at exactly the
    sites that charge [stats], so the totals reconcile with
    h2d/d2h/p2p bytes. *)

val publish_metrics : ?into:Obs.Metrics.t -> t -> unit
(** Snapshot [stats], the live-device count and the byte matrix into a
    metrics registry under stable ["gpusim.*"] names (default:
    {!Obs.Metrics.default}). *)

val host_timeline : t -> Timeline.t

val fabric_timeline : t -> Timeline.t
(** The flat shared bus.  Meaningful only on the [Config.Flat]
    topology; on an islands topology it stays empty — use
    {!link_timelines}.
    Test oracle window: test_gpusim "timing p2p double fabric" and
    "timing p2p same device", test_overlap "topology parallel island
    links". *)

val link_timelines : t -> (string * Timeline.t) list
(** Every contention lane of the fabric with its stable display name:
    [["bus", _]] on the flat topology; per-island [["isl<i>.link";
    "isl<i>.uplink"]] pairs (in island order) on an islands
    topology. *)

val link_reservations : t -> (string * (float * float) list) list
(** Each lane of {!link_timelines}, in the same order, with its live
    reservations as [(start, stop)] ({!Link.reservations}).
    Test oracle window: test_gpusim "timing launch graph fold ==
    replay". *)

val device_timelines : t -> int -> Timeline.t * Timeline.t * Timeline.t
(** (compute, copy-in, copy-out) engines of one device. *)

val pp_stats : Format.formatter -> stats -> unit
