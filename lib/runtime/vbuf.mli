(** Virtual buffers (paper §8.1–8.3): one device-local instance per
    device plus a segment tracker, kept coherent across kernel launches
    and memcopies.

    - host-to-device scatters linearly over all devices (§8.2);
    - device-to-host gathers each segment from its owner;
    - {!sync_for_read} fetches stale ranges before a kernel partition
      runs; {!update_for_write} records its writes (§8.3);
    - both take an optional {!memo} slot per range list, which replays
      a recorded call while the trackers it read are unchanged; this
      module alone decides hit, miss, record and when the memo is off. *)

type t

val create : Gpusim.Machine.t -> name:string -> len:int -> t
(** Allocate one full-size *virtual* instance on every device of the
    machine: instances charge no device memory; only resident segments
    do (see {!ensure_resident}). *)

val name : t -> string
val len : t -> int
val tracker : t -> Tracker.t

val residency : t -> dev:int -> Tracker.t
(** The residency tracker of one device: owner 0 = not resident, a
    positive owner = resident, stamped by the last {!ensure_resident}
    that touched it.  Tests read it; callers must not write it. *)

val instance : t -> int -> Gpusim.Buffer.t
(** The device-local instance for one device. *)

val n_devices : t -> int
val free : t -> unit

val linear_chunk : len:int -> n_devices:int -> int -> (int * int)
(** The half-open element range device [d] owns under the linear
    distribution (the "predefined pattern" of §8.2). *)

val h2d : ?cfg:Rconfig.t -> ?pool:t list -> t -> src:float array option -> unit
(** Host-to-device memcpy: linear scatter plus tracker update.  Under
    fault injection the scatter targets only the surviving devices.
    Under a finite memory capacity each chunk's resident prefix is
    limited to what the target device can hold after evicting
    everything evictable from [pool]; the remainder stays host-owned
    and is uploaded on demand.  [src = None] is a phantom host array
    (performance runs only).  Raises [Invalid_argument] naming the
    buffer, lengths and device count if the host array's length
    differs from [len t]. *)

val d2h : ?cfg:Rconfig.t -> t -> dst:float array option -> unit
(** Device-to-host memcpy: gather every segment from its owner.
    Segments owned by [Tracker.host] are served from the buffer's host
    copy (already fresh — no device transfer).  Raises
    [Invalid_argument] naming the buffer if the host array's length
    differs from [len t]. *)

(** {2 The sync memo}

    A caller that issues the same range list again and again (the
    engine, per range list of a cached launch plan) can keep a {!memo}
    slot with it and pass it to
    {!sync_for_read} and {!update_for_write}.  The slot records what a
    call did on its device — the transfers it issued and the
    ownership-tracker ops it performed — keyed by the versions
    ({!Tracker.version}) of the buffer's ownership tracker and of its
    residency tracker on that device, and only when the call left both
    as it found them.  A later call that finds both at a recorded pair
    is a hit: it issues the recorded transfers in order, through the
    same calls a walk makes, and adds the recorded ops to the tracker's
    {!Tracker.ops}, so a caller charging ops deltas charges the same.
    It skips the range clamp, {!ensure_resident} and the tracker walk
    and writes, which would find and change nothing.

    The memo is off (the slot is not looked up) where this module keeps
    state the key does not cover: replica validity under fault
    injection and LRU stamps under a finite [Config.mem_capacity].
    Batched syncs never use it. *)

type memo
(** One range list's slot: its four latest outcomes, since a [Swap]
    alternating one name between two buffers needs two. *)

val memo : unit -> memo
(** An empty slot. *)

type memo_stats = { mutable hits : int; mutable misses : int }
(** Lookups counted by the calls this is passed to: the per-run
    [cache.sync_hits] and [cache.sync_misses]. *)

val sync_for_read :
  ?cfg:Rconfig.t -> ?batch:bool -> ?pool:t list -> ?stamp:int ->
  ?memo:memo -> ?stats:memo_stats -> t -> dev:int ->
  ranges:(int * int) list -> int
(** Bring the element ranges up to date on device [dev], copying stale
    segments from their owners; returns the number of transfers issued.
    Ranges are clamped to the buffer (enumerators over-approximate);
    segments owned by [Tracker.host] are uploaded over PCIe from the
    host copy.  The read set is made resident first (see
    {!ensure_resident}; [pool]/[stamp] are passed through).  [batch]
    groups stale segments per owner into packed transfers (pitched
    cudaMemcpy2D), which the 2-D tiling extension needs for its
    fragmented column halos; a batched sync never consults [memo]. *)

val update_for_write :
  ?cfg:Rconfig.t -> ?pool:t list -> ?stamp:int -> ?memo:memo ->
  ?stats:memo_stats -> t -> dev:int -> ranges:(int * int) list -> unit
(** Record that device [dev] wrote the ranges (clamped to the buffer).
    The ranges are made resident first — written bytes necessarily
    exist on the device — raising [Gpusim.Machine.Out_of_memory] if
    they cannot fit, rather than letting accounting drift. *)

(** {2 Segment residency under finite device memory}

    With a finite [Config.mem_capacity] only resident segments occupy
    device memory.  Residency is LRU-stamped; eviction writes
    device-owned segments back to the host copy (a simulated d2h — the
    traffic a real spill pays) and hands their ownership to
    [Tracker.host], while segments owned elsewhere are dropped free.
    Results stay bit-identical: the coherence protocol re-fetches
    whatever a read needs, from the host copy if need be. *)

val ensure_resident :
  ?cfg:Rconfig.t -> ?pool:t list -> ?stamp:int -> t -> dev:int ->
  ranges:(int * int) list -> unit
(** Make the ranges resident on [dev], evicting the globally coldest
    resident segments across [pool] (plus this vbuf) when the device
    is full.  All ranges of one launch should share a [stamp] (one
    {!Gpusim.Machine.lru_tick}) so none of them can evict another.
    Raises [Gpusim.Machine.Out_of_memory] when a full eviction of
    everything older still cannot make room. *)

val set_eviction_hook :
  (t -> dev:int -> stamp:int -> start:int -> stop:int -> unit) option -> unit
(** Test support: with [Some f], the eviction loop of
    {!ensure_resident} calls [f v ~dev ~stamp ~start ~stop] just before
    it evicts the resident segment [\[start, stop)] of [v], chosen as
    the coldest below [stamp] across the pool: the smallest stamp, the
    first vbuf in pool order among equals, then the lowest start. *)

val spill :
  ?cfg:Rconfig.t -> t -> dev:int -> ranges:(int * int) list -> int
(** Evict the resident parts of the ranges from [dev]; returns the
    bytes released.  Device-owned parts are written back to the host
    copy and counted as spill traffic. *)

val resident_bytes : t -> dev:int -> int
(** Bytes this vbuf currently holds resident on one device. *)

val check_residency : t -> unit
(** Validate the residency invariants (trackers sound, charges mirror
    resident elements, owned segments resident); raises [Failure] on
    violation.  Meaningful once the buffer has been distributed by an
    {!h2d}. *)

(** {2 Checkpoint / restore / recovery (fault tolerance)}

    Replica-freshness metadata is maintained only when the machine has
    fault injection attached, so fault-free runs pay nothing. *)

type snapshot
(** A host-side snapshot of the buffer's logical content. *)

val checkpoint : ?cfg:Rconfig.t -> t -> snapshot
(** Snapshot the buffer: a tracker-directed d2h gather that charges its
    simulated transfer time (data only in functional mode). *)

val restore : t -> snapshot -> unit
(** Roll back to a snapshot: the host copy becomes the only fresh
    replica, so replayed reads re-upload over PCIe. *)

val recover : t -> dev:int -> live:int list -> (int * int) list
(** Device [dev] was permanently lost.  Re-home every segment it owned
    onto a live device (or the host) whose replica is still fresh there
    — no data moves — and return the ranges with no fresh copy
    anywhere: those are lost and the engine must replay their
    producers. *)

val pp : Format.formatter -> t -> unit
