(** Virtual buffers (paper §8.1–8.3): one device-local instance per
    device plus a segment tracker, kept coherent across kernel launches
    and memcopies.

    - host-to-device scatters linearly over all devices (§8.2);
    - device-to-host gathers each segment from its owner;
    - {!sync_for_read} fetches stale ranges before a kernel partition
      runs; {!update_for_write} records its writes (§8.3).

    {b Charges.}  {!h2d}, {!d2h}, {!sync_for_read} and
    {!update_for_write} charge their own bookkeeping (the "patterns" of
    §9.2): [ops × tracker_op_seconds + raw × range_seconds] as one
    [Machine.host_work ~category:"pattern"] after the call's last
    transfer, when positive.  [ops] is the call's ownership-tracker
    delta on this buffer and [raw] the caller's enumerator emissions.  A call that raises, and
    {!checkpoint}, {!restore}, {!recover}, {!spill} and
    {!ensure_resident}, charge nothing. *)

type t

type space
(** One run's buffers: the measurement config, the eviction pool and
    the run's counters. *)

val space : ?cfg:Rconfig.t -> Gpusim.Machine.t -> space
(** An empty space (default config [Rconfig.alpha]). *)

val members : space -> t list
(** The eviction pool: the live buffers, in name order.
    Test oracle window: test_mem "residency pool membership", "evict
    loop ensure == oracle loop". *)

val transfers : space -> int
val tracker_ops : space -> int
val evict_passes : space -> int
(** Transfers issued by syncs, charged ownership-tracker ops, and
    eviction passes: runs of {!ensure_resident}'s eviction loop, one
    per range whose gaps did not fit. *)

val create : space -> name:string -> len:int -> t
(** Allocate one full-size *virtual* instance on every device and join
    the pool: instances charge no device memory; only resident
    segments do (see {!ensure_resident}). *)

val name : t -> string
(** The buffer name it was created with.  Test oracle window: test_mem
    "residency capped vbuf matches flat model", "evict loop ensure ==
    oracle loop" and "pool membership" name evicted and pooled vbufs by
    it. *)

val len : t -> int
val tracker : t -> Tracker.t
(** The ownership tracker.  Test oracle window: test_runtime's vbuf and
    fault-recovery cases, test_mem "evict loop fault at the k-th
    victim". *)

val residency : t -> dev:int -> Tracker.t
(** The residency tracker of one device: owner 0 = not resident, a
    positive owner = resident, stamped by the last {!ensure_resident}
    that touched it.  Callers must not write it.  Test oracle window:
    test_mem "evict loop fault at the k-th victim" and "evict loop
    ensure == oracle loop". *)

val versions : t -> int array
(** The {!Tracker.version} of the ownership tracker, then of each
    device's residency tracker.  Versions are never reused, so an equal
    array means this buffer's trackers have not changed. *)

val instance : t -> int -> Gpusim.Buffer.t
(** The device-local instance for one device. *)

val free : t -> unit
(** Release the device memory and leave the pool. *)

val linear_chunk : len:int -> n_devices:int -> int -> (int * int)
(** The half-open element range device [d] owns under the linear
    distribution (the "predefined pattern" of §8.2). *)

val h2d : t -> src:float array option -> unit
(** Host-to-device memcpy: linear scatter plus tracker update.  Under
    fault injection the scatter targets only the surviving devices.
    Under a finite memory capacity each chunk's resident prefix is
    limited to what the target device can hold after evicting
    everything evictable from the pool; the remainder stays host-owned
    and is uploaded on demand.  [src = None] is a phantom host array
    (performance runs only).  Raises [Invalid_argument] naming the
    buffer, lengths and device count if the host array's length
    differs from [len t]. *)

val d2h : t -> dst:float array option -> unit
(** Device-to-host memcpy: gather every segment from its owner.
    Segments owned by [Tracker.host] are served from the buffer's host
    copy (already fresh — no device transfer).  Raises
    [Invalid_argument] naming the buffer if the host array's length
    differs from [len t]. *)

val sync_for_read :
  t -> dev:int -> batch:bool -> stamp:int -> raw:int ->
  ranges:(int * int) list -> int
(** Bring the element ranges up to date on device [dev], copying stale
    segments from their owners; returns the number of transfers issued.
    Ranges are clamped to the buffer (enumerators over-approximate);
    segments owned by [Tracker.host] are uploaded over PCIe from the
    host copy.  The read set is made resident first under [stamp] (see
    {!ensure_resident}).  [batch] groups stale segments per owner into
    packed transfers (pitched cudaMemcpy2D), which the 2-D tiling
    extension needs for its fragmented column halos. *)

val update_for_write :
  t -> dev:int -> stamp:int -> raw:int -> ranges:(int * int) list -> unit
(** Record that device [dev] wrote the ranges (clamped to the buffer).
    The ranges are made resident first under [stamp] — written bytes
    necessarily exist on the device — raising
    [Gpusim.Machine.Out_of_memory] if they cannot fit, rather than
    letting accounting drift. *)

(** {2 Segment residency under finite device memory}

    With a finite [Config.mem_capacity] only resident segments occupy
    device memory.  Residency is LRU-stamped; eviction writes
    device-owned segments back to the host copy (a simulated d2h — the
    traffic a real spill pays) and hands their ownership to
    [Tracker.host], while segments owned elsewhere are dropped free.
    Results stay bit-identical: the coherence protocol re-fetches
    whatever a read needs, from the host copy if need be. *)

val ensure_resident :
  ?stamp:int -> t -> dev:int -> ranges:(int * int) list -> unit
(** Make the ranges resident on [dev], one range at a time, evicting
    the globally coldest resident segments across the pool when the
    device is full.  The eviction loop only picks segments stamped
    before [stamp], so the ranges of one launch should share a [stamp]
    (a {!Gpusim.Machine.lru_tick}, drawn here when omitted): then no
    range evicts one made resident before it in the launch.  A range
    not yet reached is not protected: its resident segments keep their
    older stamps, so they can be evicted while an earlier range of the
    same call is made resident, and are made resident again, under the
    same stamp, when their range's turn comes.  Raises
    [Gpusim.Machine.Out_of_memory] when a full eviction of everything
    older still cannot make room. *)

val set_eviction_hook :
  (t -> dev:int -> stamp:int -> start:int -> stop:int -> unit) option -> unit
(** Test support: with [Some f], the eviction loop of
    {!ensure_resident} calls [f v ~dev ~stamp ~start ~stop] just before
    it evicts the resident segment [\[start, stop)] of [v], chosen as
    the coldest below [stamp] across the pool: the smallest stamp, the
    first vbuf in pool order among equals, then the lowest start.
    Test oracle window: test_mem "residency capped vbuf matches flat
    model" and "evict loop ensure == oracle loop" compare each
    eviction with their oracles' choice. *)

val spill : t -> dev:int -> ranges:(int * int) list -> int
(** Evict the resident parts of the ranges from [dev]; returns the
    bytes released.  Device-owned parts are written back to the host
    copy and counted as spill traffic.  The engine spills through
    {!ensure_resident}'s eviction loop.  Test oracle window: test_mem
    "evict loop ensure == oracle loop" rebuilds that loop from it and
    "residency capped vbuf matches flat model" spills directly;
    test_runtime's vbuf "host-owned segments" and "charge contract"
    check what one spill moves and charges. *)

val resident_bytes : t -> dev:int -> int
(** Bytes this vbuf currently holds resident on one device.
    Test oracle window: test_gpusim "memory uncapped hotspot
    residency", test_mem "evict loop fault at the k-th victim". *)

val check_residency : t -> unit
(** Validate the residency invariants (trackers sound, charges mirror
    resident elements, owned segments resident); raises [Failure] on
    violation.  Meaningful once the buffer has been distributed by an
    {!h2d}.
    Test oracle window: test_gpusim "memory uncapped hotspot
    residency", test_mem "residency capped vbuf matches flat model". *)

(** {2 Checkpoint / restore / recovery (fault tolerance)}

    Replica-freshness metadata is maintained only when the machine has
    fault injection attached, so fault-free runs pay nothing. *)

type snapshot
(** A host-side snapshot of the buffer's logical content. *)

val checkpoint : t -> snapshot
(** Snapshot the buffer: a tracker-directed d2h gather that charges its
    simulated transfer time (data only in functional mode). *)

val restore : t -> snapshot -> unit
(** Roll back to a snapshot: the host copy becomes the only fresh
    replica, so replayed reads re-upload over PCIe.  A freed buffer
    re-joins the pool. *)

val recover : t -> dev:int -> live:int list -> (int * int) list
(** Device [dev] was permanently lost.  Re-home every segment it owned
    onto a live device (or the host) whose replica is still fresh there
    — no data moves — and return the ranges with no fresh copy
    anywhere: those are lost and the engine must replay their
    producers. *)
