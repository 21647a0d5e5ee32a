(* Virtual buffers (paper §8.1-8.3).

   A cudaMalloc in the original program becomes, in the partitioned
   program, one device-local instance per device plus a segment
   tracker.  Memcopies and kernel launches keep the instances coherent:

   - host-to-device becomes a 1:n scatter in a fixed linear
     distribution (the "predefined pattern" of §8.2);
   - device-to-host becomes an n:1 gather directed by the tracker;
   - before a kernel partition runs, its read set is walked and stale
     ranges are fetched from their owners (§8.3);
   - after it is launched, its write set is recorded in the tracker.

   The tracker does not represent shared copies, so repeatedly read
   shared data is re-transferred — the redundancy the paper calls out. *)

type t = {
  name : string;
  len : int; (* elements *)
  machine : Gpusim.Machine.t;
  instances : Gpusim.Buffer.t array; (* one full-size instance per device *)
  tracker : Tracker.t;
  residency : Tracker.t array;
      (* per-device segment residency under the machine's memory
         capacity.  The instances above are *virtual* (they charge no
         capacity); only resident segments are charged, and the owner
         field here is an LRU stamp: 0 = not resident, >0 = resident,
         higher = touched more recently.  On a capacity-limited machine
         these trackers are indexed by stamp, for [coldest]. *)
  charged : int array;
      (* bytes this vbuf currently holds reserved per device; mirrors
         the residency trackers exactly (checked by
         [check_residency]) *)
  mutable distributed : bool;
      (* an h2d has assigned real owners; before that the tracker's
         initial owner (device 0) is a placeholder that no residency
         invariant should be read into *)
  mutable host_copy : float array option;
      (* functional mirror of the last h2d source: segments owned by
         [Tracker.host] are served from here, never from a device
         instance (whose copy may be stale) *)
  mutable validity : Tracker.t array option;
      (* replica-freshness metadata, allocated only under fault
         injection: one tracker per device plus one for the host (last
         slot), owner 1 = that replica matches the buffer's current
         logical content over the segment, 0 = stale.  The ownership
         tracker has one owner per segment; this is what lets recovery
         find *other* fresh copies of what a lost device owned. *)
}

let create machine ~name ~len =
  let n = Gpusim.Machine.n_devices machine in
  (* Only a capacity-limited machine ever evicts, so only there does
     residency pay for the stamp index. *)
  let capped = Gpusim.Machine.mem_capacity machine < max_int in
  if capped && len > Tracker.max_indexed_len then
    invalid_arg
      (Printf.sprintf
         "Vbuf.create(%s): %d elements exceed the %d a capacity-limited \
          machine can track"
         name len Tracker.max_indexed_len);
  let residency () =
    if capped then Tracker.create_indexed ~len ~initial_owner:0
    else Tracker.create ~len ~initial_owner:0
  in
  {
    name;
    len;
    machine;
    instances =
      Array.init n (fun d ->
          Gpusim.Machine.alloc ~charge:false machine ~device:d ~len);
    tracker = Tracker.create ~len ~initial_owner:0;
    residency = Array.init n (fun _ -> residency ());
    charged = Array.make n 0;
    distributed = false;
    host_copy = None;
    validity = None;
  }

let name t = t.name
let len t = t.len
let tracker t = t.tracker
let residency t ~dev = t.residency.(dev)
let instance t d = t.instances.(d)
let n_devices t = Array.length t.instances

let elem_bytes t =
  (Gpusim.Machine.config t.machine).Gpusim.Config.elem_bytes

(* Whether a copy moves data as well as simulated time: always on a
   functional machine, else as the measurement config says. *)
let do_data ~cfg t =
  cfg.Rconfig.transfers || Gpusim.Machine.is_functional t.machine

(* Forget every resident segment of device [dev] without any writeback
   (used when a device dies, on restore, and on free). *)
let drop_residency t ~dev =
  if t.charged.(dev) > 0 then
    Gpusim.Machine.mem_release t.machine ~device:dev ~bytes:t.charged.(dev);
  t.charged.(dev) <- 0;
  Tracker.write t.residency.(dev) ~start:0 ~stop:t.len ~owner:0

let free t =
  for d = 0 to Array.length t.instances - 1 do
    drop_residency t ~dev:d
  done;
  Array.iter (fun b -> Gpusim.Machine.free t.machine b) t.instances

(* --- Replica-freshness tracking (fault tolerance only) ----------------- *)

(* Lazily allocated so fault-free runs pay nothing: the trackers exist
   only when the machine has fault injection attached.  Device
   instances start zero-filled and identical, so every device replica
   is born fresh; the host has no copy yet. *)
let validity t =
  match (t.validity, Gpusim.Machine.fault_state t.machine) with
  | (Some _ as v), _ -> v
  | None, None -> None
  | None, Some _ ->
    let n = n_devices t in
    let v =
      Array.init (n + 1) (fun i ->
          Tracker.create ~len:t.len ~initial_owner:(if i < n then 1 else 0))
    in
    t.validity <- Some v;
    t.validity

let host_slot t = n_devices t

(* [who] is a device id or [host_slot]: its replica of [start, stop) now
   matches the buffer's logical content. *)
let mark_fresh t ~who ~start ~stop =
  match validity t with
  | None -> ()
  | Some v -> Tracker.write v.(who) ~start ~stop ~owner:1

(* Every replica except [who]'s (a device id or [host_slot]) goes stale
   over [start, stop). *)
let mark_stale_others t ~who ~start ~stop =
  match validity t with
  | None -> ()
  | Some v ->
    Array.iteri
      (fun i tr -> if i <> who then Tracker.write tr ~start ~stop ~owner:0)
      v

(* The linear distribution: device d owns the d-th of n equal chunks
   (the last chunk absorbs the remainder). *)
let linear_chunk ~len ~n_devices d =
  let chunk = (len + n_devices - 1) / n_devices in
  let start = min len (d * chunk) in
  let stop = min len ((d + 1) * chunk) in
  (start, stop)

(* Host-array length check: a mismatch would otherwise surface as an
   off-by-some blit failure deep inside the scatter/gather loop; fail
   up front, naming the buffer. *)
let check_host_array t ~what a =
  if Array.length a <> t.len then
    invalid_arg
      (Printf.sprintf
         "Vbuf.%s(%s): host array has %d elements, buffer has %d across %d \
          devices"
         what t.name (Array.length a) t.len (n_devices t))

let rec in_bounds len = function
  | [] -> true
  | (start, stop) :: rest ->
    0 <= start && start < stop && stop <= len && in_bounds len rest

(* Clamp a range list to the buffer: enumerators over-approximate, so a
   range may start below 0 or reach past [len]; empty and fully
   out-of-bounds ranges are dropped (the tracker rejects them).  A list
   already in bounds, the common case, comes back as it is. *)
let clamp_ranges t ranges =
  if in_bounds t.len ranges then ranges
  else
    List.filter_map
      (fun (start, stop) ->
         let start = max 0 start and stop = min stop t.len in
         if stop > start then Some (start, stop) else None)
      ranges

(* --- Segment residency and spill-to-host ------------------------------- *)

(* Because the per-device instances are virtual, device memory is
   accounted segment-wise: [ensure_resident] charges the missing parts
   of a range (evicting the globally coldest resident segments of a
   caller-supplied pool of vbufs when the device is full) and [spill]
   evicts explicitly.  Evicting a segment the coherence tracker says
   this device *owns* must not lose the buffer's only fresh copy, so
   it is written back to the host copy first — a simulated d2h, which
   is exactly the traffic a real spill pays — and its ownership moves
   to [Tracker.host]; resident segments owned elsewhere are dropped
   free, since the protocol re-fetches them on the next read anyway.
   The LRU stamps are only ever compared by the eviction loop, so on an
   unlimited machine, where nothing evicts, [ensure_resident] writes a
   stamp only when a range gains bytes, and a range inside one resident
   segment costs it a single lookup.  Residency-tracker ops are never
   charged to simulated time. *)

let resident_bytes t ~dev =
  if dev < 0 || dev >= Array.length t.charged then 0 else t.charged.(dev)

(* Lazily materialize the host copy as a spill target.  Fresh zeroes
   are correct for any segment never written: instances are born
   zero-filled. *)
let spill_target t =
  match t.host_copy with
  | Some h -> h
  | None ->
    if Gpusim.Machine.is_functional t.machine then begin
      let h = Array.make t.len 0.0 in
      t.host_copy <- Some h;
      h
    end
    else [||]

(* Evict one segment [s, e) of [dev] whose residency stamp is positive
   throughout; returns the bytes released.  Device-owned parts are
   written back to the host copy (simulated d2h + ownership handover)
   and counted as spill traffic; the rest is dropped free. *)
let evict ~cfg t ~dev ~start:s ~stop:e =
  let eb = elem_bytes t in
  let do_data = do_data ~cfg t in
  List.iter
    (fun (o : Tracker.segment) ->
       if o.owner = dev then begin
         let os = o.Tracker.start and oe = o.Tracker.stop in
         (* d2h first: a transient fault aborts the spill before any
            tracker state changes, so a retry redoes it. *)
         if do_data then
           Gpusim.Machine.d2h t.machine ~src:t.instances.(dev) ~src_off:os
             ~dst:(spill_target t) ~dst_off:os ~len:(oe - os);
         Tracker.write t.tracker ~start:os ~stop:oe ~owner:Tracker.host;
         mark_fresh t ~who:(host_slot t) ~start:os ~stop:oe;
         Gpusim.Machine.note_spill t.machine ~bytes:((oe - os) * eb)
       end)
    (Tracker.query t.tracker ~start:s ~stop:e);
  (* The device's bytes are gone either way: its replica of the whole
     evicted range is stale from here on. *)
  (match validity t with
   | Some v -> Tracker.write v.(dev) ~start:s ~stop:e ~owner:0
   | None -> ());
  let bytes = (e - s) * eb in
  Gpusim.Machine.mem_release t.machine ~device:dev ~bytes;
  t.charged.(dev) <- t.charged.(dev) - bytes;
  Tracker.write t.residency.(dev) ~start:s ~stop:e ~owner:0;
  bytes

(* A spill runs under a "spill" span and machine phase.  Only the span
   recorder and the causal DAG observe either, so with both off callers
   run the spill bare and build no closures for it. *)
let traced t = Obs.Span.enabled () || Gpusim.Machine.causal_enabled t.machine

let in_spill t f =
  Obs.Span.with_span ~cat:"engine"
    ~sim:(fun () -> Gpusim.Machine.host_time t.machine)
    "spill"
    (fun () -> Gpusim.Machine.with_phase t.machine "spill" f)

(* Evict the resident parts of [start, stop) on [dev], as one spill;
   returns the bytes released. *)
let spill_range ~cfg t ~dev ~start ~stop =
  let resident =
    List.filter
      (fun (seg : Tracker.segment) -> seg.owner > 0)
      (Tracker.query t.residency.(dev) ~start ~stop)
  in
  let evict_all () =
    List.fold_left
      (fun acc (seg : Tracker.segment) ->
         acc + evict ~cfg t ~dev ~start:seg.Tracker.start ~stop:seg.Tracker.stop)
      0 resident
  in
  if resident = [] then 0 else if traced t then in_spill t evict_all
  else evict_all ()

let spill ?(cfg = Rconfig.alpha) t ~dev ~ranges =
  List.fold_left
    (fun acc (start, stop) -> acc + spill_range ~cfg t ~dev ~start ~stop)
    0 (clamp_ranges t ranges)

(* The globally coldest resident segment on [dev] across [pool] that
   is older than [stamp] (segments stamped by the in-progress ensure
   are never eviction candidates): the smallest stamp, the first vbuf
   in pool order among equals, and within that vbuf the lowest start
   ([Tracker.coldest]).  One index descent per vbuf. *)
let coldest pool ~dev ~stamp =
  List.fold_left
    (fun acc v ->
       if dev >= Array.length v.instances then acc
       else
         match Tracker.coldest v.residency.(dev) ~below:stamp with
         | None -> acc
         | Some seg -> (
             match acc with
             | Some (_, best) when best.Tracker.owner <= seg.owner -> acc
             | _ -> Some (v, seg)))
    None pool

(* Test support: see [set_eviction_hook] in the interface. *)
let eviction_hook = ref None
let set_eviction_hook f = eviction_hook := f

(* Make the ranges resident on [dev], evicting coldest-first from
   [pool] (plus this vbuf) when the device is full.  All ranges of one
   launch should share a [stamp] (one [Machine.lru_tick]) so none of
   them can evict another; raises [Machine.Out_of_memory] when even a
   full eviction of everything older cannot make room.  One residency
   walk per range finds its non-resident gaps, and one whole-range
   write stamps it.  When the gaps do not fit, that write comes before
   the eviction loop, so the loop cannot pick any part of the range;
   if the loop fails, the gaps are unstamped again, so the range's
   residency ends as if only its resident parts had been re-stamped. *)
let ensure_resident ?(cfg = Rconfig.alpha) ?(pool = []) ?stamp t ~dev ~ranges =
  let stamp =
    match stamp with Some s -> s | None -> Gpusim.Machine.lru_tick t.machine
  in
  let eb = elem_bytes t in
  let res = t.residency.(dev) in
  let unlimited = Gpusim.Machine.mem_capacity t.machine = max_int in
  (* A range inside one resident segment has no bytes to charge.  On
     an unlimited machine its stamp is not worth writing either, and on
     a capped one it is already this stamp when the segment carries it
     (the same launch ensured the range before, or an overlapping one):
     either way one lookup settles the range. *)
  let settled (start, stop) =
    let seg = Tracker.segment_at res start in
    seg.Tracker.stop >= stop
    && if unlimited then seg.owner > 0 else seg.owner = stamp
  in
  let make_resident (start, stop) =
    let gaps = ref [] in
    Tracker.iter_range res ~start ~stop (fun s e owner ->
        if owner = 0 then gaps := (s, e) :: !gaps);
    let needed =
      eb * List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 !gaps
    in
    let evicting = needed > Gpusim.Machine.mem_free t.machine dev in
    if evicting then begin
      Tracker.write res ~start ~stop ~owner:stamp;
      let pool = if List.memq t pool then pool else t :: pool in
      try
        while Gpusim.Machine.mem_free t.machine dev < needed do
          match coldest pool ~dev ~stamp with
          | Some (v, seg) ->
            let start = seg.Tracker.start and stop = seg.Tracker.stop in
            (match !eviction_hook with
             | Some f -> f v ~dev ~stamp ~start ~stop
             | None -> ());
            ignore
              (if traced v then
                 in_spill v (fun () -> evict ~cfg v ~dev ~start ~stop)
               else evict ~cfg v ~dev ~start ~stop)
          | None ->
            raise
              (Gpusim.Machine.Out_of_memory
                 {
                   device = dev;
                   requested = needed;
                   free = Gpusim.Machine.mem_free t.machine dev;
                 })
        done
      with exn ->
        List.iter
          (fun (s, e) -> Tracker.write res ~start:s ~stop:e ~owner:0)
          !gaps;
        raise exn
    end;
    if needed > 0 then begin
      Gpusim.Machine.mem_reserve t.machine ~device:dev ~bytes:needed;
      t.charged.(dev) <- t.charged.(dev) + needed
    end;
    (* Without a capacity limit no eviction ever runs, so stamps are
       never compared: a range already fully resident keeps its old
       ones. *)
    if (not evicting) && (needed > 0 || not unlimited) then
      Tracker.write res ~start ~stop ~owner:stamp
  in
  List.iter
    (fun range ->
       if not (settled range) then make_resident range)
    (clamp_ranges t ranges)

(* How many elements of [start, stop) could be made resident on [dev]
   if everything evictable were evicted: the h2d scatter uses this to
   upload only the prefix that can exist on the device at all, leaving
   the remainder host-owned.  Every resident segment is evictable (all
   stamps come from [Machine.lru_tick], so each is older than the one
   the scatter's ensure will draw), so the evictable bytes are the
   pool's charges on [dev], less the target range's own resident
   parts, which cost nothing to keep. *)
let resident_budget t ~pool ~dev ~start ~stop =
  let pool = if List.memq t pool then pool else t :: pool in
  let eb = elem_bytes t in
  let segs = Tracker.query t.residency.(dev) ~start ~stop in
  let kept =
    List.fold_left
      (fun acc (seg : Tracker.segment) ->
         if seg.owner > 0 then acc + (seg.Tracker.stop - seg.Tracker.start)
         else acc)
      0 segs
  in
  let charged =
    List.fold_left
      (fun acc v ->
         if dev >= Array.length v.instances then acc else acc + v.charged.(dev))
      0 pool
  in
  let budget =
    ref (Gpusim.Machine.mem_free t.machine dev + charged - (kept * eb))
  in
  let fit = ref start in
  (try
     List.iter
       (fun (seg : Tracker.segment) ->
          let len = seg.Tracker.stop - seg.Tracker.start in
          if seg.owner > 0 then fit := seg.Tracker.stop
          else begin
            let affordable = !budget / eb in
            if affordable >= len then begin
              budget := !budget - (len * eb);
              fit := seg.Tracker.stop
            end
            else begin
              fit := seg.Tracker.start + affordable;
              raise Exit
            end
          end)
       segs
   with Exit -> ());
  max start (min stop !fit)

(* Residency invariants, checked by tests after every step of a random
   schedule:
   - the residency trackers are structurally sound;
   - the charged bytes mirror the resident element counts exactly;
   - once distributed, every segment the coherence tracker assigns to a
     device is resident there (we never account away the only copy). *)
let check_residency t =
  Array.iteri
    (fun d res ->
       Tracker.check_invariants res;
       let resident =
         List.fold_left
           (fun acc (s : Tracker.segment) ->
              if s.owner > 0 then acc + (s.Tracker.stop - s.Tracker.start)
              else acc)
           0
           (Tracker.query res ~start:0 ~stop:t.len)
       in
       if resident * elem_bytes t <> t.charged.(d) then
         failwith
           (Printf.sprintf
              "Vbuf.check_residency(%s): device %d charges %d bytes for %d \
               resident elements"
              t.name d t.charged.(d) resident))
    t.residency;
  if t.distributed then
    List.iter
      (fun (s : Tracker.segment) ->
         if s.owner >= 0 then
           List.iter
             (fun (r : Tracker.segment) ->
                if r.owner = 0 then
                  failwith
                    (Printf.sprintf
                       "Vbuf.check_residency(%s): [%d,%d) owned by device %d \
                        but not resident there"
                       t.name r.Tracker.start r.Tracker.stop s.owner))
             (Tracker.query t.residency.(s.owner) ~start:s.Tracker.start
                ~stop:s.Tracker.stop))
      (Tracker.segments t.tracker)

(* The devices a scatter targets: all of them on ideal hardware, the
   survivors under fault injection (a lost device can accept no data). *)
let scatter_targets t =
  match Gpusim.Machine.fault_state t.machine with
  | None -> List.init (n_devices t) Fun.id
  | Some _ -> (
      match Gpusim.Machine.live_devices t.machine with
      | [] -> invalid_arg ("Vbuf.h2d(" ^ t.name ^ "): all devices lost")
      | live -> live)

(* Host-to-device memcpy: scatter [src] linearly over the (live)
   devices and record ownership.  [src = None] is a phantom host array
   (performance runs at paper scale never materialize host data). *)
let h2d ?(cfg = Rconfig.alpha) ?(pool = []) t ~src =
  (match src with
   | Some a -> check_host_array t ~what:"h2d" a
   | None ->
     if Gpusim.Machine.is_functional t.machine then
       invalid_arg ("Vbuf.h2d(" ^ t.name ^ "): phantom host array in a functional run"));
  (match src with
   | Some a -> t.host_copy <- Some (Array.copy a)
   | None -> ());
  let src = Option.value src ~default:[||] in
  let do_data = do_data ~cfg t in
  let live = scatter_targets t in
  let n = List.length live in
  List.iteri
    (fun i d ->
       let start, stop = linear_chunk ~len:t.len ~n_devices:n i in
       if stop > start then begin
         (* Under a finite capacity only the prefix of the chunk that
            can exist on the device at all is uploaded; the remainder
            stays host-owned (the source array *is* the fresh copy), so
            a scatter chunk larger than the device is never fatal. *)
         let fit =
           if cfg.Rconfig.patterns then begin
             let fit = resident_budget t ~pool ~dev:d ~start ~stop in
             if fit > start then
               ensure_resident ~cfg ~pool t ~dev:d ~ranges:[ (start, fit) ];
             fit
           end
           else stop
         in
         if do_data && fit > start then
           Gpusim.Machine.h2d t.machine ~src ~src_off:start ~dst:t.instances.(d)
             ~dst_off:start ~len:(fit - start);
         if cfg.Rconfig.patterns then begin
           t.distributed <- true;
           (* Nothing fits when even one element exceeds the capacity. *)
           if fit > start then Tracker.write t.tracker ~start ~stop:fit ~owner:d;
           if stop > fit then
             Tracker.write t.tracker ~start:fit ~stop ~owner:Tracker.host
         end;
         (* The chunk's new logical content lives on its target device
            (up to [fit]) and in host memory; every other replica is
            now stale. *)
         mark_stale_others t ~who:d ~start ~stop;
         (if fit > start then mark_fresh t ~who:d ~start ~stop:fit);
         mark_fresh t ~who:(host_slot t) ~start ~stop
       end)
    live

(* Device-to-host memcpy: gather every segment from its owner. *)
let d2h ?(cfg = Rconfig.alpha) t ~dst =
  (match dst with
   | Some a -> check_host_array t ~what:"d2h" a
   | None ->
     if Gpusim.Machine.is_functional t.machine then
       invalid_arg ("Vbuf.d2h(" ^ t.name ^ "): phantom host array in a functional run"));
  let dst = Option.value dst ~default:[||] in
  let segs =
    if cfg.Rconfig.patterns then Tracker.query t.tracker ~start:0 ~stop:t.len
    else [ { Tracker.start = 0; stop = t.len; owner = 0 } ]
  in
  List.iter
    (fun { Tracker.start; stop; owner } ->
       if owner = Tracker.host then begin
         (* The host copy is already fresh: no device gather, no
            simulated transfer.  Functional runs still materialize the
            segment in [dst]. *)
         if Gpusim.Machine.is_functional t.machine then
           match t.host_copy with
           | Some h -> Array.blit h start dst start (stop - start)
           | None ->
             invalid_arg
               ("Vbuf.d2h: host-owned segment of " ^ t.name
                ^ " has no host data")
       end
       else if do_data ~cfg t then
         Gpusim.Machine.d2h t.machine ~src:t.instances.(owner) ~src_off:start
           ~dst ~dst_off:start ~len:(stop - start))
    segs

(* Upload one host-owned segment onto device [dev]: host data never
   lives in a device instance, so it moves over PCIe, not peer-to-peer. *)
let fetch_from_host t ~dev ~start ~len ~do_data =
  if do_data then begin
    let src =
      match t.host_copy with
      | Some h -> h
      | None ->
        if Gpusim.Machine.is_functional t.machine then
          invalid_arg
            ("Vbuf.sync_for_read: host-owned segment of " ^ t.name
             ^ " has no host data")
        else [||]
    in
    Gpusim.Machine.h2d t.machine ~src ~src_off:start ~dst:t.instances.(dev)
      ~dst_off:start ~len
  end

(* Copy the stale segment [s, e), freshest at [owner] (a device or
   [Tracker.host]), onto device [dev]: one transfer of the unbatched
   sync, issued alike by a live walk and by a memo hit. *)
let fetch t ~dev ~do_data owner s e =
  if owner = Tracker.host then
    fetch_from_host t ~dev ~start:s ~len:(e - s) ~do_data
  else if do_data then
    Gpusim.Machine.p2p t.machine ~src:t.instances.(owner) ~src_off:s
      ~dst:t.instances.(dev) ~dst_off:s ~len:(e - s);
  mark_fresh t ~who:dev ~start:s ~stop:e

(* --- The sync memo ------------------------------------------------------ *)

(* What one unbatched sync or one write of a range list did on one
   device, recorded only when it left the buffer's ownership tracker
   and the device's residency tracker at the versions it found them
   at.  Versions are never reused, so the pair names one state of one
   buffer on one device. *)
type outcome = {
  o_owner : int; (* ownership-tracker version *)
  o_resident : int; (* residency-tracker version of the device *)
  o_ops : int; (* ownership-tracker ops the call charged *)
  o_transfers : int array; (* (owner, start, stop) triples, in order *)
}

(* Newest first, at most [memo_slots]: a [Swap] alternating one name
   between two buffers needs two. *)
type memo = { mutable outcomes : outcome list }
type memo_stats = { mutable hits : int; mutable misses : int }

let memo () = { outcomes = [] }
let memo_slots = 4

(* What a call finds in its slot: no lookup, a recorded outcome, or a
   miss at the versions the call starts from. *)
type lookup = Off | Hit of outcome | Miss of memo * int * int

let rec recall slot owner resident = function
  | [] -> Miss (slot, owner, resident)
  | o :: rest ->
    if o.o_owner = owner && o.o_resident = resident then Hit o
    else recall slot owner resident rest

(* The memo is off where this module keeps state the key does not
   cover: the validity trackers of a faulty machine and the LRU stamps
   of a capacity-limited one. *)
let lookup memo t ~dev =
  match memo with
  | Some slot
    when Option.is_none (Gpusim.Machine.fault_state t.machine)
         && Gpusim.Machine.mem_capacity t.machine = max_int ->
    recall slot (Tracker.version t.tracker)
      (Tracker.version t.residency.(dev)) slot.outcomes
  | _ -> Off

(* A hit issues the recorded transfers through the same [fetch] a walk
   uses and counts the recorded ops on the ownership tracker, skipping
   everything else: the clamp, the residency check and the tracker walk
   and writes. *)
let replay ?stats t ~dev ~do_data o =
  Option.iter (fun s -> s.hits <- s.hits + 1) stats;
  Tracker.add_ops t.tracker o.o_ops;
  let tr = o.o_transfers in
  let n = Array.length tr / 3 in
  for i = 0 to n - 1 do
    fetch t ~dev ~do_data tr.(3 * i) tr.((3 * i) + 1) tr.((3 * i) + 2)
  done;
  n

(* A miss runs [walk record], which reports each transfer it issues to
   [record], and records the outcome if the call left both trackers at
   the versions it started from. *)
let record ?stats slot ~owner ~resident t ~dev walk =
  Option.iter (fun s -> s.misses <- s.misses + 1) stats;
  let log = ref [] and before = Tracker.ops t.tracker in
  let n = walk (Some (fun o s e -> log := e :: s :: o :: !log)) in
  if
    Tracker.version t.tracker = owner
    && Tracker.version t.residency.(dev) = resident
  then
    slot.outcomes <-
      {
        o_owner = owner;
        o_resident = resident;
        o_ops = Tracker.ops t.tracker - before;
        o_transfers = Array.of_list (List.rev !log);
      }
      :: List.filteri (fun i _ -> i < memo_slots - 1) slot.outcomes;
  n

(* Bring the given element ranges up to date on device [dev] by copying
   stale segments from their owners (paper §8.3).  Returns the number
   of transfers issued; [record] sees each unbatched one as it is
   issued.

   With [batch] the stale segments are grouped per owner and moved as
   one packed transfer each (a pitched cudaMemcpy2D) — used by the 2-D
   tiling extension, whose column halos fragment into thousands of
   tiny row segments that would otherwise pay a latency each. *)
let sync_walk ~cfg ~batch ~pool ?stamp ~do_data t ~dev ~ranges record =
  if not cfg.Rconfig.patterns then 0
  else begin
    let transfers = ref 0 in
    let ranges = clamp_ranges t ranges in
    (* Fetched segments will land in this device's instance: charge the
       whole read set as resident before any data moves. *)
    ensure_resident ~cfg ~pool ?stamp t ~dev ~ranges;
    if batch then begin
      let per_owner : (int, (int * int * int) list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iter
        (fun (start, stop) ->
           Tracker.iter_range t.tracker ~start ~stop (fun s e owner ->
               if owner = Tracker.host then begin
                 (* Host-owned segments cannot join a packed
                    device-to-device transfer; upload each directly. *)
                 incr transfers;
                 fetch t ~dev ~do_data owner s e
               end
               else if owner <> dev then begin
                 let slot =
                   match Hashtbl.find_opt per_owner owner with
                   | Some l -> l
                   | None ->
                     let l = ref [] in
                     Hashtbl.replace per_owner owner l;
                     l
                 in
                 slot := (s, s, e - s) :: !slot
               end))
        ranges;
      Hashtbl.iter
        (fun owner segs ->
           incr transfers;
           if do_data then
             Gpusim.Machine.p2p_multi t.machine ~src:t.instances.(owner)
               ~dst:t.instances.(dev) ~segments:!segs;
           List.iter
             (fun (s, _, l) -> mark_fresh t ~who:dev ~start:s ~stop:(s + l))
             !segs)
        per_owner
    end
    else
      List.iter
        (fun (start, stop) ->
           Tracker.iter_range t.tracker ~start ~stop (fun s e owner ->
               if owner <> dev then begin
                 incr transfers;
                 fetch t ~dev ~do_data owner s e;
                 match record with Some f -> f owner s e | None -> ()
               end))
        ranges;
    !transfers
  end

(* Batched syncs always walk. *)
let sync_for_read ?(cfg = Rconfig.alpha) ?(batch = false) ?(pool = []) ?stamp
    ?memo ?stats t ~dev ~ranges =
  let do_data = do_data ~cfg t in
  match lookup (if batch then None else memo) t ~dev with
  | Hit o -> replay ?stats t ~dev ~do_data o
  | Off -> sync_walk ~cfg ~batch ~pool ?stamp ~do_data t ~dev ~ranges None
  | Miss (slot, owner, resident) ->
    record ?stats slot ~owner ~resident t ~dev
      (sync_walk ~cfg ~batch ~pool ?stamp ~do_data t ~dev ~ranges)

(* Record that device [dev] wrote the given element ranges.  The
   written bytes necessarily exist on the device, so the ranges are
   made resident first — a backstop that raises [Out_of_memory] if the
   engine's footprint planning under-estimated, rather than letting
   the accounting drift from reality. *)
let write_walk ~cfg ~pool ?stamp t ~dev ~ranges =
  if cfg.Rconfig.patterns then begin
    let ranges = clamp_ranges t ranges in
    ensure_resident ~cfg ~pool ?stamp t ~dev ~ranges;
    List.iter
      (fun (start, stop) ->
         Tracker.write t.tracker ~start ~stop ~owner:dev;
         (* The write invalidates every other replica. *)
         mark_stale_others t ~who:dev ~start ~stop;
         mark_fresh t ~who:dev ~start ~stop)
      ranges
  end

(* A write issues no transfers, so its outcomes record none. *)
let update_for_write ?(cfg = Rconfig.alpha) ?(pool = []) ?stamp ?memo ?stats t
    ~dev ~ranges =
  match lookup memo t ~dev with
  | Hit o -> ignore (replay ?stats t ~dev ~do_data:false o)
  | Off -> write_walk ~cfg ~pool ?stamp t ~dev ~ranges
  | Miss (slot, owner, resident) ->
    ignore
      (record ?stats slot ~owner ~resident t ~dev (fun _ ->
           write_walk ~cfg ~pool ?stamp t ~dev ~ranges;
           0))

(* --- Checkpoint / restore / recovery (fault tolerance) ----------------- *)

(* A host-side snapshot of the buffer's logical content.  Taking one is
   a tracker-directed d2h gather, so it charges the simulated transfer
   time it would really cost; in performance mode only the clocks
   move. *)
type snapshot = { ck_name : string; ck_len : int; ck_data : float array option }

let checkpoint ?(cfg = Rconfig.alpha) t =
  let data =
    if Gpusim.Machine.is_functional t.machine then begin
      let a = Array.make t.len 0.0 in
      d2h ~cfg t ~dst:(Some a);
      Some a
    end
    else begin
      d2h ~cfg t ~dst:None;
      None
    end
  in
  { ck_name = t.name; ck_len = t.len; ck_data = data }

(* Roll the buffer back to a snapshot: the host copy becomes the
   freshest (and only fresh) replica, so subsequent reads re-upload
   over PCIe — replay pays the realistic re-distribution cost. *)
let restore t ck =
  if ck.ck_len <> t.len || ck.ck_name <> t.name then
    invalid_arg
      (Printf.sprintf "Vbuf.restore(%s): snapshot is of %s (%d elements)"
         t.name ck.ck_name ck.ck_len);
  (match ck.ck_data with
   | Some a -> t.host_copy <- Some (Array.copy a)
   | None -> ());
  Tracker.write t.tracker ~start:0 ~stop:t.len ~owner:Tracker.host;
  (* Every device copy is now stale, so nothing is worth keeping
     resident: replayed reads re-upload (and re-charge) on demand. *)
  for d = 0 to Array.length t.instances - 1 do
    drop_residency t ~dev:d
  done;
  match validity t with
  | None -> ()
  | Some v ->
    let host = host_slot t in
    Array.iteri
      (fun i tr ->
         Tracker.write tr ~start:0 ~stop:t.len
           ~owner:(if i = host then 1 else 0))
      v

(* Device [dev] is gone.  Re-home every segment it owned onto a live
   replica that is still fresh there (no data moves — the bytes are
   already in place); return the ranges for which no fresh replica
   exists anywhere.  Those are truly lost and force a replay. *)
let recover t ~dev ~live =
  (* The device's memory is gone with it; stop charging for it. *)
  drop_residency t ~dev;
  let owned = Tracker.owned_by t.tracker ~owner:dev in
  match validity t with
  | None ->
    (* No replica metadata: everything the device owned is lost. *)
    List.map (fun s -> (s.Tracker.start, s.Tracker.stop)) owned
  | Some v ->
    let host = host_slot t in
    let candidates =
      List.filter (fun d -> d <> dev) live @ [ host ]
    in
    let lost = ref [] in
    List.iter
      (fun { Tracker.start; stop; _ } ->
         let pos = ref start in
         while !pos < stop do
           (* First candidate fresh at [pos] wins, for as far as its
              freshness extends. *)
           let found =
             List.find_map
               (fun c ->
                  match Tracker.query v.(c) ~start:!pos ~stop with
                  | { Tracker.owner = 1; stop = e; _ } :: _ ->
                    Some ((if c = host then Tracker.host else c), min e stop)
                  | _ -> None)
               candidates
           in
           match found with
           | Some (owner, upto) ->
             Tracker.write t.tracker ~start:!pos ~stop:upto ~owner;
             pos := upto
           | None ->
             (* Hole: extend to the next point where any candidate
                turns fresh again. *)
             let next =
               List.fold_left
                 (fun acc c ->
                    let fresh_start =
                      List.find_map
                        (fun s ->
                           if s.Tracker.owner = 1 then Some s.Tracker.start
                           else None)
                        (Tracker.query v.(c) ~start:!pos ~stop)
                    in
                    match fresh_start with
                    | Some s -> min acc s
                    | None -> acc)
                 stop candidates
             in
             lost := (!pos, next) :: !lost;
             pos := next
         done)
      owned;
    List.rev !lost

let pp fmt t =
  Format.fprintf fmt "vbuf %s (%d elements, %d instances) %a" t.name t.len
    (n_devices t) Tracker.pp t.tracker
