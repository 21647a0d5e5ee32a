(* The multi-GPU machine: devices with a compute stream and dual copy
   engines, a host thread, and a shared PCIe fabric, all advanced by a
   simple discrete-event scheme.

   Per device:
   - one compute timeline (the default stream's kernel work);
   - one inbound and one outbound copy engine (K80-style dual copy
     engines), so neighbour halo exchanges do not chain serially while
     a device's own sends still serialize.

   Transfers respect default-stream ordering (they wait for the compute
   work of the devices they touch) and contend for the shared fabric:
   every transfer occupies the fabric for bytes/fabric_bandwidth, which
   is what bounds all-gather-style redistribution.

   Kernels run at a throughput derated by the number of active devices
   (K80 autoboost clocks drop as more dies heat up).

   In functional mode buffers carry real data, kernels execute their
   element code, and results are bit-exact; in performance mode only
   clocks and statistics advance. *)

type device = {
  dev_id : int;
  compute : Timeline.t;
  copy_in : Timeline.t;
  copy_out : Timeline.t;
  buffers : (int, Buffer.t) Hashtbl.t;
  mutable mem_used : int; (* bytes currently charged against capacity *)
  mutable mem_high : int; (* high-water mark of [mem_used] *)
  mutable mem_pressure : bool;
      (* above the 90%-of-capacity threshold; trace events are emitted
         on crossings, not on every reserve *)
}

type stats = {
  mutable h2d_bytes : int;
  mutable d2h_bytes : int;
  mutable p2p_bytes : int;
  mutable n_transfers : int;
  mutable n_launches : int;
  mutable n_faults : int; (* transient faults and device losses observed *)
  mutable faulted_transfers : int;
      (* transfers that paid their wire time but failed transiently *)
  mutable faulted_bytes : int;
      (* bytes moved by those transfers; they are *included* in the
         h2d/d2h/p2p byte counters and the pair matrix (the traffic
         really crossed the fabric, and a retry legitimately pays it
         again), so seconds/bytes reconciliation stays exact under
         fault schedules *)
  mutable spill_bytes : int; (* bytes evicted device->host under pressure *)
  mutable n_spills : int; (* spill operations *)
  mutable kernel_seconds : float;
  mutable pattern_seconds : float;
  mutable transfer_seconds : float;
}

(* One entry of the optional execution trace. *)
type event = {
  ev_kind : [ `Kernel | `H2d | `D2h | `P2p | `Fault | `Mem ];
  ev_src : int; (* device id, or -1 for host *)
  ev_dst : int;
  ev_bytes : int; (* 0 for kernels; bytes in use for `Mem *)
  ev_start : float;
  ev_finish : float;
}

(* Typed fault surface: operations never corrupt silently.  A transient
   fault consumed its simulated time but produced nothing (retryable);
   a lost device is gone for good, with everything it exclusively
   owned. *)
exception Transient_fault of { op : string; device : int }
exception Device_lost of int

(* Raised when a reservation would push a device past its configured
   capacity; [free] is what remained at that point.  Callers (the
   runtime's spiller, the engine's chunker) treat it as a request to
   make room, not a crash. *)
exception Out_of_memory of { device : int; requested : int; free : int }

(* Link-level fabric state for an [Config.Islands] topology: one
   intra-island link and one host/inter-island uplink per island.  The
   flat topology has no such state — it keeps the single shared
   [fabric] link below. *)
type topo = {
  t_island : Link.t array; (* intra-island links, one per island *)
  t_uplink : Link.t array; (* host/inter-island uplinks, one per island *)
  t_isl_size : int;
  t_link_bw : float;
  t_uplink_bw : float;
}

type t = {
  cfg : Config.t;
  functional : bool;
  devices : device array;
  host : Timeline.t;
  fabric : Link.t;
  topo : topo option; (* None = flat shared bus *)
  stats : stats;
  pair_bytes : int array;
      (* bytes moved per (src, dst) endpoint pair, dense over
         (n+1)^2 endpoints with the host (-1) at index 0; -1 marks a
         pair never touched.  Always on: the profile report's byte
         matrix must reconcile exactly with [stats], so both are
         charged at the same sites. *)
  mutable next_buffer_id : int;
  mutable active_devices : int;
      (* devices that have executed kernels: drives the autoboost
         derate.  Multi-GPU runs use all devices from the first launch
         round, so we track the high-water mark of launch targets. *)
  mutable trace : event Obs.Ring.t option;
      (* bounded event log when tracing is enabled; oldest events are
         dropped on overflow and the drops are counted *)
  mutable faults : Faults.t option;
      (* fault-injection state; None = ideal hardware *)
  mutable lru_clock : int;
      (* monotone counter handed out by [lru_tick]; the runtime stamps
         resident segments with it to order evictions *)
  mutable causal : Obs.Causal.builder option;
      (* causal DAG recording when enabled: every scheduled op becomes
         a node carrying its dependency edges, resolved here at the
         source (events to producing nodes, stream ordering to engine
         predecessors) *)
  mutable phase : string;
      (* engine phase label stamped on causal nodes ("" = none); the
         spill phase also switches a d2h's attribution category *)
}

let issue_overhead = 1.5e-6 (* host-side cost of issuing one async op *)

let create ?(functional = false) cfg =
  let cfg = Config.validate cfg in
  {
    cfg;
    functional;
    devices =
      Array.init cfg.Config.n_devices (fun i ->
          {
            dev_id = i;
            compute = Timeline.create (Printf.sprintf "dev%d.compute" i);
            copy_in = Timeline.create (Printf.sprintf "dev%d.copy_in" i);
            copy_out = Timeline.create (Printf.sprintf "dev%d.copy_out" i);
            buffers = Hashtbl.create 16;
            mem_used = 0;
            mem_high = 0;
            mem_pressure = false;
          });
    host = Timeline.create "host";
    fabric = Link.create "fabric";
    topo =
      (match cfg.Config.topology with
       | Config.Flat -> None
       | Config.Islands { island_size; link_bandwidth; uplink_bandwidth } ->
         let n_islands =
           (cfg.Config.n_devices + island_size - 1) / island_size
         in
         Some
           {
             t_island =
               Array.init n_islands (fun i ->
                   Link.create (Printf.sprintf "isl%d.link" i));
             t_uplink =
               Array.init n_islands (fun i ->
                   Link.create (Printf.sprintf "isl%d.uplink" i));
             t_isl_size = island_size;
             t_link_bw = link_bandwidth;
             t_uplink_bw = uplink_bandwidth;
           });
    stats =
      {
        h2d_bytes = 0;
        d2h_bytes = 0;
        p2p_bytes = 0;
        n_transfers = 0;
        n_launches = 0;
        n_faults = 0;
        faulted_transfers = 0;
        faulted_bytes = 0;
        spill_bytes = 0;
        n_spills = 0;
        kernel_seconds = 0.0;
        pattern_seconds = 0.0;
        transfer_seconds = 0.0;
      };
    pair_bytes =
      (let side = cfg.Config.n_devices + 1 in
       Array.make (side * side) (-1));
    next_buffer_id = 0;
    active_devices = 1;
    trace = None;
    faults =
      (match cfg.Config.faults with
       | Some spec when not (Faults.is_null spec) -> Some (Faults.create spec)
       | _ -> None);
    lru_clock = 0;
    causal = None;
    phase = "";
  }

(* Enable event tracing.  Events land in a bounded ring buffer (the
   newest [capacity] survive; drops are counted and reported), so
   tracing is safe even on paper-scale sweeps.  Per-engine operation
   logging is switched on alongside, with the same capacity per
   engine, for the Chrome-trace lanes. *)
let default_trace_capacity = 65536

let enable_trace ?(capacity = default_trace_capacity) m =
  m.trace <- Some (Obs.Ring.create ~capacity);
  Timeline.enable_log ~capacity m.host;
  let log l = Timeline.enable_log ~capacity (Link.timeline l) in
  log m.fabric;
  (match m.topo with
   | None -> ()
   | Some topo ->
     Array.iter log topo.t_island;
     Array.iter log topo.t_uplink);
  Array.iter
    (fun d ->
       Timeline.enable_log ~capacity d.compute;
       Timeline.enable_log ~capacity d.copy_in;
       Timeline.enable_log ~capacity d.copy_out)
    m.devices

let trace m = match m.trace with None -> [] | Some r -> Obs.Ring.to_list r
let trace_enabled m = m.trace <> None
let trace_dropped m = match m.trace with None -> 0 | Some r -> Obs.Ring.dropped r

let record m ev =
  match m.trace with None -> () | Some r -> Obs.Ring.push r ev

(* --- Causal recording --------------------------------------------------- *)

let enable_causal ?capacity m =
  m.causal <- Some (Obs.Causal.builder ?capacity ())

let causal_enabled m = m.causal <> None
let causal_dag m = Option.map Obs.Causal.dag m.causal

let causal_dropped m =
  match m.causal with None -> 0 | Some b -> Obs.Causal.builder_dropped b

let set_phase m phase = m.phase <- phase

let with_phase m phase f =
  let saved = m.phase in
  m.phase <- phase;
  Fun.protect ~finally:(fun () -> m.phase <- saved) f

(* Record one op as a causal node; -1 when recording is off or the
   builder overflowed (callers pass it on as a dep, where it is
   filtered out). *)
let causal_add m ~label ~category ~resources ~ready ~start ~finish ~fixed
    ~legs ~deps ~wait =
  match m.causal with
  | None -> -1
  | Some b ->
    Obs.Causal.add b ~label ~category ~phase:m.phase ~resources ~ready ~start
      ~finish ~fixed ~legs ~deps ~wait

(* Resolve an awaited completion time to the node that produced it. *)
let causal_ev m t =
  match m.causal with
  | None -> -1
  | Some b -> Option.value ~default:(-1) (Obs.Causal.node_at b t)

(* Last causal node recorded on a timeline (stream-order edges). *)
let causal_last m tl =
  match m.causal with
  | None -> -1
  | Some b -> Option.value ~default:(-1) (Obs.Causal.last_on b (Timeline.name tl))

(* Byte-matrix accounting, charged exactly where [stats] bytes are. *)
let count_pair m ~src ~dst ~bytes =
  let i = ((src + 1) * (Array.length m.devices + 1)) + dst + 1 in
  m.pair_bytes.(i) <- max 0 m.pair_bytes.(i) + bytes

(* Built from the highest pair down, so the list comes out sorted. *)
let byte_matrix m =
  let side = Array.length m.devices + 1 in
  let acc = ref [] in
  for i = Array.length m.pair_bytes - 1 downto 0 do
    let v = m.pair_bytes.(i) in
    if v >= 0 then acc := (((i / side) - 1, (i mod side) - 1), v) :: !acc
  done;
  !acc

let config m = m.cfg
let is_functional m = m.functional
let n_devices m = Array.length m.devices
let stats m = m.stats

let device m i =
  if i < 0 || i >= Array.length m.devices then
    invalid_arg (Printf.sprintf "Machine.device: no device %d" i);
  m.devices.(i)

(* --- Fault injection --------------------------------------------------- *)

let inject_faults m f = m.faults <- Some f
let fault_state m = m.faults

let device_lost m d =
  match m.faults with None -> false | Some f -> Faults.device_lost f d

(* Devices still on the bus, in id order (all of them on ideal
   hardware). *)
let live_devices m =
  List.filter
    (fun d -> not (device_lost m d))
    (List.init (Array.length m.devices) Fun.id)

let record_fault m ~src ~dst =
  m.stats.n_faults <- m.stats.n_faults + 1;
  let now = Timeline.ready m.host in
  record m
    { ev_kind = `Fault; ev_src = src; ev_dst = dst; ev_bytes = 0;
      ev_start = now; ev_finish = now }

(* The clock a scheduled loss is checked against: the later of the
   host's issue time and the touched engines' queued work.  The host
   runs far ahead of the devices (it issues asynchronously), so an op
   *executing* at or after the death time must observe the loss even
   though it was issued earlier. *)
let fault_clock m ~devices =
  List.fold_left
    (fun acc d ->
       if d < 0 then acc
       else begin
         let dev = m.devices.(d) in
         Float.max acc
           (Float.max (Timeline.ready dev.compute)
              (Float.max (Timeline.ready dev.copy_in)
                 (Timeline.ready dev.copy_out)))
       end)
    (Timeline.ready m.host) devices

(* Fate of a transfer touching [devices], drawn at issue time.  A lost
   device fails the operation before any time is charged (the driver
   call errors immediately); a transient fault is resolved after the
   transfer's timing has been paid. *)
let transfer_fate m ~devices =
  match m.faults with
  | None -> `Ok
  | Some f -> Faults.transfer_outcome f ~devices ~now:(fault_clock m ~devices)

let fail_lost m ~op:_ d =
  record_fault m ~src:d ~dst:d;
  raise (Device_lost d)

(* --- Memory management ------------------------------------------------ *)

let mem_capacity m = m.cfg.Config.mem_capacity
let mem_used m d = (device m d).mem_used
let mem_free m d = mem_capacity m - (device m d).mem_used
let mem_high_water m d = (device m d).mem_high

(* MemPressure trace event: an instant carrying the device's current
   charge, emitted on 90%-threshold crossings and on OOM. *)
let record_mem m d =
  let now = Timeline.ready m.host in
  record m
    { ev_kind = `Mem; ev_src = d; ev_dst = d;
      ev_bytes = (device m d).mem_used; ev_start = now; ev_finish = now }

let under_pressure m dev =
  let cap = mem_capacity m in
  dev.mem_used > cap - (cap / 10)

(* Charge [bytes] against device [d]'s capacity.  The check is written
   as [bytes > free] (never [used + bytes > cap]) so an unlimited
   capacity of [max_int] cannot overflow. *)
let mem_reserve m ~device:d ~bytes =
  if bytes < 0 then invalid_arg "Machine.mem_reserve: negative bytes";
  let dev = device m d in
  let free = mem_capacity m - dev.mem_used in
  if bytes > free then begin
    record_mem m d;
    raise (Out_of_memory { device = d; requested = bytes; free })
  end;
  dev.mem_used <- dev.mem_used + bytes;
  if dev.mem_used > dev.mem_high then dev.mem_high <- dev.mem_used;
  let pressured = under_pressure m dev in
  if pressured && not dev.mem_pressure then record_mem m d;
  dev.mem_pressure <- pressured

let mem_release m ~device:d ~bytes =
  if bytes < 0 then invalid_arg "Machine.mem_release: negative bytes";
  let dev = device m d in
  if bytes > dev.mem_used then
    invalid_arg
      (Printf.sprintf
         "Machine.mem_release: releasing %d bytes but device %d holds %d"
         bytes d dev.mem_used);
  dev.mem_used <- dev.mem_used - bytes;
  dev.mem_pressure <- under_pressure m dev

(* Monotone stamp for LRU ordering of resident segments. *)
let lru_tick m =
  m.lru_clock <- m.lru_clock + 1;
  m.lru_clock

let note_spill m ~bytes =
  m.stats.n_spills <- m.stats.n_spills + 1;
  m.stats.spill_bytes <- m.stats.spill_bytes + bytes

(* [charge:false] creates a *virtual* buffer: address space without a
   capacity charge.  The runtime's [Vbuf] uses these for its full-size
   per-device instances and charges only the resident segments via
   [mem_reserve]/[mem_release]. *)
let alloc ?(charge = true) m ~device:d ~len =
  let dev = device m d in
  let bytes = if charge then len * m.cfg.Config.elem_bytes else 0 in
  if bytes > 0 then mem_reserve m ~device:d ~bytes;
  let id = m.next_buffer_id in
  m.next_buffer_id <- id + 1;
  let b =
    Buffer.create ~id ~device:d ~len ~charged_bytes:bytes
      ~functional:m.functional
  in
  Hashtbl.replace dev.buffers id b;
  b

let free m b =
  let dev = device m (Buffer.device b) in
  if Hashtbl.mem dev.buffers (Buffer.id b) then begin
    let bytes = Buffer.charged_bytes b in
    if bytes > 0 then mem_release m ~device:dev.dev_id ~bytes
  end;
  Hashtbl.remove dev.buffers (Buffer.id b)

(* --- Time -------------------------------------------------------------- *)

let host_time m = Timeline.ready m.host

let device_time m d =
  let dev = device m d in
  Float.max (Timeline.ready dev.compute)
    (Float.max (Timeline.ready dev.copy_in) (Timeline.ready dev.copy_out))

let elapsed m =
  Array.fold_left
    (fun acc d ->
       Float.max acc
         (Float.max (Timeline.ready d.compute)
            (Float.max (Timeline.ready d.copy_in) (Timeline.ready d.copy_out))))
    (Timeline.ready m.host) m.devices

(* Host-side synchronization with every device: the host serially
   synchronizes each context (cudaSetDevice + cudaDeviceSynchronize per
   device, paper §8.4).  The serial per-context cost is charged *after*
   the devices drain — the host spins inside the driver until the last
   engine finishes, then still pays each context call.  (Charging it at
   issue time would hide it entirely under device execution, making
   sync free in every timing and trace.) *)
let synchronize m =
  let serial =
    m.cfg.Config.sync_device_seconds *. float_of_int (n_devices m)
  in
  let drained = elapsed m in
  (* Barrier edges: the sync waits every device engine, so its causal
     predecessors are the last recorded node of each one. *)
  let deps =
    if m.causal = None then []
    else
      Array.fold_left
        (fun acc d ->
           causal_last m d.compute :: causal_last m d.copy_in
           :: causal_last m d.copy_out :: acc)
        [] m.devices
  in
  let sstart, sfinish =
    Timeline.schedule m.host ~after:drained ~duration:serial ~category:"sync"
  in
  ignore
    (causal_add m ~label:"sync" ~category:"barrier" ~resources:[ "host" ]
       ~ready:sstart ~start:sstart ~finish:sfinish ~fixed:serial ~legs:[]
       ~deps ~wait:"")

(* Charge host-side computation (e.g. dependency resolution) to the
   host timeline. *)
let host_work m ~seconds ~category =
  let hstart, hfinish =
    Timeline.schedule m.host ~after:0.0 ~duration:seconds ~category
  in
  (* Backoff sleeps attribute to "retry" — the time lost to fault
     recovery, not to useful host work. *)
  let ccat = if category = "backoff" then "retry" else category in
  ignore
    (causal_add m ~label:category ~category:ccat ~resources:[ "host" ]
       ~ready:hstart ~start:hstart ~finish:hfinish ~fixed:0.0 ~legs:[]
       ~deps:[] ~wait:"");
  if category = "pattern" then
    m.stats.pattern_seconds <- m.stats.pattern_seconds +. seconds

(* --- Transfers --------------------------------------------------------- *)

(* An event: the simulated completion time of an asynchronous
   operation.  The [*_async] operations below return one and accept a
   [deps] list of them, which is what lets an engine order transfers
   and launches against each other without a host barrier. *)
type evt = float

(* Plan the fabric route of one transfer between two endpoints (-1 =
   host): the contention legs it occupies — (link, occupancy
   seconds) pairs — and the point-to-point bandwidth of its data path.

   Flat topology: every non-local transfer occupies the single shared
   bus; cross-device copies stage through host memory across root
   complexes, crossing it twice (2x bytes).  Islands topology:
   host<->device traffic occupies the device's island uplink;
   intra-island copies move point-to-point over the island link at the
   link's own bandwidth (no host staging); inter-island copies stage
   through the switch, occupying both islands' uplinks.  Same-device
   copies move through device memory and occupy no link at all on
   either topology. *)
let route m ~src ~dst ~bytes =
  let cfg = m.cfg in
  if src >= 0 && src = dst then ([], cfg.Config.dmem_bandwidth)
  else
    match m.topo with
    | None ->
      let fabric_bytes = if src >= 0 && dst >= 0 then 2 * bytes else bytes in
      let occupancy =
        float_of_int fabric_bytes /. cfg.Config.fabric_bandwidth
      in
      ( [ (m.fabric, occupancy) ],
        if src >= 0 && dst >= 0 then cfg.Config.p2p_bandwidth
        else cfg.Config.pcie_bandwidth )
    | Some topo ->
      let island d = d / topo.t_isl_size in
      let uplink i =
        (topo.t_uplink.(i), float_of_int bytes /. topo.t_uplink_bw)
      in
      if src < 0 then ([ uplink (island dst) ], cfg.Config.pcie_bandwidth)
      else if dst < 0 then ([ uplink (island src) ], cfg.Config.pcie_bandwidth)
      else if island src = island dst then
        ( [ (topo.t_island.(island src),
             float_of_int bytes /. topo.t_link_bw) ],
          topo.t_link_bw )
      else ([ uplink (island src); uplink (island dst) ], cfg.Config.p2p_bandwidth)

let count_transfer m ~seconds =
  m.stats.n_transfers <- m.stats.n_transfers + 1;
  m.stats.transfer_seconds <- m.stats.transfer_seconds +. seconds

(* Run one transfer: engines are the timelines held for the duration,
   deps the timelines whose completion must be awaited (default-stream
   ordering against compute), events extra completion times the caller
   wants awaited (explicit cross-stream dependencies).

   Stream semantics at the call sites below: a transfer issued with no
   explicit [?deps] runs on the device's default stream — it waits the
   compute engine, like a plain cudaMemcpyAsync.  A transfer issued
   *with* [?deps] (even [Some []]) runs on a separate stream ordered
   only by its copy engine and the given events, exactly a
   cudaStreamWaitEvent chain — the caller asserts those events capture
   every producer/consumer of the ranges it touches (double buffering
   is the usual way to make that true).  That is what lets a
   double-buffered pipeline fetch the next chunk underneath the
   current kernel. *)
let transfer m ~kind ~engines ~deps ~events ~bytes ~legs ~bandwidth =
  let issue_start, issue =
    Timeline.schedule m.host ~after:0.0 ~duration:issue_overhead
      ~category:"issue"
  in
  let issue_id =
    causal_add m ~label:(kind ^ ".issue") ~category:"issue"
      ~resources:[ "host" ] ~ready:issue_start ~start:issue_start ~finish:issue
      ~fixed:issue_overhead ~legs:[] ~deps:[] ~wait:""
  in
  (* Causal predecessors, resolved before the op is recorded: the host
     issue, every awaited event (mapped to the node that produced it)
     and the stream-order edge to each [deps] timeline's last op.
     Engine ordering is derived by the builder from [resources]. *)
  let causal_deps =
    if m.causal = None then []
    else
      issue_id
      :: (List.map (causal_ev m) events @ List.map (causal_last m) deps)
  in
  let ready = List.fold_left Float.max issue events in
  let ready =
    List.fold_left (fun acc t -> Float.max acc (Timeline.ready t)) ready deps
  in
  let ready =
    List.fold_left (fun acc t -> Float.max acc (Timeline.ready t)) ready engines
  in
  (* A zero-byte copy pays its latency on the engines but occupies no
     link. *)
  let legs = if bytes = 0 then [] else legs in
  let start = Link.admit ~now:issue ~start:ready legs in
  let dur =
    m.cfg.Config.transfer_latency +. (float_of_int bytes /. bandwidth)
  in
  List.iter
    (fun t ->
       Timeline.wait_until t start;
       ignore (Timeline.schedule t ~after:start ~duration:dur ~category:"transfer"))
    engines;
  (* A d2h issued while the runtime is evicting under memory pressure
     attributes to "spill", not to ordinary downloads. *)
  if m.causal <> None then begin
    let category =
      if m.phase = "spill" && kind = "d2h" then "spill" else kind
    in
    ignore
      (causal_add m ~label:kind ~category
         ~resources:(List.map Timeline.name engines)
         ~ready ~start ~finish:(start +. dur)
         ~fixed:m.cfg.Config.transfer_latency
         ~legs:
           (List.map
              (fun (l, occ) -> (Timeline.name (Link.timeline l), occ))
              legs)
         ~deps:causal_deps ~wait:"link_wait")
  end;
  count_transfer m ~seconds:dur;
  (start, start +. dur)

(* A transiently faulted transfer paid its wire time and its bytes
   really crossed the fabric, so it is charged to the byte counters and
   the pair matrix like any other transfer *before* the fault is
   raised (a retry then legitimately charges the traffic again); the
   dedicated faulted counters keep the failures visible. *)
let count_faulted m ~bytes =
  m.stats.faulted_transfers <- m.stats.faulted_transfers + 1;
  m.stats.faulted_bytes <- m.stats.faulted_bytes + bytes

(* Asynchronous host-to-device copy of [len] elements; returns the
   completion event. *)
let h2d_async ?deps m ~src ~src_off ~dst ~dst_off ~len : evt =
  Buffer.check_range dst ~off:dst_off ~len ~what:"h2d";
  let bytes = len * m.cfg.Config.elem_bytes in
  let dev = device m (Buffer.device dst) in
  let fate = transfer_fate m ~devices:[ dev.dev_id ] in
  (match fate with `Lost d -> fail_lost m ~op:"h2d" d | `Ok | `Transient -> ());
  let legs, bandwidth = route m ~src:(-1) ~dst:dev.dev_id ~bytes in
  let tl_deps, events =
    match deps with
    | None -> ([ dev.compute ], []) (* default stream *)
    | Some evs -> ([], evs) (* explicit stream: the events order it *)
  in
  let ev_start, ev_finish =
    transfer m ~kind:"h2d" ~engines:[ dev.copy_in ] ~deps:tl_deps ~events
      ~bytes ~legs ~bandwidth
  in
  record m
    { ev_kind = `H2d; ev_src = -1; ev_dst = dev.dev_id; ev_bytes = bytes;
      ev_start; ev_finish };
  m.stats.h2d_bytes <- m.stats.h2d_bytes + bytes;
  count_pair m ~src:(-1) ~dst:dev.dev_id ~bytes;
  if fate = `Transient then begin
    count_faulted m ~bytes;
    record_fault m ~src:(-1) ~dst:dev.dev_id;
    raise (Transient_fault { op = "h2d"; device = dev.dev_id })
  end;
  if m.functional then Buffer.blit_from_host ~src ~src_off dst ~dst_off ~len;
  ev_finish

let h2d ?deps m ~src ~src_off ~dst ~dst_off ~len =
  ignore (h2d_async ?deps m ~src ~src_off ~dst ~dst_off ~len)

(* Asynchronous device-to-host copy; returns the completion event. *)
let d2h_async ?deps m ~src ~src_off ~dst ~dst_off ~len : evt =
  Buffer.check_range src ~off:src_off ~len ~what:"d2h";
  let bytes = len * m.cfg.Config.elem_bytes in
  let dev = device m (Buffer.device src) in
  let fate = transfer_fate m ~devices:[ dev.dev_id ] in
  (match fate with `Lost d -> fail_lost m ~op:"d2h" d | `Ok | `Transient -> ());
  let legs, bandwidth = route m ~src:dev.dev_id ~dst:(-1) ~bytes in
  let tl_deps, events =
    match deps with
    | None -> ([ dev.compute ], [])
    | Some evs -> ([], evs)
  in
  let ev_start, ev_finish =
    transfer m ~kind:"d2h" ~engines:[ dev.copy_out ] ~deps:tl_deps ~events
      ~bytes ~legs ~bandwidth
  in
  record m
    { ev_kind = `D2h; ev_src = dev.dev_id; ev_dst = -1; ev_bytes = bytes;
      ev_start; ev_finish };
  m.stats.d2h_bytes <- m.stats.d2h_bytes + bytes;
  count_pair m ~src:dev.dev_id ~dst:(-1) ~bytes;
  if fate = `Transient then begin
    count_faulted m ~bytes;
    record_fault m ~src:dev.dev_id ~dst:(-1);
    raise (Transient_fault { op = "d2h"; device = dev.dev_id })
  end;
  if m.functional then Buffer.blit_to_host src ~src_off ~dst ~dst_off ~len;
  ev_finish

let d2h ?deps m ~src ~src_off ~dst ~dst_off ~len =
  ignore (d2h_async ?deps m ~src ~src_off ~dst ~dst_off ~len)

(* Shared body of [p2p] and [p2p_multi]: timing, routing and
   accounting of a device-to-device copy of [len] elements; [blit]
   performs the functional data movement. *)
let p2p_common ?deps m ~op ~src ~dst ~len ~blit : evt =
  let bytes = len * m.cfg.Config.elem_bytes in
  let sdev = device m (Buffer.device src) in
  let ddev = device m (Buffer.device dst) in
  let fate = transfer_fate m ~devices:[ sdev.dev_id; ddev.dev_id ] in
  (match fate with `Lost d -> fail_lost m ~op d | `Ok | `Transient -> ());
  let same_device = sdev.dev_id = ddev.dev_id in
  let engines =
    if same_device then [ sdev.copy_out ]
    else [ sdev.copy_out; ddev.copy_in ]
  in
  let legs, bandwidth = route m ~src:sdev.dev_id ~dst:ddev.dev_id ~bytes in
  let tl_deps, events =
    match deps with
    | None -> ([ sdev.compute; ddev.compute ], [])
    | Some evs -> ([], evs)
  in
  let ev_start, ev_finish =
    transfer m ~kind:"p2p" ~engines ~deps:tl_deps ~events ~bytes ~legs
      ~bandwidth
  in
  record m
    { ev_kind = `P2p; ev_src = sdev.dev_id; ev_dst = ddev.dev_id;
      ev_bytes = bytes; ev_start; ev_finish };
  m.stats.p2p_bytes <- m.stats.p2p_bytes + bytes;
  count_pair m ~src:sdev.dev_id ~dst:ddev.dev_id ~bytes;
  if fate = `Transient then begin
    count_faulted m ~bytes;
    record_fault m ~src:sdev.dev_id ~dst:ddev.dev_id;
    raise (Transient_fault { op = "p2p"; device = ddev.dev_id })
  end;
  if m.functional then blit ();
  ev_finish

(* Asynchronous device-to-device copy; returns the completion event. *)
let p2p_async ?deps m ~src ~src_off ~dst ~dst_off ~len : evt =
  Buffer.check_range src ~off:src_off ~len ~what:"p2p(src)";
  Buffer.check_range dst ~off:dst_off ~len ~what:"p2p(dst)";
  p2p_common ?deps m ~op:"p2p" ~src ~dst ~len ~blit:(fun () ->
      Buffer.blit ~src ~src_off ~dst ~dst_off ~len)

let p2p ?deps m ~src ~src_off ~dst ~dst_off ~len =
  ignore (p2p_async ?deps m ~src ~src_off ~dst ~dst_off ~len)

(* A packed device-to-device copy of several segments (the simulated
   counterpart of a pitched cudaMemcpy2D): one transfer event moves the
   summed bytes, paying the latency once.  Returns the completion
   event (the issue time when [segments] is empty — nothing moves). *)
let p2p_multi_async ?deps m ~src ~dst ~segments : evt =
  let len = List.fold_left (fun acc (_, _, l) -> acc + l) 0 segments in
  if len = 0 then Timeline.ready m.host
  else begin
    List.iter
      (fun (src_off, dst_off, l) ->
         Buffer.check_range src ~off:src_off ~len:l ~what:"p2p_multi(src)";
         Buffer.check_range dst ~off:dst_off ~len:l ~what:"p2p_multi(dst)")
      segments;
    p2p_common ?deps m ~op:"p2p_multi" ~src ~dst ~len ~blit:(fun () ->
        List.iter
          (fun (src_off, dst_off, l) ->
             Buffer.blit ~src ~src_off ~dst ~dst_off ~len:l)
          segments)
  end

let p2p_multi ?deps m ~src ~dst ~segments =
  ignore (p2p_multi_async ?deps m ~src ~dst ~segments)

(* --- Kernels ------------------------------------------------------------ *)

(* Duration of a kernel launch.  Blocks execute over the device's
   resident-block slots; below full occupancy the whole wave takes one
   block's time (latency bound), above it the duration grows linearly.
   The per-SM rate is derated by the autoboost factor for the number of
   currently active devices. *)
let kernel_duration ?device m ~blocks ~ops_per_block =
  if blocks = 0 then 0.0
  else begin
    let cfg = m.cfg in
    let slots = cfg.Config.sms_per_device * cfg.Config.blocks_per_sm in
    let boost = Config.boost_factor cfg ~active:m.active_devices in
    let speed =
      match device with None -> 1.0 | Some d -> Config.device_speed cfg d
    in
    let block_time =
      ops_per_block
      *. float_of_int cfg.Config.blocks_per_sm
      /. (cfg.Config.ops_per_sm *. speed *. boost)
    in
    block_time *. Float.max 1.0 (float_of_int blocks /. float_of_int slots)
  end

(* Launch a kernel asynchronously on a device.  [run] performs the
   functional element work and is invoked only in functional mode. *)
(* Declare how many devices the workload will keep busy (drives the
   autoboost derate deterministically from the first launch). *)
let set_active_devices m n =
  m.active_devices <- max 1 (min n (n_devices m))

let launch_async ?(deps = []) m ~device:d ~blocks ~ops_per_block ~run : evt =
  let dev = device m d in
  let fate =
    match m.faults with
    | None -> `Ok
    | Some f -> Faults.kernel_outcome f ~device:d ~now:(fault_clock m ~devices:[ d ])
  in
  (match fate with `Lost -> fail_lost m ~op:"kernel" d | `Ok | `Transient -> ());
  m.active_devices <- max m.active_devices (d + 1);
  let issue_start, issue =
    Timeline.schedule m.host ~after:0.0 ~duration:m.cfg.Config.launch_latency
      ~category:"issue"
  in
  let issue_id =
    causal_add m ~label:"launch.issue" ~category:"issue" ~resources:[ "host" ]
      ~ready:issue_start ~start:issue_start ~finish:issue
      ~fixed:m.cfg.Config.launch_latency ~legs:[] ~deps:[] ~wait:""
  in
  (* Launch-waits-copy-engine edges (default-stream ordering) plus the
     caller's explicit events, resolved before the kernel is recorded. *)
  let causal_deps =
    if m.causal = None then []
    else
      issue_id :: causal_last m dev.copy_in :: causal_last m dev.copy_out
      :: List.map (causal_ev m) deps
  in
  let after =
    Float.max issue
      (Float.max (Timeline.ready dev.copy_in) (Timeline.ready dev.copy_out))
  in
  let after = List.fold_left Float.max after deps in
  let dur = kernel_duration ~device:d m ~blocks ~ops_per_block in
  let kstart, kfinish =
    Timeline.schedule dev.compute ~after ~duration:dur ~category:"kernel"
  in
  if m.causal <> None then
    ignore
      (causal_add m ~label:"kernel" ~category:"compute"
         ~resources:[ Timeline.name dev.compute ]
         ~ready:kstart ~start:kstart ~finish:kfinish ~fixed:0.0 ~legs:[]
         ~deps:causal_deps ~wait:"");
  m.stats.n_launches <- m.stats.n_launches + 1;
  m.stats.kernel_seconds <- m.stats.kernel_seconds +. dur;
  (* A transient fault consumes the launch's time but produces no
     writes: raise before the functional element work runs. *)
  if fate = `Transient then begin
    record_fault m ~src:d ~dst:d;
    raise (Transient_fault { op = "kernel"; device = d })
  end;
  record m
    { ev_kind = `Kernel; ev_src = dev.dev_id; ev_dst = dev.dev_id;
      ev_bytes = 0; ev_start = kstart; ev_finish = kfinish };
  if m.functional then run ();
  kfinish

let launch ?deps m ~device ~blocks ~ops_per_block ~run =
  ignore (launch_async ?deps m ~device ~blocks ~ops_per_block ~run)

(* Timeline accessors for reporting and calibration. *)
let host_timeline m = m.host
let fabric_timeline m = Link.timeline m.fabric

(* Every contention lane of the fabric with its stable display name:
   the one shared bus on the flat topology, the per-island links and
   uplinks on an islands topology (in island order, link before
   uplink). *)
let link_timelines m =
  match m.topo with
  | None -> [ ("bus", Link.timeline m.fabric) ]
  | Some topo ->
    List.concat
      (List.init (Array.length topo.t_island) (fun i ->
           [
             (Printf.sprintf "isl%d.link" i, Link.timeline topo.t_island.(i));
             (Printf.sprintf "isl%d.uplink" i, Link.timeline topo.t_uplink.(i));
           ]))

let device_timelines m d =
  let dev = device m d in
  (dev.compute, dev.copy_in, dev.copy_out)

(* Total per-engine log entries evicted from the bounded rings — a
   truncated log silently drops lanes from the Chrome trace and edges
   from the causal DAG, so the drop count is surfaced as a metric and
   a loud report warning. *)
let timeline_dropped m =
  let sum =
    Array.fold_left
      (fun acc d ->
         acc + Timeline.log_dropped d.compute + Timeline.log_dropped d.copy_in
         + Timeline.log_dropped d.copy_out)
      (Timeline.log_dropped m.host) m.devices
  in
  List.fold_left
    (fun acc (_, tl) -> acc + Timeline.log_dropped tl)
    sum (link_timelines m)

let pp_stats fmt s =
  Format.fprintf fmt
    "h2d=%dB d2h=%dB p2p=%dB transfers=%d launches=%d faults=%d \
     faulted_transfers=%d faulted=%dB spills=%d spill=%dB kernel=%.6fs \
     transfer=%.6fs pattern=%.6fs"
    s.h2d_bytes s.d2h_bytes s.p2p_bytes s.n_transfers s.n_launches s.n_faults
    s.faulted_transfers s.faulted_bytes s.n_spills s.spill_bytes
    s.kernel_seconds s.transfer_seconds s.pattern_seconds

(* Snapshot the stats record into a metrics registry under the stable
   "gpusim." names — the uniform read-out the profile report and the
   bench JSON consume.  The record stays the hot-path view. *)
let publish_metrics ?(into = Obs.Metrics.default) m =
  let s = m.stats in
  let set n v = Obs.Metrics.set into n v in
  let seti n v = set n (float_of_int v) in
  seti "gpusim.h2d_bytes" s.h2d_bytes;
  seti "gpusim.d2h_bytes" s.d2h_bytes;
  seti "gpusim.p2p_bytes" s.p2p_bytes;
  seti "gpusim.transfers" s.n_transfers;
  seti "gpusim.launches" s.n_launches;
  seti "gpusim.faults" s.n_faults;
  seti "gpusim.faulted_transfers" s.faulted_transfers;
  seti "gpusim.faulted_bytes" s.faulted_bytes;
  set "gpusim.kernel_seconds" s.kernel_seconds;
  set "gpusim.transfer_seconds" s.transfer_seconds;
  set "gpusim.pattern_seconds" s.pattern_seconds;
  seti "gpusim.devices" (n_devices m);
  seti "gpusim.devices_live" (List.length (live_devices m));
  seti "gpusim.trace_dropped" (trace_dropped m);
  seti "obs.dropped.trace" (trace_dropped m);
  seti "obs.dropped.timeline" (timeline_dropped m);
  seti "obs.dropped.causal" (causal_dropped m);
  seti "gpusim.mem.spills" s.n_spills;
  seti "gpusim.mem.spill_bytes" s.spill_bytes;
  (if mem_capacity m < max_int then
     set "gpusim.mem.capacity" (float_of_int (mem_capacity m)));
  Array.iter
    (fun d ->
       let labels = [ ("device", string_of_int d.dev_id) ] in
       Obs.Metrics.set into ~labels "gpusim.mem.used"
         (float_of_int d.mem_used);
       Obs.Metrics.set into ~labels "gpusim.mem.high_water"
         (float_of_int d.mem_high))
    m.devices;
  List.iter
    (fun (name, tl) ->
       Obs.Metrics.set into ~labels:[ ("link", name) ] "gpusim.link_busy"
         (Timeline.total_busy tl))
    (link_timelines m);
  List.iter
    (fun ((src, dst), bytes) ->
       Obs.Metrics.set into
         ~labels:
           [
             ("src", if src < 0 then "host" else string_of_int src);
             ("dst", if dst < 0 then "host" else string_of_int dst);
           ]
         "gpusim.pair_bytes" (float_of_int bytes))
    (byte_matrix m)
