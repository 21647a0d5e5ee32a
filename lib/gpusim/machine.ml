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

(* A snapshot of the machine's counters (see [stats]). *)
type stats = {
  h2d_bytes : int;
  d2h_bytes : int;
  p2p_bytes : int;
  n_transfers : int;
  n_launches : int;
  n_faults : int; (* transient faults and device losses observed *)
  faulted_transfers : int;
      (* transfers that paid their wire time but failed transiently *)
  faulted_bytes : int;
      (* bytes moved by those transfers; they are *included* in the
         h2d/d2h/p2p byte counters and the pair matrix (the traffic
         really crossed the fabric, and a retry legitimately pays it
         again), so seconds/bytes reconciliation stays exact under
         fault schedules *)
  spill_bytes : int; (* bytes evicted device->host under pressure *)
  n_spills : int; (* spill operations *)
  kernel_seconds : float;
  pattern_seconds : float;
  transfer_seconds : float;
}

(* One entry of the optional execution trace: the simulator's only
   per-operation record.  [`Host] carries the host op's busy category,
   [`Fabric] the lane (index into [link_timelines]) of one fabric leg
   of a transfer. *)
type event = {
  ev_kind :
    [ `Kernel | `H2d | `D2h | `P2p | `Fault | `Mem | `Host of string
    | `Fabric of int ];
  ev_src : int; (* device id, or -1 for host *)
  ev_dst : int;
  ev_bytes : int;
      (* 0 for kernels and host ops; bytes in use for `Mem; the bytes a
         leg carried for `Fabric *)
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

(* Everything a transfer between one (src, dst) endpoint pair needs,
   planned once per pair: the fabric legs it contends for and the
   engines it holds and awaits.  Only the leg occupancies depend on the
   byte count; [occupancy] is the scratch they are written to per
   transfer, so issuing one builds no list. *)
type route = {
  legs : Link.t array; (* contention legs, in route order *)
  leg_lane : int array; (* each leg's index in [link_timelines] *)
  leg_scale : int array; (* fabric bytes per payload byte on each leg *)
  leg_bandwidth : float array;
  occupancy : float array; (* per-transfer scratch: each leg's busy seconds *)
  bandwidth : float; (* point-to-point bandwidth of the data path *)
  engines : Timeline.t array; (* copy engines held for the duration *)
  waits : Timeline.t array;
      (* compute engines a default-stream transfer waits for *)
}

type t = {
  cfg : Config.t;
  functional : bool;
  devices : device array;
  host : Timeline.t;
  fabric : Link.t;
  topo : topo option; (* None = flat shared bus *)
  routes : route array;
      (* per endpoint pair, indexed like [pair_bytes]; [unplanned]
         until the pair's first transfer, so creating a machine does
         not pay for pairs a run never uses *)
  mutable h2d_bytes : int;
  mutable d2h_bytes : int;
  mutable p2p_bytes : int;
  mutable n_transfers : int;
  mutable n_launches : int;
  mutable n_faults : int;
  mutable faulted_transfers : int;
  mutable faulted_bytes : int;
  mutable spill_bytes : int;
  mutable n_spills : int;
  seconds : float array;
      (* kernel, pattern and transfer seconds, unboxed: a float field
         of this record would box a fresh float on every update *)
  op_clock : float array;
      (* start and finish of the last transfer or kernel, which the
         [*_async] operations return *)
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

let kernel_s = 0
let pattern_s = 1
let transfer_s = 2

let issue_overhead = 1.5e-6 (* host-side cost of issuing one async op *)

(* The placeholder of a pair no transfer has used yet. *)
let unplanned =
  { legs = [||]; leg_lane = [||]; leg_scale = [||]; leg_bandwidth = [||];
    occupancy = [||]; bandwidth = 0.0; engines = [||]; waits = [||] }

(* Plan the route of transfers between two endpoints (-1 = host): the
   contention legs they occupy, with the bytes each leg carries per
   payload byte and its bandwidth, and the point-to-point bandwidth of
   the data path.

   Flat topology: every non-local transfer occupies the single shared
   bus; cross-device copies stage through host memory across root
   complexes, crossing it twice (2x bytes).  Islands topology:
   host<->device traffic occupies the device's island uplink;
   intra-island copies move point-to-point over the island link at the
   link's own bandwidth (no host staging); inter-island copies stage
   through the switch, occupying both islands' uplinks.  Same-device
   copies move through device memory and occupy no link at all on
   either topology.

   A copy holds the source's outbound and the destination's inbound
   copy engine (one engine for a same-device copy) and, on the default
   stream, waits both endpoints' compute engines. *)
let plan_route m ~src ~dst =
  let cfg = m.cfg and devices = m.devices in
  let pcie = cfg.Config.pcie_bandwidth and p2p = cfg.Config.p2p_bandwidth in
  let legs, leg_lane, leg_scale, leg_bandwidth, bandwidth =
    if src < 0 && dst < 0 then ([||], [||], [||], [||], pcie) (* never issued *)
    else if src = dst then ([||], [||], [||], [||], cfg.Config.dmem_bandwidth)
    else
      match m.topo with
      | None ->
        let peer = src >= 0 && dst >= 0 in
        ( [| m.fabric |],
          [| 0 |],
          [| (if peer then 2 else 1) |],
          [| cfg.Config.fabric_bandwidth |],
          if peer then p2p else pcie )
      | Some topo ->
        (* Island i's link is lane 2i and its uplink lane 2i + 1. *)
        let island d = d / topo.t_isl_size in
        let uplink d = topo.t_uplink.(island d) in
        let up_lane d = (2 * island d) + 1 in
        let link_bw = topo.t_link_bw and uplink_bw = topo.t_uplink_bw in
        if src < 0 then
          ([| uplink dst |], [| up_lane dst |], [| 1 |], [| uplink_bw |], pcie)
        else if dst < 0 then
          ([| uplink src |], [| up_lane src |], [| 1 |], [| uplink_bw |], pcie)
        else if island src = island dst then
          ( [| topo.t_island.(island src) |],
            [| 2 * island src |],
            [| 1 |],
            [| link_bw |],
            link_bw )
        else
          ( [| uplink src; uplink dst |],
            [| up_lane src; up_lane dst |],
            [| 1; 1 |],
            [| uplink_bw; uplink_bw |],
            p2p )
  in
  let engines, waits =
    if src < 0 && dst < 0 then ([||], [||])
    else if src < 0 then
      ([| devices.(dst).copy_in |], [| devices.(dst).compute |])
    else if dst < 0 then
      ([| devices.(src).copy_out |], [| devices.(src).compute |])
    else
      ( (if src = dst then [| devices.(src).copy_out |]
         else [| devices.(src).copy_out; devices.(dst).copy_in |]),
        [| devices.(src).compute; devices.(dst).compute |] )
  in
  {
    legs;
    leg_lane;
    leg_scale;
    leg_bandwidth;
    occupancy = Array.make (Array.length legs) 0.0;
    bandwidth;
    engines;
    waits;
  }

let create ?(functional = false) cfg =
  let cfg = Config.validate cfg in
  let n = cfg.Config.n_devices in
  let devices =
    Array.init n (fun i ->
        {
          dev_id = i;
          compute = Timeline.create (Printf.sprintf "dev%d.compute" i);
          copy_in = Timeline.create (Printf.sprintf "dev%d.copy_in" i);
          copy_out = Timeline.create (Printf.sprintf "dev%d.copy_out" i);
          buffers = Hashtbl.create 16;
          mem_used = 0;
          mem_high = 0;
          mem_pressure = false;
        })
  in
  let side = n + 1 in
  {
    cfg;
    functional;
    devices;
    host = Timeline.create "host";
    fabric = Link.create "fabric";
    topo =
      (match cfg.Config.topology with
       | Config.Flat -> None
       | Config.Islands { island_size; link_bandwidth; uplink_bandwidth } ->
         let n_islands = (n + island_size - 1) / island_size in
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
    routes = Array.make (side * side) unplanned;
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
    seconds = Array.make 3 0.0;
    op_clock = Array.make 2 0.0;
    pair_bytes = Array.make (side * side) (-1);
    next_buffer_id = 0;
    active_devices = 1;
    trace = None;
    faults = None;
    lru_clock = 0;
    causal = None;
    phase = "";
  }

(* Enable event tracing.  Every traced op of every engine lands in one
   bounded ring buffer (the newest [capacity] survive; drops are
   counted and reported), so tracing is safe even on paper-scale
   sweeps, and on overflow every lane covers the same newest window. *)
let default_trace_capacity = 65536

let enable_trace ?(capacity = default_trace_capacity) m =
  m.trace <- Some (Obs.Ring.create ~capacity)

let trace m = match m.trace with None -> [] | Some r -> Obs.Ring.to_list r
let trace_dropped m = match m.trace with None -> 0 | Some r -> Obs.Ring.dropped r

let record m ev =
  match m.trace with None -> () | Some r -> Obs.Ring.push r ev

(* Trace the host's last scheduled op under its busy category.  The
   event is built only when tracing is on, so an untraced run
   allocates nothing here. *)
let record_host m category =
  match m.trace with
  | None -> ()
  | Some r ->
    let c = Timeline.clock m.host in
    Obs.Ring.push r
      { ev_kind = `Host category; ev_src = -1; ev_dst = -1; ev_bytes = 0;
        ev_start = c.(1); ev_finish = c.(2) }

(* --- Causal recording --------------------------------------------------- *)

let enable_causal ?capacity m =
  m.causal <- Some (Obs.Causal.builder ?capacity ())

let causal_enabled m = m.causal <> None
let causal_dag m = Option.map Obs.Causal.dag m.causal

let causal_dropped m =
  match m.causal with None -> 0 | Some b -> Obs.Causal.builder_dropped b

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
let stats m =
  {
    h2d_bytes = m.h2d_bytes;
    d2h_bytes = m.d2h_bytes;
    p2p_bytes = m.p2p_bytes;
    n_transfers = m.n_transfers;
    n_launches = m.n_launches;
    n_faults = m.n_faults;
    faulted_transfers = m.faulted_transfers;
    faulted_bytes = m.faulted_bytes;
    spill_bytes = m.spill_bytes;
    n_spills = m.n_spills;
    kernel_seconds = m.seconds.(kernel_s);
    pattern_seconds = m.seconds.(pattern_s);
    transfer_seconds = m.seconds.(transfer_s);
  }

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
  m.n_faults <- m.n_faults + 1;
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
  m.n_spills <- m.n_spills + 1;
  m.spill_bytes <- m.spill_bytes + bytes

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

(* Clocks are read through [Timeline.clock]: [Timeline.ready] would box
   a float per call. *)
let[@inline] ready_of tl = (Timeline.clock tl).(0)

let host_time m = Timeline.ready m.host

let[@inline] engines_ready d =
  Float.max (ready_of d.compute)
    (Float.max (ready_of d.copy_in) (ready_of d.copy_out))

let device_time m d = engines_ready (device m d)

let elapsed m =
  let t = ref (ready_of m.host) in
  for i = 0 to Array.length m.devices - 1 do
    t := Float.max !t (engines_ready m.devices.(i))
  done;
  !t

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
  (* Barrier edges: the sync waits every device engine, so its causal
     predecessors are the last recorded node of each one. *)
  let deps =
    match m.causal with
    | None -> []
    | Some _ ->
      Array.fold_left
        (fun acc d ->
           causal_last m d.compute :: causal_last m d.copy_in
           :: causal_last m d.copy_out :: acc)
        [] m.devices
  in
  Timeline.schedule m.host ~after:(elapsed m) ~duration:serial ~category:"sync";
  record_host m "sync";
  match m.causal with
  | None -> ()
  | Some _ ->
    let c = Timeline.clock m.host in
    ignore
      (causal_add m ~label:"sync" ~category:"barrier" ~resources:[ "host" ]
         ~ready:c.(1) ~start:c.(1) ~finish:c.(2) ~fixed:serial ~legs:[]
         ~deps ~wait:"")

(* Charge host-side computation (e.g. dependency resolution) to the
   host timeline. *)
let host_work m ~seconds ~category =
  Timeline.schedule m.host ~after:0.0 ~duration:seconds ~category;
  record_host m category;
  (match m.causal with
   | None -> ()
   | Some _ ->
     let c = Timeline.clock m.host in
     (* Backoff sleeps attribute to "retry" — the time lost to fault
        recovery, not to useful host work. *)
     let ccat = if category = "backoff" then "retry" else category in
     ignore
       (causal_add m ~label:category ~category:ccat ~resources:[ "host" ]
          ~ready:c.(1) ~start:c.(1) ~finish:c.(2) ~fixed:0.0 ~legs:[]
          ~deps:[] ~wait:""));
  if String.equal category "pattern" then
    m.seconds.(pattern_s) <- m.seconds.(pattern_s) +. seconds

(* --- Transfers --------------------------------------------------------- *)

(* An event: the simulated completion time of an asynchronous
   operation.  The [*_async] operations below return one and accept a
   [deps] list of them, which is what lets an engine order transfers
   and launches against each other without a host barrier. *)
type evt = float

(* The latest of [t] and some events. *)
let rec latest t = function [] -> t | e :: rest -> latest (Float.max t e) rest

let route m ~src ~dst =
  let i = ((src + 1) * (Array.length m.devices + 1)) + dst + 1 in
  let r = m.routes.(i) in
  if r != unplanned then r
  else begin
    let r = plan_route m ~src ~dst in
    m.routes.(i) <- r;
    r
  end

(* Run one transfer of [bytes] over [route]: it holds the route's
   engines for its duration, waits (on the default stream) the route's
   compute engines or (with [deps]) the given events, and contends for
   the route's fabric legs.  Its start and finish land in [op_clock].

   Stream semantics at the call sites below: a transfer issued with no
   explicit [?deps] runs on the device's default stream — it waits the
   compute engine, like a plain cudaMemcpyAsync.  A transfer issued
   *with* [?deps] (even [Some []]) runs on a separate stream ordered
   only by its copy engine and the given events, exactly a
   cudaStreamWaitEvent chain — the caller asserts those events capture
   every producer/consumer of the ranges it touches (double buffering
   is the usual way to make that true).  That is what lets a
   double-buffered pipeline fetch the next chunk underneath the
   current kernel.

   All clock arithmetic stays in this function, on floats read from
   clock arrays: the dev profile compiles with [-opaque], so every
   float passed to or returned from another module is boxed. *)
let transfer ?deps m ~kind r ~bytes =
  Timeline.schedule m.host ~after:0.0 ~duration:issue_overhead
    ~category:"issue";
  record_host m "issue";
  let host = Timeline.clock m.host in
  let issue = host.(2) in
  let ready = ref issue in
  (match deps with
   | None ->
     for i = 0 to Array.length r.waits - 1 do
       ready := Float.max !ready (ready_of r.waits.(i))
     done
   | Some events -> ready := latest !ready events);
  for i = 0 to Array.length r.engines - 1 do
    ready := Float.max !ready (ready_of r.engines.(i))
  done;
  (* A zero-byte copy pays its latency on the engines but occupies no
     link. *)
  let legs = if bytes = 0 then [||] else r.legs in
  for i = 0 to Array.length legs - 1 do
    r.occupancy.(i) <-
      float_of_int (r.leg_scale.(i) * bytes) /. r.leg_bandwidth.(i)
  done;
  let start = Link.admit ~now:issue ~start:!ready legs r.occupancy in
  (match m.trace with
   | None -> ()
   | Some tr ->
     for i = 0 to Array.length legs - 1 do
       Obs.Ring.push tr
         { ev_kind = `Fabric r.leg_lane.(i); ev_src = -1; ev_dst = -1;
           ev_bytes = r.leg_scale.(i) * bytes; ev_start = start;
           ev_finish = start +. r.occupancy.(i) }
     done);
  (* Boxed once here rather than once per engine below. *)
  let dur =
    Sys.opaque_identity
      (m.cfg.Config.transfer_latency +. (float_of_int bytes /. r.bandwidth))
  in
  for i = 0 to Array.length r.engines - 1 do
    Timeline.schedule r.engines.(i) ~after:start ~duration:dur
      ~category:"transfer"
  done;
  m.op_clock.(0) <- start;
  m.op_clock.(1) <- start +. dur;
  m.n_transfers <- m.n_transfers + 1;
  m.seconds.(transfer_s) <- m.seconds.(transfer_s) +. dur;
  match m.causal with
  | None -> ()
  | Some _ ->
    (* Causal predecessors: the host issue, every awaited event
       (mapped to the node that produced it) and the stream-order edge
       to each awaited compute engine's last op.  Engine ordering is
       derived by the builder from [resources]. *)
    let issue_id =
      causal_add m ~label:(kind ^ ".issue") ~category:"issue"
        ~resources:[ "host" ] ~ready:host.(1) ~start:host.(1) ~finish:issue
        ~fixed:issue_overhead ~legs:[] ~deps:[] ~wait:""
    in
    let events, waits =
      match deps with
      | None -> ([], Array.to_list r.waits)
      | Some events -> (events, [])
    in
    (* A d2h issued while the runtime is evicting under memory pressure
       attributes to "spill", not to ordinary downloads. *)
    let category =
      if m.phase = "spill" && kind = "d2h" then "spill" else kind
    in
    ignore
      (causal_add m ~label:kind ~category
         ~resources:(Array.to_list (Array.map Timeline.name r.engines))
         ~ready:!ready ~start ~finish:m.op_clock.(1)
         ~fixed:m.cfg.Config.transfer_latency
         ~legs:
           (List.init (Array.length legs) (fun i ->
                (Timeline.name (Link.timeline legs.(i)), r.occupancy.(i))))
         ~deps:
           (issue_id
            :: (List.map (causal_ev m) events @ List.map (causal_last m) waits))
         ~wait:"link_wait")

(* One copy between two endpoints (-1 = host): fault check, timing,
   trace and byte accounting.  A transiently faulted copy paid its wire
   time and its bytes really crossed the fabric, so it is charged to
   the byte counters and the pair matrix like any other transfer
   *before* the fault is raised (a retry then legitimately charges the
   traffic again); the dedicated faulted counters keep the failures
   visible.  The caller moves the data afterwards, in functional
   mode. *)
let copy ?deps m ~src ~dst ~len =
  let bytes = len * m.cfg.Config.elem_bytes in
  let kind = if src < 0 then "h2d" else if dst < 0 then "d2h" else "p2p" in
  (* Fate drawn at issue time: a lost device fails the operation
     before any time is charged (the driver call errors immediately); a
     transient fault is resolved after the transfer's timing has been
     paid. *)
  let transient =
    match m.faults with
    | None -> false
    | Some f -> (
        let devices = [ src; dst ] in
        match
          Faults.transfer_outcome f ~devices ~now:(fault_clock m ~devices)
        with
        | `Lost d -> fail_lost m ~op:kind d
        | `Transient -> true
        | `Ok -> false)
  in
  transfer ?deps m ~kind (route m ~src ~dst) ~bytes;
  (match m.trace with
   | None -> ()
   | Some r ->
     Obs.Ring.push r
       { ev_kind = (if src < 0 then `H2d else if dst < 0 then `D2h else `P2p);
         ev_src = src; ev_dst = dst; ev_bytes = bytes;
         ev_start = m.op_clock.(0); ev_finish = m.op_clock.(1) });
  if src < 0 then m.h2d_bytes <- m.h2d_bytes + bytes
  else if dst < 0 then m.d2h_bytes <- m.d2h_bytes + bytes
  else m.p2p_bytes <- m.p2p_bytes + bytes;
  count_pair m ~src ~dst ~bytes;
  if transient then begin
    m.faulted_transfers <- m.faulted_transfers + 1;
    m.faulted_bytes <- m.faulted_bytes + bytes;
    record_fault m ~src ~dst;
    raise
      (Transient_fault { op = kind; device = (if dst < 0 then src else dst) })
  end

(* Host-to-device copy of [len] elements. *)
let h2d ?deps m ~src ~src_off ~dst ~dst_off ~len =
  Buffer.check_range dst ~off:dst_off ~len ~what:"h2d";
  copy ?deps m ~src:(-1) ~dst:(device m (Buffer.device dst)).dev_id ~len;
  if m.functional then Buffer.blit_from_host ~src ~src_off dst ~dst_off ~len

(* The [*_async] variants return the completion event. *)
let h2d_async ?deps m ~src ~src_off ~dst ~dst_off ~len : evt =
  h2d ?deps m ~src ~src_off ~dst ~dst_off ~len;
  m.op_clock.(1)

(* Device-to-host copy. *)
let d2h ?deps m ~src ~src_off ~dst ~dst_off ~len =
  Buffer.check_range src ~off:src_off ~len ~what:"d2h";
  copy ?deps m ~src:(device m (Buffer.device src)).dev_id ~dst:(-1) ~len;
  if m.functional then Buffer.blit_to_host src ~src_off ~dst ~dst_off ~len

let d2h_async ?deps m ~src ~src_off ~dst ~dst_off ~len : evt =
  d2h ?deps m ~src ~src_off ~dst ~dst_off ~len;
  m.op_clock.(1)

(* Device-to-device copy. *)
let p2p ?deps m ~src ~src_off ~dst ~dst_off ~len =
  Buffer.check_range src ~off:src_off ~len ~what:"p2p(src)";
  Buffer.check_range dst ~off:dst_off ~len ~what:"p2p(dst)";
  copy ?deps m ~src:(device m (Buffer.device src)).dev_id
    ~dst:(device m (Buffer.device dst)).dev_id ~len;
  if m.functional then Buffer.blit ~src ~src_off ~dst ~dst_off ~len

let p2p_async ?deps m ~src ~src_off ~dst ~dst_off ~len : evt =
  p2p ?deps m ~src ~src_off ~dst ~dst_off ~len;
  m.op_clock.(1)

(* A packed device-to-device copy of several segments (the simulated
   counterpart of a pitched cudaMemcpy2D): one transfer event moves the
   summed bytes, paying the latency once.  Empty [segments] move
   nothing. *)
let p2p_multi ?deps m ~src ~dst ~segments =
  let len = List.fold_left (fun acc (_, _, l) -> acc + l) 0 segments in
  if len > 0 then begin
    List.iter
      (fun (src_off, dst_off, l) ->
         Buffer.check_range src ~off:src_off ~len:l ~what:"p2p_multi(src)";
         Buffer.check_range dst ~off:dst_off ~len:l ~what:"p2p_multi(dst)")
      segments;
    copy ?deps m ~src:(device m (Buffer.device src)).dev_id
      ~dst:(device m (Buffer.device dst)).dev_id ~len;
    if m.functional then
      List.iter
        (fun (src_off, dst_off, l) ->
           Buffer.blit ~src ~src_off ~dst ~dst_off ~len:l)
        segments
  end

(* --- Kernels ------------------------------------------------------------ *)

let kernel_duration ?(device = -1) m ~blocks ~ops_per_block =
  Config.kernel_seconds m.cfg ~active:m.active_devices
    ~speed:(Config.device_speed m.cfg device) ~blocks ~ops_per_block

(* Declare how many devices the workload will keep busy (drives the
   autoboost derate deterministically from the first launch). *)
let set_active_devices m n =
  m.active_devices <- max 1 (min n (n_devices m))

(* Launch a kernel asynchronously on a device.  [run] performs the
   functional element work and is invoked only in functional mode. *)
let launch ?(deps = []) m ~device:d ~blocks ~ops_per_block ~run =
  let dev = device m d in
  let transient =
    match m.faults with
    | None -> false
    | Some f -> (
        match
          Faults.kernel_outcome f ~device:d ~now:(fault_clock m ~devices:[ d ])
        with
        | `Lost -> fail_lost m ~op:"kernel" d
        | `Transient -> true
        | `Ok -> false)
  in
  m.active_devices <- max m.active_devices (d + 1);
  Timeline.schedule m.host ~after:0.0 ~duration:m.cfg.Config.launch_latency
    ~category:"issue";
  record_host m "issue";
  let host = Timeline.clock m.host in
  let after =
    Float.max host.(2) (Float.max (ready_of dev.copy_in) (ready_of dev.copy_out))
  in
  let after = match deps with [] -> after | _ -> latest after deps in
  let dur =
    Config.kernel_seconds m.cfg ~active:m.active_devices
      ~speed:(Config.device_speed m.cfg d) ~blocks ~ops_per_block
  in
  Timeline.schedule dev.compute ~after ~duration:dur ~category:"kernel";
  let c = Timeline.clock dev.compute in
  m.op_clock.(0) <- c.(1);
  m.op_clock.(1) <- c.(2);
  (match m.causal with
   | None -> ()
   | Some _ ->
     (* Launch-waits-copy-engine edges (default-stream ordering) plus
        the caller's explicit events. *)
     let issue_id =
       causal_add m ~label:"launch.issue" ~category:"issue"
         ~resources:[ "host" ]
         ~ready:host.(1) ~start:host.(1) ~finish:host.(2)
         ~fixed:m.cfg.Config.launch_latency ~legs:[] ~deps:[] ~wait:""
     in
     let deps =
       issue_id :: causal_last m dev.copy_in :: causal_last m dev.copy_out
       :: List.map (causal_ev m) deps
     in
     ignore
       (causal_add m ~label:"kernel" ~category:"compute"
          ~resources:[ Timeline.name dev.compute ]
          ~ready:c.(1) ~start:c.(1) ~finish:c.(2) ~fixed:0.0 ~legs:[]
          ~deps ~wait:""));
  m.n_launches <- m.n_launches + 1;
  m.seconds.(kernel_s) <- m.seconds.(kernel_s) +. dur;
  (* Traced before a fault is raised, like a faulted copy: the launch
     occupied its compute engine either way, so its lane matches the
     engine's busy time. *)
  (match m.trace with
   | None -> ()
   | Some r ->
     Obs.Ring.push r
       { ev_kind = `Kernel; ev_src = d; ev_dst = d; ev_bytes = 0;
         ev_start = c.(1); ev_finish = c.(2) });
  (* A transient fault consumes the launch's time but produces no
     writes: raise before the functional element work runs. *)
  if transient then begin
    record_fault m ~src:d ~dst:d;
    raise (Transient_fault { op = "kernel"; device = d })
  end;
  if m.functional then run ()

let launch_async ?deps m ~device ~blocks ~ops_per_block ~run : evt =
  launch ?deps m ~device ~blocks ~ops_per_block ~run;
  m.op_clock.(1)

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

let pp_stats fmt (s : stats) =
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
  let s = stats m in
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
  (* A truncated trace silently drops ops from every lane of the Chrome
     trace, so the drop count also feeds the report's loud warning. *)
  seti "obs.dropped.trace" (trace_dropped m);
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
