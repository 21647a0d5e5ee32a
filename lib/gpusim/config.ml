(* Machine descriptions for the multi-GPU simulator.

   The paper's testbed is a Supermicro X10DRG with eight NVIDIA K80
   boards (16 GPU dies) behind PCIe 3.0 switches.  The constants below
   are calibrated to that class of machine; we reproduce scaling
   *shapes*, not absolute seconds (see DESIGN.md §4 and
   EXPERIMENTS.md). *)

(* Fabric topology.  [Flat] is the classic single shared PCIe bus the
   paper's testbed exposes: every host<->device and cross-device byte
   contends for one aggregate [fabric_bandwidth] pipe.  [Islands]
   models an NVLink-style machine: devices are grouped into islands of
   [island_size] consecutive ids; each island has one intra-island
   link (direct device<->device traffic at [link_bandwidth]) and one
   uplink to the host/inter-island switch at [uplink_bandwidth].
   Transfers occupy every link on their route, so contention is
   per-link instead of machine-global. *)
type topology =
  | Flat
  | Islands of {
      island_size : int; (* devices per island (consecutive ids) *)
      link_bandwidth : float; (* intra-island link bytes per second *)
      uplink_bandwidth : float; (* per-island host uplink bytes per second *)
    }

type host_costs = {
  tracker_op_seconds : float;
      (* cost of one segment-tracker query or update (B-tree op) *)
  range_seconds : float;
      (* cost of emitting/handling one enumerator range *)
  dispatch_seconds : float;
      (* host-side bookkeeping per kernel-partition launch *)
}

type t = {
  name : string;
  n_devices : int;
  sms_per_device : int;
  ops_per_sm : float; (* simple kernel-IR operations per second per SM *)
  blocks_per_sm : int; (* concurrently resident blocks per SM *)
  autoboost_derate : float;
      (* K80 autoboost: per-die throughput lost when all dies are
         active; throughput scales linearly from 1.0 (one active die)
         to [1 - derate] (all [total_dies] active) *)
  total_dies : int; (* dies physically present (thermal envelope) *)
  pcie_bandwidth : float; (* host<->device link bytes per second *)
  p2p_bandwidth : float; (* device<->device link bytes per second *)
  dmem_bandwidth : float;
      (* device-local memory copy bytes per second: a copy whose source
         and destination live on the same die moves through device
         memory only and never touches the PCIe fabric *)
  fabric_bandwidth : float;
      (* aggregate PCIe fabric bytes per second, shared by all
         transfers in flight (root-complex bottleneck).  Only
         cross-device and host<->device traffic occupies the fabric —
         a cross-device copy stages through host memory and crosses it
         twice (2x bytes), a device-local copy not at all. *)
  transfer_latency : float; (* fixed seconds per transfer *)
  launch_latency : float; (* fixed host seconds per kernel launch *)
  sync_device_seconds : float;
      (* host cost of synchronizing with one device (cudaSetDevice +
         cudaDeviceSynchronize per context) *)
  elem_bytes : int; (* bytes per array element *)
  mem_capacity : int;
      (* device-memory capacity in bytes per die.  Allocations and
         resident segments are charged against it; exceeding it raises
         [Machine.Out_of_memory].  The default is [max_int]
         (effectively unlimited) so capacity is opt-in; a real K80 die
         has 12 GiB. *)
  topology : topology;
      (* fabric topology: the flat shared bus (the default, and the
         paper's testbed) or NVLink-style islands with per-link
         contention *)
  device_speeds : float array;
      (* per-device throughput multiplier on [ops_per_sm], for
         heterogeneous fleets (e.g. a box mixing K80 and K40 dies).
         [||] (the default) means every device runs at 1.0 — the
         homogeneous box, bit-identical to configs predating the
         field.  When non-empty the length must equal [n_devices] and
         every entry must be positive. *)
  host : host_costs;
}

(* Construction-time sanity checks.  Every rate and capacity below
   feeds a division or a comparison in the simulator; a zero or
   negative value there silently produces NaN/negative simulated times
   (or an accounting model where nothing ever fits), so reject them
   loudly instead. *)
let validate t =
  let reject field detail =
    invalid_arg
      (Printf.sprintf "Config %s: %s must be %s" t.name field detail)
  in
  let positive_int field v =
    if v <= 0 then reject field (Printf.sprintf "positive (got %d)" v)
  in
  let positive_rate field v =
    if not (v > 0.0) then
      reject field (Printf.sprintf "a positive rate (got %g)" v)
  in
  let non_negative field v =
    if not (v >= 0.0) then
      reject field (Printf.sprintf "non-negative (got %g)" v)
  in
  positive_int "n_devices" t.n_devices;
  positive_int "sms_per_device" t.sms_per_device;
  positive_int "blocks_per_sm" t.blocks_per_sm;
  positive_int "total_dies" t.total_dies;
  positive_int "elem_bytes" t.elem_bytes;
  positive_int "mem_capacity" t.mem_capacity;
  positive_rate "ops_per_sm" t.ops_per_sm;
  positive_rate "pcie_bandwidth" t.pcie_bandwidth;
  positive_rate "p2p_bandwidth" t.p2p_bandwidth;
  positive_rate "dmem_bandwidth" t.dmem_bandwidth;
  positive_rate "fabric_bandwidth" t.fabric_bandwidth;
  if not (t.autoboost_derate >= 0.0 && t.autoboost_derate < 1.0) then
    reject "autoboost_derate"
      (Printf.sprintf "in [0,1) (got %g)" t.autoboost_derate);
  (match t.topology with
   | Flat -> ()
   | Islands { island_size; link_bandwidth; uplink_bandwidth } ->
     positive_int "topology.island_size" island_size;
     positive_rate "topology.link_bandwidth" link_bandwidth;
     positive_rate "topology.uplink_bandwidth" uplink_bandwidth);
  (if Array.length t.device_speeds > 0 then begin
     if Array.length t.device_speeds <> t.n_devices then
       reject "device_speeds"
         (Printf.sprintf "of length n_devices=%d (got %d)" t.n_devices
            (Array.length t.device_speeds));
     Array.iteri
       (fun d s ->
          if not (s > 0.0 && Float.is_finite s) then
            reject "device_speeds"
              (Printf.sprintf "finite and positive for every device (device %d: %g)" d s))
       t.device_speeds
   end);
  non_negative "transfer_latency" t.transfer_latency;
  non_negative "launch_latency" t.launch_latency;
  non_negative "sync_device_seconds" t.sync_device_seconds;
  non_negative "host.tracker_op_seconds" t.host.tracker_op_seconds;
  non_negative "host.range_seconds" t.host.range_seconds;
  non_negative "host.dispatch_seconds" t.host.dispatch_seconds;
  t

let k80_host_costs =
  {
    tracker_op_seconds = 6.0e-7;
    range_seconds = 4.0e-7;
    dispatch_seconds = 7.0e-6;
  }

(* K80-class box.  The per-SM operation rate is in units of kernel-IR
   operations (one "op" bundles an instruction and its share of memory
   traffic), calibrated so the Hotspot Medium iteration lands near the
   9 ms a memory-bound 16384^2 stencil takes on one K80 die. *)
let k80_box ?(n_devices = 16) ?(mem_capacity = max_int) ?(topology = Flat)
    ?(device_speeds = [||]) () =
  validate
    {
    name = "supermicro-x10drg-k80";
    n_devices;
    sms_per_device = 13;
    ops_per_sm = 1.35e11;
    blocks_per_sm = 2;
    autoboost_derate = 0.15;
    total_dies = 16;
    pcie_bandwidth = 10.0e9;
    p2p_bandwidth = 6.0e9;
    (* K80 GDDR5 is ~240 GB/s peak per die; ~160 GB/s is the achievable
       device-to-device-memory copy rate. *)
    dmem_bandwidth = 160.0e9;
    fabric_bandwidth = 8.0e9;
    transfer_latency = 40.0e-6;
    launch_latency = 8.0e-6;
    sync_device_seconds = 10.0e-6;
      elem_bytes = 4;
      mem_capacity;
      topology;
      device_speeds;
      host = k80_host_costs;
    }

(* A tiny machine for functional tests: timing constants are irrelevant
   there, device count is what matters. *)
let test_box ?(n_devices = 4) ?mem_capacity ?topology ?device_speeds () =
  { (k80_box ~n_devices ?mem_capacity ?topology ?device_speeds ()) with
    name = "test-box" }

(* The config of a leased sub-machine: the same per-device constants
   over [n_devices] of the fleet's devices.  The thermal envelope
   ([total_dies]) is kept: leased dies share the box. *)
let lease t ~n_devices =
  if n_devices < 1 || n_devices > t.n_devices then
    invalid_arg
      (Printf.sprintf "Config.lease: n_devices must be in [1,%d] (got %d)"
         t.n_devices n_devices)
  else
    validate
      {
        t with
        n_devices;
        name = Printf.sprintf "%s/lease%d" t.name n_devices;
        (* A lease grabs whichever fleet devices are free, so a
           per-device speed map keyed by fleet id cannot be sliced
           meaningfully; leased sub-machines run homogeneous. *)
        device_speeds = [||];
      }

(* Throughput multiplier of one device; 1.0 everywhere on a
   homogeneous box (empty [device_speeds]) or for out-of-range ids. *)
let device_speed t d =
  if d >= 0 && d < Array.length t.device_speeds then t.device_speeds.(d)
  else 1.0

(* Per-die throughput factor when [active] dies are busy out of the
   box's thermal envelope of [total_dies]. *)
let boost_factor t ~active =
  let total = max 1 (t.total_dies - 1) in
  1.0
  -. (t.autoboost_derate
      *. float_of_int (max 0 (min active t.total_dies - 1))
      /. float_of_int total)

(* Duration of a kernel launch of [blocks] blocks on a device of
   relative [speed] while [active] devices are busy.  Blocks execute
   over the device's resident-block slots; below full occupancy the
   whole wave takes one block's time (latency bound), above it the
   duration grows linearly.  The per-SM rate is derated by the
   autoboost factor. *)
let kernel_seconds t ~active ~speed ~blocks ~ops_per_block =
  if blocks = 0 then 0.0
  else
    let slots = t.sms_per_device * t.blocks_per_sm in
    let block_time =
      ops_per_block
      *. float_of_int t.blocks_per_sm
      /. (t.ops_per_sm *. speed *. boost_factor t ~active)
    in
    block_time *. Float.max 1.0 (float_of_int blocks /. float_of_int slots)

(* CLI spec for a topology: "flat", or "islands:SIZE,LINK,UPLINK" with
   the bandwidths in GB/s (e.g. "islands:4,80,12").  The inverse of
   [topology_to_string] up to number formatting. *)
let topology_of_string s =
  let s = String.trim s in
  if s = "flat" then Ok Flat
  else
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "islands" -> (
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match String.split_on_char ',' rest with
        | [ size; link; uplink ] -> (
            match
              ( int_of_string_opt (String.trim size),
                float_of_string_opt (String.trim link),
                float_of_string_opt (String.trim uplink) )
            with
            | Some island_size, Some link_gbs, Some uplink_gbs
              when island_size > 0 && link_gbs > 0.0 && uplink_gbs > 0.0 ->
              Ok
                (Islands
                   {
                     island_size;
                     link_bandwidth = link_gbs *. 1e9;
                     uplink_bandwidth = uplink_gbs *. 1e9;
                   })
            | _ ->
              Error
                (Printf.sprintf
                   "bad islands spec %S: want islands:SIZE,LINK_GBS,UPLINK_GBS \
                    with positive numbers"
                   s))
        | _ ->
          Error
            (Printf.sprintf
               "bad islands spec %S: want islands:SIZE,LINK_GBS,UPLINK_GBS" s))
    | _ ->
      Error
        (Printf.sprintf
           "unknown topology %S: want \"flat\" or \"islands:SIZE,LINK,UPLINK\""
           s)

let topology_to_string = function
  | Flat -> "flat"
  | Islands { island_size; link_bandwidth; uplink_bandwidth } ->
    Printf.sprintf "islands:%d,%g,%g" island_size (link_bandwidth /. 1e9)
      (uplink_bandwidth /. 1e9)
