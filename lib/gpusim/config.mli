(** Machine descriptions for the multi-GPU simulator, calibrated to the
    paper's testbed (Supermicro X10DRG, eight NVIDIA K80 boards = 16
    dies behind PCIe 3.0 switches).  Shapes, not absolute seconds, are
    the reproduction target — see DESIGN.md §4. *)

(** Fabric topology.  [Flat] is the single shared PCIe bus of the
    paper's testbed (the default): every host<->device and cross-device
    byte contends for one aggregate [fabric_bandwidth] pipe.
    [Islands] models an NVLink-style machine: devices are grouped into
    islands of [island_size] consecutive ids, each with one
    intra-island link (direct device<->device traffic at
    [link_bandwidth]) and one host/inter-island uplink at
    [uplink_bandwidth]; transfers occupy every link on their route, so
    contention is per-link instead of machine-global. *)
type topology =
  | Flat
  | Islands of {
      island_size : int;
      link_bandwidth : float;
      uplink_bandwidth : float;
    }

type host_costs = {
  tracker_op_seconds : float;
      (** cost of one segment-tracker query or update (B-tree op) *)
  range_seconds : float;
      (** cost of emitting/handling one enumerator range *)
  dispatch_seconds : float;
      (** host-side bookkeeping per kernel-partition launch *)
}

type t = {
  name : string;
  n_devices : int;
  sms_per_device : int;
  ops_per_sm : float;
      (** simple kernel-IR operations per second per SM *)
  blocks_per_sm : int;  (** concurrently resident blocks per SM *)
  autoboost_derate : float;
      (** per-die throughput lost when all [total_dies] are active *)
  total_dies : int;  (** dies physically present (thermal envelope) *)
  pcie_bandwidth : float;  (** host<->device link bytes per second *)
  p2p_bandwidth : float;  (** device<->device link bytes per second *)
  dmem_bandwidth : float;
      (** device-local memory copy bytes per second (same-device copies
          never cross the PCIe fabric) *)
  fabric_bandwidth : float;
      (** aggregate PCIe fabric bytes per second, shared by all
          transfers in flight; device-local copies occupy none of it *)
  transfer_latency : float;  (** fixed seconds per transfer *)
  launch_latency : float;  (** fixed host seconds per kernel launch *)
  sync_device_seconds : float;
      (** host cost of synchronizing with one device context *)
  elem_bytes : int;  (** bytes per array element *)
  mem_capacity : int;
      (** device-memory bytes per die; allocations and resident
          segments are charged against it ([max_int] = unlimited, the
          default; a real K80 die has 12 GiB) *)
  topology : topology;
      (** fabric topology: the flat shared bus (the default, and the
          paper's testbed) or NVLink-style islands with per-link
          contention *)
  device_speeds : float array;
      (** per-device throughput multiplier on [ops_per_sm] for
          heterogeneous fleets; [[||]] (the default) = homogeneous.
          Non-empty arrays must have length [n_devices] with every
          entry finite and positive. *)
  host : host_costs;
}

val validate : t -> t
(** Sanity-check a config, raising [Invalid_argument] with the field
    name on non-positive bandwidths, op rates, counts or
    [mem_capacity], a derate outside [0,1), or negative latencies.
    Returns the config unchanged when valid.  [Machine.create] calls
    this, so hand-built configs are checked too. *)

val k80_box :
  ?n_devices:int -> ?mem_capacity:int -> ?topology:topology ->
  ?device_speeds:float array -> unit -> t
(** The calibrated K80-class box (default 16 devices, unlimited
    device memory, flat fabric, homogeneous dies). *)

val test_box :
  ?n_devices:int -> ?mem_capacity:int -> ?topology:topology ->
  ?device_speeds:float array -> unit -> t
(** Machine for functional tests (timing constants irrelevant there). *)

val lease : t -> n_devices:int -> t
(** The config of a leased sub-machine: the same per-device constants
    over [n_devices] (1 <= [n_devices] <= [t.n_devices], else
    [Invalid_argument]) of the fleet's devices.  [total_dies] is kept:
    leased dies share the box's thermal envelope.  [device_speeds] is
    reset to homogeneous — a lease grabs whichever fleet devices are
    free, so a speed map keyed by fleet id cannot be sliced
    meaningfully. *)

val boost_factor : t -> active:int -> float
(** Per-die throughput factor when [active] dies are busy. *)

val kernel_seconds :
  t -> active:int -> speed:float -> blocks:int -> ops_per_block:float -> float
(** The wave model: seconds for a launch of [blocks] blocks on a device
    of relative throughput [speed] while [active] devices are busy; 0
    for no blocks.  The simulator, the autotuner and the scheduler's
    runtime estimate all use it. *)

val device_speed : t -> int -> float
(** Throughput multiplier of one device: [device_speeds.(d)], or 1.0 on
    a homogeneous box (empty [device_speeds]) / out-of-range ids. *)

val topology_of_string : string -> (topology, string) result
(** Parse a CLI topology spec: ["flat"], or
    ["islands:SIZE,LINK_GBS,UPLINK_GBS"] with bandwidths in GB/s
    (e.g. ["islands:4,80,12"]). *)

val topology_to_string : topology -> string
