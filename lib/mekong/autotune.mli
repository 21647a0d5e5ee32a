(** Cost-driven partition autotuning (DESIGN.md §18).

    Per launch, enumerate candidate partitionings — the model's fixed
    strategy axis, 1-D on the other axes, near-square 2-D tile grids,
    throughput-proportional uneven splits on heterogeneous fleets
    ({!Gpusim.Config.device_speeds}), and 1-D splits over fewer devices
    than the fleet offers — have the caller's planner build each one's
    partition plans, and score them with a transfer/compute cost
    function that combines each plan's ops-per-block (through the
    simulator's wave/autoboost formula) with the polyhedral footprint
    of cross-device bytes, the topology's latency and bandwidths, and
    the engine's host-side per-range charges.  The argmin wins, with a
    deterministic preference for the fixed-axis plan inside a 2%
    hysteresis band; a candidate that changes the partition structure
    (another axis, a 2-D tiling, fewer devices) must also beat the
    fixed plan by 20%, since its score carries the model's full error
    bars.

    Candidates eligible for halo/overlapped tiling (1-D stencil bands
    inside a [Repeat], double-buffered through a [Swap]) are scored
    with their per-transfer latency and barrier amortized by the
    temporal blocking depth, and carry the resulting
    {!Launch_cache.halo_plan}.  The engine runs the winner's partition
    plans and halo plan exactly as they were scored. *)

type shape =
  | Fixed of Dim3.axis  (** the model's strategy axis, balanced 1-D *)
  | One_d of Dim3.axis
  | Two_d of Dim3.axis * Dim3.axis
  | Weighted of Dim3.axis  (** throughput-proportional uneven 1-D *)
  | Narrow of Dim3.axis * int  (** strategy axis over fewer devices *)

val shape_name : shape -> string

val seed_shape_name : string -> bool
(** Whether a winner name (a {!shape_name}, or [""] for an untuned
    plan) denotes the model's fixed-axis shape — i.e. the tuned plan
    partitions exactly like the untuned engine and the executor may
    keep the seed's transfer schedule byte-for-byte. *)

type candidate = {
  shape : shape;
  parts : Launch_cache.partition_plan list;
      (** the non-empty partitions on live device ids, as the planner
          built them; the engine runs the winner's *)
  compute_s : float;  (** predicted makespan of the compute phase *)
  transfer_s : float;  (** predicted exchange wall time per launch *)
  host_s : float;  (** predicted host pattern/dispatch serial time *)
  busy_s : float;  (** total resource-seconds (calibration metric) *)
  cross_bytes : int;  (** steady-state cross-device bytes per launch *)
  n_transfers : int;  (** predicted transfer count per launch *)
  halo : Launch_cache.halo_plan option;
      (** halo-tiled schedule ([None] = per-step) *)
  score : float;
}

type choice = {
  c_kernel : string;
  c_grid : Dim3.t;
  c_block : Dim3.t;
  c_candidates : candidate list;
  c_winner : candidate;
  c_raw_ranges : int;
      (** raw enumerator emissions of every candidate's plans (reported,
          not charged: like plan building itself, the search is
          launch-parameter-pure and cached with the plan) *)
}

val choose :
  cfg:Gpusim.Config.t ->
  live:int list ->
  axis:Dim3.axis ->
  kernel:Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  aliases:(string * string) list ->
  iters:int ->
  buf_len:(string -> int) ->
  planner:(Partition.t -> Launch_cache.partition_plan) ->
  choice
(** Enumerate and score the candidates for one launch.  [live] are the
    live device ids in order (partition slots map onto them); [axis]
    the model's strategy axis (the fixed shape); [aliases] the
    double-buffer pairs swapped around this launch (for stencil home
    and halo detection); [iters] the enclosing [Repeat] count (1 =
    standalone launch, disables halo tiling); [buf_len] the element
    length of each buffer by launch name (clamps the planned ranges
    and mirrors the linear H2D distribution); [planner] builds the
    partition plan, with read and write range lists, of one non-empty
    partition on a live device.  {!Plan.choose} is the one caller. *)

val signature : cfg:Gpusim.Config.t -> live:int list -> iters:int -> string
(** A stable encoding of every scoring input beyond the launch key
    itself (live count, speeds, bandwidths, latency, topology,
    iteration context) — extends the launch-plan cache key so plans
    chosen under one regime are never replayed under another. *)

val pp_candidate : Format.formatter -> candidate -> unit
val choice_json : choice -> string
