(** Cost-driven partition autotuning (ROADMAP item 2).

    Per launch, enumerate candidate partition plans — the model's fixed
    strategy axis, 1-D on the other axes, near-square 2-D tile grids,
    throughput-proportional uneven splits on heterogeneous fleets
    ({!Gpusim.Config.device_speeds}), and 1-D splits over fewer devices
    than the fleet offers — and score each with a transfer/compute cost
    function that combines {!Costmodel.ops_per_block} (through the
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
    temporal blocking depth, and carry the resulting {!halo_plan} so
    the engine executes exactly the schedule the score promised. *)

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
  parts : Partition.t list;
      (** slot-indexed (device = slot), empties filtered; the engine
          maps slots onto live device ids *)
  compute_s : float;  (** predicted makespan of the compute phase *)
  transfer_s : float;  (** predicted exchange wall time per launch *)
  host_s : float;  (** predicted host pattern/dispatch serial time *)
  busy_s : float;  (** total resource-seconds (calibration metric) *)
  cross_bytes : int;  (** steady-state cross-device bytes per launch *)
  n_transfers : int;  (** predicted transfer count per launch *)
  halo : halo_plan option;  (** halo-tiled schedule ([None] = per-step) *)
  score : float;
}

and halo_plan = {
  hp_axis : Dim3.axis;
  hp_depth : int;  (** temporal blocking factor T *)
  hp_write_buf : string;  (** buffer the kernel writes (by launch name) *)
  hp_read_buf : string;  (** its swap partner, the stencil input *)
  hp_halo_elems : int;  (** one-step overhang h, in elements per side *)
}

type choice = {
  c_kernel : string;
  c_grid : Dim3.t;
  c_block : Dim3.t;
  c_candidates : candidate list;
  c_winner : candidate;
  c_raw_ranges : int;
      (** raw enumerator emissions spent searching (reported, not
          charged: like plan building itself, the search is
          launch-parameter-pure and cached with the plan) *)
}

val choose :
  cfg:Gpusim.Config.t ->
  live:int list ->
  km:Model.kernel_model ->
  enums:Codegen.t ->
  partitioned:Kir.t ->
  kernel:Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Host_ir.harg list ->
  ?aliases:(string * string) list ->
  ?iters:int ->
  buf_len:(string -> int) ->
  unit ->
  choice
(** Enumerate and score the candidates for one launch.  [live] are the
    live device ids in order (slots map onto them); [aliases] the
    double-buffer pairs swapped around this launch (for stencil home
    and halo detection); [iters] the enclosing [Repeat] count (1 =
    standalone launch, disables halo tiling); [buf_len] the element
    length of each buffer by launch name (clamps enumerator ranges and
    mirrors the linear H2D distribution). *)

val signature : cfg:Gpusim.Config.t -> live:int list -> iters:int -> string
(** A stable encoding of every scoring input beyond the launch key
    itself (live count, speeds, bandwidths, latency, topology,
    iteration context) — extends the launch-plan cache key so plans
    chosen under one regime are never replayed under another. *)

val pp_candidate : Format.formatter -> candidate -> unit
val choice_json : choice -> string
