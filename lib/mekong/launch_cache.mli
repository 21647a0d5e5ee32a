(** Launch-plan cache for the partitioned engine.

    Memoizes, per (kernel, grid, block, args) launch key, everything
    {!Multi_gpu.run} derives from the launch parameters alone: the
    non-empty partition list, the evaluated read/write range lists with
    their raw emission counts, per-partition arguments and the cost
    model's ops-per-block.  Each range list also carries a
    {!Gpu_runtime.Vbuf.memo} slot, which [Vbuf] alone reads and writes
    (DESIGN.md §4).  Every transfer and every simulated charge is still
    paid on every launch, so cached and uncached runs produce
    bit-identical results; only redundant host computation is
    skipped. *)

type key = {
  kernel : string;
  grid : Dim3.t;
  block : Dim3.t;
  args : Host_ir.harg list;
  mem_cap : int;
      (** per-device memory capacity the plan's chunking was computed
          against — a plan built for one capacity is never replayed
          against another *)
  tune : string;
      (** autotuner scoring-input signature ({!Autotune.signature});
          [""] when autotuning is off, so keys are unchanged from the
          fixed-strategy engine.  A plan chosen under one scoring
          regime (live set, speeds, topology, iteration context) is
          never replayed under another. *)
  reduce : string;
      (** reduction-mode signature: ["op:arr,..."] for kernels the
          verifier proved reducible, [""] otherwise *)
}

type ranges = {
  rg_buf : string;  (** buffer name the array argument is bound to *)
  rg_ranges : (int * int) list;  (** canonical half-open element ranges *)
  rg_raw : int;  (** raw emission count (the host "patterns" cost driver) *)
  rg_memo : Gpu_runtime.Vbuf.memo;
      (** the sync memo slot of this range list, passed to every
          [Vbuf.sync_for_read] or [Vbuf.update_for_write] of it *)
}

type partition_plan = {
  pp_part : Partition.t;
  pp_reads : ranges list;
  pp_writes : ranges list;
  pp_launch_grid : Dim3.t;
  pp_n_blocks : int;
  pp_part_args : Host_ir.harg list;
  pp_scalar_args : Keval.arg list;
  pp_ops_per_block : float;
  pp_shadow_cost : float;  (** 0 when the kernel has no shadow clone *)
  pp_chunks : partition_plan list;
      (** memory-pressure chunking: sequential sub-plans covering this
          partition's blocks in ascending block order ([] = launch
          whole) *)
}

type plan = {
  pl_arg_arrays : (string * string) list;
      (** array parameter -> buffer name *)
  pl_partitions : partition_plan list;
  pl_predicted_s : float;
      (** autotuner's predicted per-launch seconds (0.0 when off),
          compared against measured seconds for the
          [autotune.{predicted,actual}_us] calibration metrics *)
  pl_choice : string;
      (** {!Autotune.shape_name} of the winning candidate ([""] =
          fixed strategy, autotuning off) *)
  pl_halo : Autotune.halo_plan option;
      (** the winner's halo-tiled schedule ([None] = per-step); the
          engine executes exactly the schedule the winner was scored
          with *)
}

type t

val create : unit -> t

val find_or_build :
  t -> key -> build:(unit -> plan) -> plan * [ `Hit | `Miss ]
(** Return the cached plan for [key], or build, record and return it.
    The cache keeps no counts: the caller counts hits and misses. *)

val replace : t -> key -> plan -> unit
(** Overwrite a key's plan (runtime chunk refinement after a live
    [Out_of_memory]). *)
