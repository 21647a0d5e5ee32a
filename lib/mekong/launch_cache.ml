(* Launch-plan cache for the partitioned engine.

   A Repeat-heavy host program re-issues the same launch hundreds of
   times; everything the engine derives from the launch parameters
   alone — the non-empty partition list, per-partition parameter
   bindings, the evaluated read/write range lists with their raw
   emission counts, and the cost model's ops-per-block — is identical
   every time.  This module memoizes that work per
   (kernel, grid, block, args) key.

   Caching is sound because the cached values depend only on the
   launch parameters: enumerator evaluation binds scalars, block/grid
   dims and partition-box corners (never tracker state), and buffer
   arguments are recorded by *name* (a host-program Swap redirects the
   name inside the engine's vbuf table, not in the plan).  Everything
   state-dependent — tracker queries/updates, actual transfers, shadow
   write-set collection — stays per launch, as do all simulated
   charges, so cached and uncached runs are bit-identical in simulated
   time, transfers and functional results; only redundant host
   computation is skipped.

   The memory-pressure chunking decision (each partition's sequential
   sub-chunks) is part of the plan, so the per-device memory capacity
   it was computed against is part of the key: a plan built for one
   capacity is never replayed against another.  Capacity is the only
   memory state the decision reads — footprints come from the
   polyhedral ranges, which depend on the launch parameters alone —
   so within one machine the decision is deterministic per key.
   Runtime Out_of_memory refinement goes through [replace], which
   overwrites the key's plan with the more finely chunked one. *)

type key = {
  kernel : string;
  grid : Dim3.t;
  block : Dim3.t;
  args : Host_ir.harg list;
  mem_cap : int; (* per-device capacity the chunking was planned for *)
  tune : string;
      (* autotuner scoring-input signature (Autotune.signature): live
         devices, speeds, bandwidths, latency, topology, iteration
         context.  "" when autotuning is off, so keys — and therefore
         cache behavior — are unchanged from the fixed-strategy engine.
         With autotuning on, a plan chosen under one scoring regime is
         never replayed under another (e.g. after a device loss). *)
  reduce : string;
      (* reduction-mode signature of the launch: "op:arr,..." for
         kernels the verifier proved reducible, "" otherwise, so a
         plan is never replayed under a different execution mode *)
}

type ranges = {
  rg_buf : string; (* buffer name the array argument is bound to *)
  rg_ranges : (int * int) list; (* canonical half-open element ranges *)
  rg_raw : int; (* raw emission count (host "patterns" cost driver) *)
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
  pp_shadow_cost : float; (* 0 when the kernel has no shadow clone *)
  pp_chunks : partition_plan list;
      (* memory-pressure chunking: sequential sub-plans covering this
         partition's blocks in ascending block order, each with a
         footprint that fits the device.  [] = launch whole. *)
}

(* A halo-tiled stencil schedule (DESIGN.md §18). *)
type halo_plan = {
  hp_axis : Dim3.axis;
  hp_depth : int; (* temporal blocking factor T *)
  hp_write_buf : string; (* buffer the kernel writes (by launch name) *)
  hp_read_buf : string; (* its swap partner, the stencil input *)
  hp_halo_elems : int; (* one-step overhang h, in elements per side *)
}

type plan = {
  pl_arg_arrays : (string * string) list; (* array param -> buffer name *)
  pl_partitions : partition_plan list;
  pl_predicted_s : float;
      (* autotuner's predicted per-launch seconds for the chosen plan
         (0.0 when autotuning is off) — compared against measured
         per-launch seconds for the autotune.{predicted,actual}_us
         calibration metrics *)
  pl_choice : string;
      (* Autotune.shape_name of the winning candidate ("" = fixed) *)
  pl_halo : halo_plan option;
      (* the winner's halo-tiled schedule (None = per-step); the engine
         executes exactly the schedule the winner was scored with *)
}

(* The per-buffer union of range lists clamped to [buf_len]: what the
   autotuner scores, and what a partition's footprint measures. *)
let buffer_ranges ~buf_len rgs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun { rg_buf; rg_ranges; _ } ->
       let len = buf_len rg_buf in
       let clamped =
         List.filter_map
           (fun (s, e) ->
              let s = max 0 s and e = min e len in
              if e > s then Some (s, e) else None)
           rg_ranges
       in
       let prev = Option.value ~default:[] (Hashtbl.find_opt tbl rg_buf) in
       Hashtbl.replace tbl rg_buf (clamped @ prev))
    rgs;
  List.sort compare
    (Hashtbl.fold
       (fun b rs acc -> (b, Ppoly.Enumerate.canonicalize rs) :: acc)
       tbl [])

(* Hits and misses are reported to the caller, which counts them in
   its run's metrics registry: the counts outlive a cache generation. *)
type t = (key, plan) Hashtbl.t

let create () : t = Hashtbl.create 64

let find_or_build t key ~build =
  match Hashtbl.find_opt t key with
  | Some plan -> (plan, `Hit)
  | None ->
    let plan =
      Obs.Span.with_span ~cat:"launch_cache" ("plan:" ^ key.kernel) build
    in
    Hashtbl.replace t key plan;
    (plan, `Miss)

let mem t key = Hashtbl.mem t key

(* Overwrite a key's plan (runtime chunk refinement after a live
   Out_of_memory: the footprint estimate was optimistic, so the re-built
   plan with finer chunks replaces the cached one for all later hits). *)
let replace t key plan = Hashtbl.replace t key plan
