(* The partitioned execution engine: runs a host program over all
   devices of the simulated machine, orchestrated exactly as the code
   the source-to-source rewriter inserts (paper §5, Fig. 4), plus the
   memcpy translations of §8.2 through {!Gpu_runtime.Vbuf}.  Each
   launch runs as a {!Plan} (DESIGN.md §21): the pure step list says
   what happens, the interpreter in [run_bounded] makes it happen and
   owns retry, replay, checkpoints and preemption. *)

type compiled_kernel = Plan.compiled_kernel = {
  ck_model : Model.kernel_model;
  ck_partitioned : Kir.t;
  ck_enums : Codegen.t;
  ck_shadow : Kir.t option;
  ck_gate : Verify.verdict;
}

(* The "linked binary": the host program plus, per kernel, the
   partitioned clone and the generated enumerators. *)
type exe = {
  prog : Host_ir.t;
  compiled : (string * compiled_kernel) list;
}

let compile_kernel ?rectangles ?force_strategy (model : Model.t) (k : Kir.t) =
  let km = Model.find_exn model k.Kir.name in
  let km =
    match force_strategy with
    | Some axis -> { km with Model.strategy = axis }
    | None -> km
  in
  {
    ck_model = km;
    (* The Eq. 8 substitution introduces foldable offsets; clean the
       partitioned clone up like a compiler middle-end would.  (The
       analysis already ran on the unoptimized kernel, so dropping a
       dead padding load here only under-uses the modeled read set,
       which is safe.) *)
    ck_partitioned = Kopt.optimize (Partition.transform_kernel k);
    ck_enums = Codegen.build ?rectangles km;
    ck_shadow =
      (if
         List.exists
           (fun (a : Model.array_model) -> a.Model.write_instrumented)
           km.Model.arrays
       then Some (Partition.transform_kernel (Instrument.shadow_kernel k))
       else None);
    (* The gate works on the original kernel's maps: a partition's
       blocks are a subset of the full grid's blocks, so full-grid
       disjointness covers every partition launch. *)
    ck_gate =
      (match Verify.verify ~kernel:k km with
       | Verify.Reducible red as g ->
         (* The engine redirects *every* access to a reducible array
            into an identity-initialized accumulator; a plain read or
            write on the same array would observe identity values
            instead of live data, so only purely-atomic arrays take
            the reducible path. *)
         let plainly_accessed (arr, _) =
           match
             List.find_opt
               (fun (a : Model.array_model) -> a.Model.arr = arr)
               km.Model.arrays
           with
           | Some a ->
             a.Model.read <> None || a.Model.write <> None
             || a.Model.write_instrumented
           | None -> false
         in
         if List.exists plainly_accessed red then
           Verify.Unknown
             "reducible array is also plainly read or written"
         else g
       | g -> g);
  }

let link ?rectangles ?force_strategy ~(model : Model.t) (prog : Host_ir.t) :
  exe =
  Host_ir.validate prog;
  let compiled =
    List.map
      (fun k -> (k.Kir.name, compile_kernel ?rectangles ?force_strategy model k))
      (Host_ir.kernels prog)
  in
  (* Atomic kernels have no sequential fallback that preserves CUDA
     semantics across partitions (overlapping read-modify-writes would
     race through the trackers), so they must be proven safe or
     reducible at link time; the diagnostic carries the verifier's
     typed reason. *)
  List.iter
    (fun (name, ck) ->
       let has_atomics =
         List.exists
           (fun (a : Model.array_model) -> a.Model.atomic_ops <> [])
           ck.ck_model.Model.arrays
       in
       match ck.ck_gate with
       | Verify.Safe | Verify.Reducible _ -> ()
       | (Verify.Racy _ | Verify.Unknown _) as g when has_atomics ->
         invalid_arg
           (Printf.sprintf
              "Multi_gpu.link: atomic kernel %s is neither safe nor \
               reducible: %s"
              name
              (Verify.verdict_to_string g))
       | Verify.Racy _ | Verify.Unknown _ -> ())
    compiled;
  { prog; compiled }

exception All_devices_lost
(* Terminal: the fault schedule killed every device.  Raised instead of
   spinning in backoff against an empty fleet; there is no state worth
   reporting because no device can hold any. *)

type fault_report = {
  fr_faults : int; (* transient faults and losses observed by the machine *)
  fr_retries : int; (* statement retries after transient faults *)
  fr_replays : int; (* checkpoint replays after unrecoverable data loss *)
  fr_devices_lost : int; (* permanent device losses survived *)
}

let no_faults =
  { fr_faults = 0; fr_retries = 0; fr_replays = 0; fr_devices_lost = 0 }

(* Identity and combine of the reducible merge, matching the
   interpreter's atomic semantics element-wise so host merging is
   bit-compatible with in-place accumulation. *)
let reduce_identity = function
  | Kir.AAdd -> 0.0
  | Kir.AMin -> infinity
  | Kir.AMax -> neg_infinity

let reduce_combine = function
  | Kir.AAdd -> ( +. )
  | Kir.AMin -> Stdlib.min
  | Kir.AMax -> Stdlib.max

type result = {
  machine : Gpusim.Machine.t;
  time : float;
  faults : fault_report;
      (* what the self-healing loop saw and did, read back from the
         faults.* series (all zero on ideal hardware) *)
  metrics : Obs.Metrics.t; (* every engine counter of this run *)
}

let publish_metrics ?(into = Obs.Metrics.default) (r : result) =
  Obs.Metrics.merge ~into r.metrics;
  Gpusim.Machine.publish_metrics ~into r.machine

(* The run report, one line per section, read from a registry. *)
type report_line = Plan_cache | Executor | Gate | Faults | Memory | Autotune

let pp_report lines fmt (reg : Obs.Metrics.t) =
  let v name = Obs.Metrics.get reg name in
  let i name = int_of_float (v name) in
  List.iter
    (function
      | Plan_cache ->
        Format.fprintf fmt "plan cache: %d hits / %d misses; sync memo: %d hits / %d misses@."
          (i "cache.plan_hits") (i "cache.plan_misses") (i "cache.sync_hits")
          (i "cache.sync_misses")
      | Executor ->
        Format.fprintf fmt
          "executor: %d compiled (%d cache hits), %d launches sequential, \
           %d parallel (max %d domains), %d interpreted, %d scalar blocks@."
          (i "exec.compiles") (i "exec.cache_hits") (i "exec.seq_launches")
          (i "exec.par_launches") (i "exec.max_domains") (i "exec.interpreted")
          (i "kcompile.scalar_blocks")
      | Gate ->
        Format.fprintf fmt
          "race gate: safe=%d reducible=%d racy=%d unknown=%d merges=%d \
           merged_elems=%d@."
          (i "engine.gate.safe") (i "engine.gate.reducible")
          (i "engine.gate.racy") (i "engine.gate.unknown")
          (i "engine.gate.merges") (i "engine.gate.merged_elems")
      | Faults ->
        Format.fprintf fmt "faults=%d retries=%d replays=%d devices_lost=%d@."
          (i "faults.observed") (i "faults.retries") (i "faults.replays")
          (i "faults.devices_lost")
      | Memory ->
        Format.fprintf fmt "chunked_launches=%d chunks=%d oom_refinements=%d@."
          (i "engine.chunked_launches") (i "engine.chunks")
          (i "engine.oom_refinements")
      | Autotune ->
        Format.fprintf fmt
          "autotuned=%d predicted=%.6fs actual=%.6fs halo_blocks=%d \
           halo_steps=%d@."
          (i "autotune.launches")
          (v "autotune.predicted_us" *. 1e-6)
          (v "autotune.actual_us" *. 1e-6)
          (i "autotune.halo_blocks") (i "autotune.halo_steps"))
    lines

(* A preemption handoff: the flattened-statement index to resume from
   plus the logical content of every live buffer, gathered host-side.
   Statements are idempotent (see the flattening comment below), so
   resuming a fresh engine at [h_index] with these buffers restored
   reproduces the uninterrupted run bit-identically. *)
type handoff = {
  h_index : int;
  h_buffers : (string * int * float array option) list;
      (* (name, len, content); content is [None] on performance
         machines, where only extents matter *)
}

type bounded = Done of result | Preempted of result * handoff

let launch_bindings = Plan.launch_bindings

(* Backoff constants for transient-fault retries, all in *simulated*
   seconds: the retried operation itself advances the simulated clock,
   so the penalty a real driver would impose must live on the same
   clock (wall-clock sleeps would be invisible to the reported times).
   The budget bounds total backoff per action, about a hundred retries.
   The fault layer's consecutive cap bounds the retries of one
   operation, not of a whole statement: a statement of many operations
   at a high rate can exhaust the budget, and the run then fails with a
   one-line [Failure]. *)
let backoff_base = 100e-6
let backoff_cap = 10e-3
let backoff_budget = 1.0

(* What the interpreter needs to run one plan's steps. *)
type context = {
  c_ck : compiled_kernel;
  c_block : Dim3.t;
  c_args : (string * string) list; (* array parameter -> buffer name *)
  mutable c_bufs : (string * Gpu_runtime.Vbuf.t) list;
      (* the launch's buffers by name, as bound now: read once per
         launch instead of once per range list, and again after a
         [Swap] step *)
  c_pool : Gpu_runtime.Vbuf.t list; (* the eviction pool *)
  c_accs : (string * (float array * bool array)) list array option;
      (* per partition, each reducible array's accumulator and touched
         flags (functional machines only) *)
}

let run_bounded ?(cfg = Gpu_runtime.Rconfig.alpha) ?(tiling = `One_d)
    ?(cache = true) ?(checkpoint_every = 8) ?(overlap = false)
    ?(autotune = false) ?abort_at ?resume ~(machine : Gpusim.Machine.t)
    (exe : exe) : bounded =
  if not (Gpu_runtime.Rconfig.is_valid cfg) then invalid_arg "Multi_gpu.run: bad config";
  if checkpoint_every <= 0 then
    invalid_arg "Multi_gpu.run: checkpoint_every must be positive";
  (match abort_at with
   | Some t when not (t > 0.0) ->
     invalid_arg "Multi_gpu.run_bounded: abort_at must be positive"
   | _ -> ());
  (* Every engine counter of the run lives in this registry (DESIGN.md
     §14); the handles are bumped where the events happen. *)
  let metrics = Obs.Metrics.create () in
  let counter = Obs.Metrics.counter metrics in
  let bump c = Obs.Metrics.add c 1.0 in
  (* Compiled kernels are cached even with [cache:false]: they never
     affect simulated results, and re-deriving them per launch would
     bury the plan-cache A/B signal under compilation noise. *)
  let launcher = Kcompile.executor metrics in
  let m = machine in
  let functional = Gpusim.Machine.is_functional m in
  (* Engine phases are spanned on the simulated host clock as well as
     wall time, so the trace shows where simulated time is created. *)
  let sim () = Gpusim.Machine.host_time m in
  (* The span name doubles as the causal phase label, so DAG nodes
     carry the engine phase that scheduled them; only the causal DAG
     reads the label, so without it no phase is set. *)
  let causal = Gpusim.Machine.causal_enabled m in
  let span name f =
    Obs.Span.with_span ~cat:"engine" ~sim name
      (if causal then fun () -> Gpusim.Machine.with_phase m name f else f)
  in
  let tick () = Gpusim.Machine.lru_tick m in
  let host_costs = (Gpusim.Machine.config m).Gpusim.Config.host in
  let n_devices = Gpusim.Machine.n_devices m in
  Gpusim.Machine.set_active_devices m n_devices;
  (* Self-healing is armed only when the machine injects faults, so
     ideal-hardware runs take the exact pre-existing path: no replica
     tracking, no checkpoints, no extra simulated work. *)
  let healing = Gpusim.Machine.fault_state m <> None in
  let live = ref (Gpusim.Machine.live_devices m) in
  let faults_at_entry = (Gpusim.Machine.stats m).Gpusim.Machine.n_faults in
  let observed = counter "faults.observed"
  and retries = counter "faults.retries"
  and replays = counter "faults.replays"
  and devices_lost = counter "faults.devices_lost" in
  let vbufs : (string, Gpu_runtime.Vbuf.t) Hashtbl.t = Hashtbl.create 16 in
  (* Memory-pressure adaptation (DESIGN.md §15): a finite capacity makes
     the whole buffer population the eviction pool and chunks launches
     whose footprint does not fit. *)
  let mem_cap = Gpusim.Machine.mem_capacity m in
  let capped = mem_cap < max_int && cfg.Gpu_runtime.Rconfig.patterns in
  let chunked_launches = counter "engine.chunked_launches"
  and chunks_run = counter "engine.chunks"
  and oom_refinements = counter "engine.oom_refinements" in
  (* Per-launch-key forced minimum chunk count: bumped when a launch
     dies with a live Out_of_memory despite the footprint estimate. *)
  let forced : (Launch_cache.key, int) Hashtbl.t = Hashtbl.create 4 in
  (* --- Autotuning state (DESIGN.md §18) ------------------------------ *)
  (* The scorer needs the polyhedral range lists, so autotuning is only
     meaningful under a patterns config (like the tracker itself). *)
  let tune_enabled = autotune && cfg.Gpu_runtime.Rconfig.patterns in
  (* The autotuner's static inputs: double-buffer pairs and per-kernel
     Repeat iteration counts. *)
  let swap_aliases, iters_of = Plan.loop_context exe.prog in
  (* Halo-tiled Repeat execution composes with the plain engine only:
     self-healing checkpoints count per-launch, preemption and resume
     index into the flattened stream, and memory chunking re-syncs
     between chunks — all assume the per-step schedule, so any of them
     disables Repeat interception (never the autotuned partition
     choice itself). *)
  let halo_repeats_ok =
    tune_enabled && (not healing) && abort_at = None && resume = None
    && not capped
  in
  let tune_launches = counter "autotune.launches" in
  (* The calibration sums are added to their series once, at the end,
     so the published microseconds are the scaled sum of the seconds. *)
  let tune_pred = ref 0.0 and tune_act = ref 0.0 in
  let predicted_us = counter "autotune.predicted_us"
  and actual_us = counter "autotune.actual_us" in
  (* Per-launch relative-error histogram: one counter per bucket upper
     bound in percent, plus the open-ended one above the last. *)
  let err_le =
    List.map
      (fun pct -> (pct, counter (Printf.sprintf "autotune.err_le_%.0fpct" pct)))
      [ 5.0; 10.0; 25.0; 50.0; 100.0 ]
  and err_gt = counter "autotune.err_gt_100pct" in
  let halo_blocks = counter "autotune.halo_blocks"
  and halo_steps = counter "autotune.halo_steps" in
  let record_tune ~predicted ~actual =
    bump tune_launches;
    tune_pred := !tune_pred +. predicted;
    tune_act := !tune_act +. actual;
    let err =
      if actual > 0.0 then abs_float (predicted -. actual) /. actual *. 100.0
      else if predicted = 0.0 then 0.0
      else infinity
    in
    bump
      (match List.find_opt (fun (pct, _) -> err <= pct) err_le with
       | Some (_, c) -> c
       | None -> err_gt)
  in
  (* The eviction pool, sorted by name: stamps shared across vbufs can
     tie, and [coldest] breaks ties by pool order, so the order must
     not depend on hash-table internals.  Swaps only rebind names, so
     the pool changes only where buffers are created or dropped, and
     is re-sorted there rather than on every launch. *)
  let pool = ref [] in
  let refresh_pool () =
    pool :=
      List.sort
        (fun a b ->
           compare (Gpu_runtime.Vbuf.name a) (Gpu_runtime.Vbuf.name b))
        (Hashtbl.fold (fun _ vb acc -> vb :: acc) vbufs [])
  in
  (* Per-launch compiled-kernel lookup must not be linear in the kernel
     count. *)
  let compiled_tbl : (string, compiled_kernel) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (name, ck) ->
       if not (Hashtbl.mem compiled_tbl name) then
         Hashtbl.add compiled_tbl name ck)
    exe.compiled;
  let gate =
    List.map
      (fun v -> (v, counter ("engine.gate." ^ v)))
      [ "safe"; "reducible"; "racy"; "unknown" ]
  in
  Hashtbl.iter
    (fun _ ck -> bump (List.assoc (Verify.verdict_name ck.ck_gate) gate))
    compiled_tbl;
  let gate_merges = counter "engine.gate.merges"
  and gate_merged_elems = counter "engine.gate.merged_elems" in
  let plan_hits = counter "cache.plan_hits"
  and plan_misses = counter "cache.plan_misses" in
  (* Transfers, sync-memo lookups and charged tracker ops are counted
     once per range list, so the hot path counts them in ints; their
     series are registered here and added to once, at the end of the
     run. *)
  let transfers = ref 0 and ops_charged = ref 0 in
  let memo_stats = { Gpu_runtime.Vbuf.hits = 0; misses = 0 } in
  let hot_counts =
    [
      (counter "engine.transfers", fun () -> !transfers);
      (counter "cache.sync_hits", fun () -> memo_stats.hits);
      (counter "cache.sync_misses", fun () -> memo_stats.misses);
      (counter "engine.tracker_ops", fun () -> !ops_charged);
    ]
  in
  (* The cache lives for one cache generation: device count, tiling and
     measurement config are fixed within it, so they need not be part
     of the key.  A permanent device loss changes the partitioning and
     starts a fresh generation (every cached plan names the dead
     device). *)
  let plan_cache = ref (Launch_cache.create ()) in
  let find b =
    match Hashtbl.find_opt vbufs b with
    | Some vb -> vb
    | None -> invalid_arg ("Multi_gpu: unallocated buffer " ^ b)
  in
  let swap a b =
    let va = find a and vb = find b in
    Hashtbl.replace vbufs a vb;
    Hashtbl.replace vbufs b va
  in
  let bind args = List.map (fun (_, b) -> (b, find b)) args in
  (* A launch's buffer by name: range lists name their buffers with the
     plan's own strings, so the physical test almost always settles it. *)
  let rec bound bufs name =
    match bufs with
    | (b, vb) :: rest ->
      if b == name || String.equal b name then vb else bound rest name
    | [] -> find name
  in
  (* Charge host-side dependency-resolution work (the "patterns"
     overhead of §9.2). *)
  let charge ~tracker_ops ~ranges ~dispatches =
    ops_charged := !ops_charged + tracker_ops;
    let seconds =
      (float_of_int tracker_ops *. host_costs.Gpusim.Config.tracker_op_seconds)
      +. (float_of_int ranges *. host_costs.Gpusim.Config.range_seconds)
      +. (float_of_int dispatches *. host_costs.Gpusim.Config.dispatch_seconds)
    in
    if seconds > 0.0 then Gpusim.Machine.host_work m ~seconds ~category:"pattern"
  in
  (* Run one buffer operation and charge the tracker operations it
     performed, plus [ranges] raw enumerator emissions. *)
  let tracked ?(ranges = 0) vb f =
    let tr = Gpu_runtime.Vbuf.tracker vb in
    let before = Gpu_runtime.Tracker.ops tr in
    let res = f () in
    charge ~tracker_ops:(Gpu_runtime.Tracker.ops tr - before) ~ranges
      ~dispatches:0;
    res
  in
  let h2d vb src =
    tracked vb (fun () -> Gpu_runtime.Vbuf.h2d ~cfg ~pool:!pool vb ~src)
  in
  let d2h vb dst =
    tracked vb (fun () -> Gpu_runtime.Vbuf.d2h ~cfg vb ~dst);
    dst
  in
  (* The whole-buffer gather to a fresh host array (no data on
     performance machines). *)
  let gather vb =
    d2h vb
      (if functional then Some (Array.make (Gpu_runtime.Vbuf.len vb) 0.0)
       else None)
  in
  (* --- Launch plans ------------------------------------------------- *)
  let env () =
    {
      Plan.patterns = cfg.Gpu_runtime.Rconfig.patterns;
      tiling;
      overlap;
      autotune = tune_enabled;
      live = !live;
      mem_cap;
      elem_bytes = (Gpusim.Machine.config m).Gpusim.Config.elem_bytes;
      buf_len = (fun b -> Gpu_runtime.Vbuf.len (find b));
    }
  in
  (* A launch's compiled kernel and cache key.  The key extends the
     launch parameters with the autotuner's scoring-input signature (""
     when autotuning is off) and the reduction mode, so a plan is never
     replayed under another regime. *)
  let lookup kernel grid block args =
    let ck =
      match Hashtbl.find_opt compiled_tbl kernel.Kir.name with
      | Some ck -> ck
      | None -> invalid_arg ("Multi_gpu: unlinked kernel " ^ kernel.Kir.name)
    in
    ( ck,
      {
        Launch_cache.kernel = kernel.Kir.name;
        grid;
        block;
        args;
        mem_cap;
        tune =
          (if not tune_enabled then ""
           else
             Autotune.signature ~cfg:(Gpusim.Machine.config m) ~live:!live
               ~iters:(iters_of kernel));
        reduce =
          String.concat ","
            (List.map
               (fun (arr, op) -> Kir.atomic_name op ^ ":" ^ arr)
               (Plan.reducible ck));
      } )
  in
  let build_plan ck key kernel grid block args =
    let env = env () in
    let choice =
      if not tune_enabled then None
      else
        Some
          (span ("autotune:" ^ kernel.Kir.name) (fun () ->
               Autotune.choose ~cfg:(Gpusim.Machine.config m) ~live:!live
                 ~km:ck.ck_model ~enums:ck.ck_enums
                 ~partitioned:ck.ck_partitioned ~kernel ~grid ~block ~args
                 ~aliases:swap_aliases ~iters:(iters_of kernel)
                 ~buf_len:env.Plan.buf_len ()))
    in
    Plan.launch ?choice
      ~min_chunks:(Option.value ~default:1 (Hashtbl.find_opt forced key))
      env ck kernel ~grid ~block ~args
  in
  let plan_for kernel grid block args =
    let ck, key = lookup kernel grid block args in
    let build () = build_plan ck key kernel grid block args in
    ( ck,
      if not cache then build ()
      else
        let plan, freshness = Launch_cache.find_or_build !plan_cache key ~build in
        bump (match freshness with `Hit -> plan_hits | `Miss -> plan_misses);
        plan )
  in
  (* A live Out_of_memory: the footprint estimate was too optimistic
     (it can only be exact for the enumerated ranges; live state such
     as checkpoint gathers is not part of the plan).  Rebuild the launch
     with strictly finer chunks; [Plan.launch] raises the one-line
     infeasibility diagnostic when even single-block chunks cannot fit,
     which bounds the retries. *)
  let refine_chunks kernel grid block args =
    let ck, key = lookup kernel grid block args in
    let cur = Option.value ~default:1 (Hashtbl.find_opt forced key) in
    Hashtbl.replace forced key (max 2 (cur * 2));
    bump oom_refinements;
    let plan = build_plan ck key kernel grid block args in
    if cache then Launch_cache.replace !plan_cache key plan
  in
  (* --- The step interpreter ------------------------------------------ *)
  let data c dev a =
    Gpusim.Buffer.data_exn
      (Gpu_runtime.Vbuf.instance (find (List.assoc a c.c_args)) dev)
  in
  let launch c ~index (pp : Launch_cache.partition_plan) =
    let dev = pp.pp_part.Partition.device in
    (* Reducible arrays never touch device buffers: every access lands
       in the partition-local accumulator, and the touched flags let
       the merge skip identity elements (preserving the base bits,
       -0.0 included). *)
    let redirect a = Option.bind c.c_accs (fun accs -> List.assoc_opt a accs.(index)) in
    charge ~tracker_ops:0 ~ranges:0 ~dispatches:1;
    Gpusim.Machine.launch m ~device:dev ~blocks:pp.pp_n_blocks
      ~ops_per_block:pp.pp_ops_per_block ~run:(fun () ->
        let access a =
          match redirect a with
          | Some (acc, touched) ->
            { Kcompile.loads = acc; stores = acc; touched = Some touched }
          | None ->
            let d = data c dev a in
            { Kcompile.loads = d; stores = d; touched = None }
        in
        (* Reducible accumulation is a read-modify-write through the
           shared accumulator, not domain-atomic: only a Safe kernel's
           blocks are split over domains. *)
        let parallel =
          match c.c_ck.ck_gate with Verify.Safe -> true | _ -> false
        in
        Kcompile.launch launcher ~parallel c.c_ck.ck_partitioned
          ~grid:pp.pp_launch_grid ~block:c.c_block ~args:pp.pp_scalar_args
          ~access)
  in
  (* Every range list syncs or records through [tracked], with its
     sync memo slot ([Vbuf] decides hits, DESIGN.md §4); a halo fetch
     has no slot. *)
  let sync c ~batch ~stamp ?memo vb ~dev ~raw ranges =
    transfers :=
      !transfers
      + tracked ~ranges:raw vb (fun () ->
          Gpu_runtime.Vbuf.sync_for_read ~cfg ~batch ~pool:c.c_pool ~stamp
            ?memo ~stats:memo_stats vb ~dev ~ranges)
  in
  let sync_reads c ~batch ~stamp (pp : Launch_cache.partition_plan) =
    let dev = pp.pp_part.Partition.device in
    List.iter
      (fun (rg : Launch_cache.ranges) ->
         sync c ~batch ~stamp ~memo:rg.rg_memo (bound c.c_bufs rg.rg_buf) ~dev
           ~raw:rg.rg_raw rg.rg_ranges)
      pp.pp_reads
  in
  let update_writes c ~stamp (pp : Launch_cache.partition_plan) =
    let dev = pp.pp_part.Partition.device in
    List.iter
      (fun (rg : Launch_cache.ranges) ->
         let vb = bound c.c_bufs rg.rg_buf in
         tracked ~ranges:rg.rg_raw vb (fun () ->
             Gpu_runtime.Vbuf.update_for_write ~cfg ~pool:c.c_pool ~stamp
               ~memo:rg.rg_memo ~stats:memo_stats vb ~dev ~ranges:rg.rg_ranges))
      pp.pp_writes
  in
  (* Instrumented write-set collection (paper §11 fallback): the shadow
     kernel runs once per partition recording the exact elements
     written; a dynamic check rejects cross-partition write-after-write
     hazards, then the trackers are updated.  The collected sets are
     data-dependent, so they are never cached. *)
  let shadow c arrays parts =
    if not functional then
      invalid_arg "Multi_gpu: instrumented writes require a functional machine";
    let shadow = Option.get c.c_ck.ck_shadow in
    let per_array = List.map (fun a -> (a, ref [])) arrays in
    List.iter
      (fun (pp : Launch_cache.partition_plan) ->
         let dev = pp.pp_part.Partition.device in
         let collected = ref [] in
         charge ~tracker_ops:0 ~ranges:0 ~dispatches:1;
         Gpusim.Machine.launch m ~device:dev ~blocks:pp.pp_n_blocks
           ~ops_per_block:pp.pp_shadow_cost ~run:(fun () ->
             (* Shadows instrument unanalyzable writes, which have no
                race-freedom proof: their blocks run sequentially. *)
             collected :=
               Instrument.collect_writes ~arrays ~data:(data c dev)
                 (fun access ->
                    Kcompile.launch launcher shadow ~grid:pp.pp_launch_grid
                      ~block:c.c_block ~args:pp.pp_scalar_args ~access));
         List.iter
           (fun (arr, ranges) ->
              let slot = List.assoc arr per_array in
              slot := (dev, ranges) :: !slot;
              charge ~tracker_ops:0 ~ranges:(List.length ranges) ~dispatches:0)
           !collected)
      parts;
    List.iter
      (fun (arr, slot) ->
         Instrument.check_disjoint ~arr !slot;
         let vb = find (List.assoc arr c.c_args) in
         List.iter
           (fun (dev, ranges) ->
              tracked vb (fun () ->
                  Gpu_runtime.Vbuf.update_for_write ~cfg vb ~dev ~ranges))
           !slot)
      per_array
  in
  (* The pre-launch content of the running reducible launch's arrays.
     It survives a failed attempt, so a retried statement merges into
     the same base instead of re-gathering elements the failed attempt
     already merged; it is dropped when the launch completes and when
     execution jumps to a checkpoint. *)
  let bases = ref None in
  let rec step c (s : Plan.step) =
    match s with
    | Plan.Sync_reads { batch; parts } ->
      span "sync_reads" (fun () ->
          List.iter (fun pp -> sync_reads c ~batch ~stamp:(tick ()) pp) parts)
    | Plan.Barrier -> span "barrier" (fun () -> Gpusim.Machine.synchronize m)
    | Plan.Launch parts ->
      span "launch" (fun () -> List.iteri (fun index -> launch c ~index) parts)
    | Plan.Update_writes { stamp = Plan.Each; parts } ->
      span "tracker_update" (fun () ->
          List.iter (fun pp -> update_writes c ~stamp:(tick ()) pp) parts)
    | Plan.Update_writes { stamp = Plan.Shared; parts } ->
      span "tracker_update" (fun () ->
          let stamp = tick () in
          List.iter (update_writes c ~stamp) parts)
    | Plan.Chunk { batch; chunks } ->
      (* Eager per-chunk tracker updates are safe by [Plan.launch]'s
         read-after-write guard; one stamp per chunk keeps a chunk from
         evicting its own segments while faulting others in. *)
      bump chunked_launches;
      span "chunked_launch" (fun () ->
          Gpusim.Machine.synchronize m;
          List.iteri
            (fun index ->
               List.iter (fun (cp : Launch_cache.partition_plan) ->
                   bump chunks_run;
                   let stamp = tick () in
                   sync_reads c ~batch ~stamp cp;
                   (* Reserve the write set before computing so the
                      capacity is honest while the kernel runs. *)
                   List.iter
                     (fun { Launch_cache.rg_buf; rg_ranges; _ } ->
                        Gpu_runtime.Vbuf.ensure_resident ~cfg ~pool:c.c_pool
                          ~stamp (bound c.c_bufs rg_buf) ~dev:cp.pp_part.Partition.device
                          ~ranges:rg_ranges)
                     cp.pp_writes;
                   launch c ~index cp;
                   update_writes c ~stamp cp))
            chunks)
    | Plan.Gather_bases red ->
      if Option.is_none !bases then begin
        Gpusim.Machine.synchronize m;
        bases :=
          Some (List.map (fun (arr, _) -> gather (find (List.assoc arr c.c_args))) red)
      end
    | Plan.Merge red ->
      (* Untouched elements keep the base's exact bits; the merge order
         is fixed however devices skew, so every run of one (data,
         partition shape) point produces the same bits. *)
      span "reduce_merge" (fun () ->
          Gpusim.Machine.synchronize m;
          bump gate_merges;
          List.iter2
            (fun (arr, op) base ->
               let merged = Option.map Array.copy base in
               (match (merged, c.c_accs) with
                | Some merged, Some accs ->
                  let combine = reduce_combine op in
                  Array.iter
                    (fun per_pp ->
                       let acc, touched = List.assoc arr per_pp in
                       Array.iteri
                         (fun off t ->
                            if t then begin
                              merged.(off) <- combine merged.(off) acc.(off);
                              bump gate_merged_elems
                            end)
                         touched)
                    accs
                | _ -> ());
               h2d (find (List.assoc arr c.c_args)) merged)
            red (Option.get !bases);
          Gpusim.Machine.synchronize m)
    | Plan.Shadow { arrays; parts } -> span "shadow" (fun () -> shadow c arrays parts)
    | Plan.Halo_exchange { buf; depth; fetch } ->
      bump halo_blocks;
      Obs.Metrics.add halo_steps (float_of_int depth);
      span "halo_exchange" (fun () ->
          let stamp = tick () and vb = find buf in
          List.iter
            (fun (dev, range) ->
               sync c ~batch:true ~stamp vb ~dev ~raw:1 [ range ])
            fetch)
    | Plan.Swap (a, b) ->
      swap a b;
      c.c_bufs <- bind c.c_args
    | Plan.Measure (predicted, steps) ->
      (* Calibration: the makespan the steps actually added (latest
         engine time, so async kernel completions are included). *)
      let t0 = Gpusim.Machine.elapsed m in
      List.iter (step c) steps;
      record_tune ~predicted ~actual:(Gpusim.Machine.elapsed m -. t0)
  in
  let context ck ~block (plan : Launch_cache.plan) =
    let c_args = plan.pl_arg_arrays in
    {
      c_ck = ck;
      c_block = block;
      c_args;
      c_bufs = bind c_args;
      c_pool = !pool;
      c_accs =
        (match Plan.reducible ck with
         | _ :: _ as red when functional ->
           let acc (arr, op) =
             let len = Gpu_runtime.Vbuf.len (find (List.assoc arr c_args)) in
             (arr, (Array.make len (reduce_identity op), Array.make len false))
           in
           Some
             (Array.of_list
                (List.map (fun _ -> List.map acc red) plan.pl_partitions))
         | _ -> None);
    }
  in
  let exec_launch kernel grid block args =
    let ck, plan = plan_for kernel grid block args in
    List.iter (step (context ck ~block plan)) (Plan.of_launch (env ()) ck plan);
    bases := None
  in
  let rec exec (s : Host_ir.stmt) =
    match s with
    | Host_ir.Malloc (name, len) ->
      Hashtbl.replace vbufs name (Gpu_runtime.Vbuf.create m ~name ~len);
      refresh_pool ()
    | Host_ir.Memcpy_h2d { dst; src } -> h2d (find dst) src.Host_ir.data
    | Host_ir.Memcpy_d2h { dst; src } ->
      let vb = find src in
      Gpusim.Machine.synchronize m;
      ignore (d2h vb dst.Host_ir.data);
      Gpusim.Machine.synchronize m
    | Host_ir.Launch { kernel; grid; block; args } ->
      exec_launch kernel grid block args
    | Host_ir.Repeat (n, body) -> (
        (* Only a halo-eligible double-buffered stencil loop survives the
           flattening whole.  It runs halo-tiled when its winner has a
           halo schedule, else as the flattened engine would. *)
        let halo =
          match body with
          | [ Host_ir.Launch { kernel; grid; block; args }; Host_ir.Swap (sx, sy) ]
            ->
            let ck, plan = plan_for kernel grid block args in
            Option.map
              (fun steps -> (context ck ~block plan, steps))
              (Plan.halo (env ()) ck kernel plan ~grid ~block ~args ~iters:n
                 ~swap:(sx, sy))
          | _ -> None
        in
        match halo with
        | Some (c, steps) -> List.iter (step c) steps
        | None ->
          for _ = 1 to n do
            List.iter exec body
          done)
    | Host_ir.Swap (a, b) -> swap a b
    | Host_ir.Free name ->
      Gpu_runtime.Vbuf.free (find name);
      Hashtbl.remove vbufs name;
      refresh_pool ()
    | Host_ir.Sync -> Gpusim.Machine.synchronize m
  in
  (* Flatten the statement stream (Repeat bodies expanded) so execution
     has a program counter: checkpoints record an index to replay from.
     Re-executing any statement is idempotent — h2d re-scatters the
     same source, launches recompute the same values from the same
     synchronized inputs, tracker updates converge — which is what
     makes both retry and replay safe. *)
  let stmts =
    let acc = ref [] in
    let rec go (s : Host_ir.stmt) =
      match s with
      | Host_ir.Repeat
          (n, [ Host_ir.Launch _; Host_ir.Swap _ ])
        when halo_repeats_ok && n > 1 ->
        (* A double-buffered stencil loop stays whole for halo tiling
           (only when nothing indexes into the flattened stream). *)
        acc := s :: !acc
      | Host_ir.Repeat (n, body) ->
        for _ = 1 to n do List.iter go body done
      | s -> acc := s :: !acc
    in
    List.iter go exe.prog.Host_ir.body;
    Array.of_list (List.rev !acc)
  in
  let n_stmts = Array.length stmts in
  (match resume with
   | Some h when h.h_index < 0 || h.h_index > n_stmts ->
     invalid_arg "Multi_gpu.run_bounded: resume index out of range"
   | _ -> ());
  (* The program counter, the handoff still to install (the resume, and
     again whenever a replay rewinds to it) and the preemption's. *)
  let i = ref 0 and pending = ref resume and preempted = ref None in
  let launches_since_ckpt = ref 0 in
  (* Every live buffer in name order, the order checkpoints and
     preemption gather in: the gathers charge simulated transfer time
     and consume the fault stream. *)
  let live_buffers () =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun name vb acc -> (name, vb) :: acc) vbufs [])
  in
  let drop_buffers () =
    Hashtbl.iter (fun _ vb -> Gpu_runtime.Vbuf.free vb) vbufs;
    Hashtbl.reset vbufs;
    refresh_pool ()
  in
  (* Rebuild the buffer population from a handoff: free whatever a
     failed attempt allocated, allocate every buffer first (so the
     eviction pool sees the whole set), then re-scatter each one's
     content, paying the upload like any h2d.  Statement [h_index]
     then continues as if nothing happened. *)
  let install (h : handoff) =
    span "resume" @@ fun () ->
    drop_buffers ();
    List.iter
      (fun (name, len, _) ->
         Hashtbl.replace vbufs name (Gpu_runtime.Vbuf.create m ~name ~len))
      h.h_buffers;
    refresh_pool ();
    List.iter (fun (name, _, data) -> h2d (find name) data) h.h_buffers;
    i := h.h_index
  in
  (* An engine checkpoint: the statement index to resume from plus a
     snapshot of every buffer binding.  [None] means "replay from the
     beginning with no buffers" — statement 0 re-mallocs everything. *)
  let ckpt : (int * (string * Gpu_runtime.Vbuf.t * Gpu_runtime.Vbuf.snapshot) list) option ref =
    ref None
  in
  let take_checkpoint index =
    span "checkpoint" @@ fun () ->
    ckpt :=
      Some
        ( index,
          List.map
            (fun (name, vb) -> (name, vb, Gpu_runtime.Vbuf.checkpoint ~cfg vb))
            (live_buffers ()) )
  in
  let restore_checkpoint () =
    span "replay" @@ fun () ->
    match !ckpt with
    | Some (index, bufs) ->
      let kept = List.map (fun (_, vb, _) -> vb) bufs in
      Hashtbl.iter
        (fun _ vb ->
           if not (List.memq vb kept) then Gpu_runtime.Vbuf.free vb)
        vbufs;
      Hashtbl.reset vbufs;
      List.iter
        (fun (name, vb, snap) ->
           Gpu_runtime.Vbuf.restore vb snap;
           Hashtbl.replace vbufs name vb)
        bufs;
      refresh_pool ();
      index
    | None ->
      (* A resumed run's earliest recovery point is its handoff: the
         buffers it restored are this segment's "beginning", so the
         loop installs it again. *)
      drop_buffers ();
      pending := resume;
      0
  in
  (* Permanent loss: shrink the live set, drop every cached plan (they
     all name the dead device), re-home what the dead device owned onto
     replicas that are still fresh.  Only if some range has no fresh
     copy anywhere do we pay a replay from the last checkpoint. *)
  let handle_loss dead =
    span "recovery" @@ fun () ->
    bump devices_lost;
    live := List.filter (fun d -> d <> dead) !live;
    if !live = [] then raise All_devices_lost;
    Gpusim.Machine.set_active_devices m (List.length !live);
    plan_cache := Launch_cache.create ();
    Kcompile.clear_cache launcher;
    let data_lost =
      Hashtbl.fold
        (fun _ vb lost -> Gpu_runtime.Vbuf.recover vb ~dev:dead ~live:!live <> [] || lost)
        vbufs false
    in
    if data_lost then begin
      bump replays;
      i := restore_checkpoint ();
      bases := None;
      launches_since_ckpt := 0;
      `Replay
    end
    else `Retry
  in
  (* Preemption: gather every live buffer to the host (a checkpoint in
     handoff form) and stop.  The gather runs on the simulated machine,
     so it pays transfer time and can fault like any statement. *)
  let preempt () =
    span "preempt" @@ fun () ->
    Gpusim.Machine.synchronize m;
    let captured =
      List.map
        (fun (name, vb) -> (name, Gpu_runtime.Vbuf.len vb, gather vb))
        (live_buffers ())
    in
    Gpusim.Machine.synchronize m;
    preempted := Some { h_index = !i; h_buffers = captured }
  in
  let run_stmt stmt =
    exec stmt;
    if healing then begin
      (match stmt with
       | Host_ir.Launch _ -> incr launches_since_ckpt
       | _ -> ());
      if !launches_since_ckpt >= checkpoint_every then begin
        take_checkpoint (!i + 1);
        launches_since_ckpt := 0
      end
    end;
    incr i
  in
  (* The one fault handler: a transient fault repeats the action after
     a backoff, a device loss repeats it unless a replay moved the
     program counter, and a live Out_of_memory refines a capped launch. *)
  let rec attempt action ~tries ~spent =
    try
      match action with
      | `Install h -> install h
      | `Preempt -> preempt ()
      | `Run stmt -> run_stmt stmt
    with
    | Gpusim.Machine.Transient_fault _ when healing ->
      bump retries;
      let delay =
        Float.min backoff_cap (backoff_base *. (2.0 ** float_of_int tries))
      in
      if spent +. delay > backoff_budget then
        failwith "Multi_gpu: transient-fault backoff budget exhausted";
      Gpusim.Machine.host_work m ~seconds:delay ~category:"backoff";
      attempt action ~tries:(tries + 1) ~spent:(spent +. delay)
    | Gpusim.Machine.Device_lost dead when healing -> (
        match handle_loss dead with
        | `Retry -> attempt action ~tries:0 ~spent
        | `Replay -> ())
    | Gpusim.Machine.Out_of_memory { device; requested; free } -> (
        match action with
        | `Run (Host_ir.Launch { kernel; grid; block; args }) when capped ->
          refine_chunks kernel grid block args;
          attempt action ~tries ~spent
        | _ ->
          failwith
            (Printf.sprintf
               "Multi_gpu: out of device memory: %d bytes requested \
                on device %d with only %d bytes free (capacity %d)"
               requested device free mem_cap))
  in
  (* The recovery loop.  Each round picks one action, once: install a
     pending handoff, preempt once [abort_at] has passed, or run the next
     statement, so a statement's retry never turns into a preemption. *)
  while
    Option.is_some !pending || (Option.is_none !preempted && !i < n_stmts)
  do
    let action =
      match !pending with
      | Some h ->
        pending := None;
        `Install h
      | None -> (
          match abort_at with
          | Some t when Gpusim.Machine.elapsed m >= t -> `Preempt
          | _ -> `Run stmts.(!i))
    in
    attempt action ~tries:0 ~spent:0.0
  done;
  if Option.is_none !preempted then Gpusim.Machine.synchronize m;
  if healing then
    Obs.Metrics.add observed
      (float_of_int
         ((Gpusim.Machine.stats m).Gpusim.Machine.n_faults - faults_at_entry));
  List.iter (fun (c, n) -> Obs.Metrics.add c (float_of_int (n ()))) hot_counts;
  Obs.Metrics.add predicted_us (!tune_pred *. 1e6);
  Obs.Metrics.add actual_us (!tune_act *. 1e6);
  let time = Gpusim.Machine.host_time m in
  Obs.Metrics.set metrics "engine.time_seconds" time;
  let n c = int_of_float (Obs.Metrics.total c) in
  let result =
    {
      machine = m;
      time;
      faults =
        {
          fr_faults = n observed;
          fr_retries = n retries;
          fr_replays = n replays;
          fr_devices_lost = n devices_lost;
        };
      metrics;
    }
  in
  match !preempted with
  | Some h -> Preempted (result, h)
  | None -> Done result

let run ?cfg ?tiling ?cache ?checkpoint_every ?overlap ?autotune
    ~(machine : Gpusim.Machine.t) (exe : exe) : result =
  match
    run_bounded ?cfg ?tiling ?cache ?checkpoint_every ?overlap ?autotune
      ~machine exe
  with
  | Done r -> r
  | Preempted _ -> assert false (* no abort_at: cannot preempt *)
