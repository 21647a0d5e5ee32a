(* The partitioned execution engine: runs a host program over all
   devices of the simulated machine, orchestrated exactly as the code
   the source-to-source rewriter inserts (paper §5, Fig. 4), plus the
   memcpy translations of §8.2 through {!Gpu_runtime.Vbuf}.  Each
   launch runs as a {!Plan} (DESIGN.md §21): the pure step list says
   what happens, the interpreter in [run_bounded] makes it happen and
   owns retry, replay, checkpoints and preemption. *)

module Vbuf = Gpu_runtime.Vbuf

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
        Format.fprintf fmt
          "plan cache: %d hits / %d misses; launch graphs: %d hits / %d \
           misses, %d folded, %d ops replayed@."
          (i "cache.plan_hits") (i "cache.plan_misses") (i "cache.graph_hits")
          (i "cache.graph_misses") (i "cache.graph_folded")
          (i "cache.graph_replayed_ops")
      | Executor ->
        Format.fprintf fmt
          "executor: %d compiled (%d cache hits), %d launches sequential, \
           %d parallel (max %d domains), %d interpreted, %d scalar blocks; \
           guards_folded=%d guards_scanned=%d affine_accesses=%d@."
          (i "exec.compiles") (i "exec.cache_hits") (i "exec.seq_launches")
          (i "exec.par_launches") (i "exec.max_domains") (i "exec.interpreted")
          (i "kcompile.scalar_blocks") (i "kcompile.guards_folded")
          (i "kcompile.guards_scanned") (i "kcompile.affine_accesses")
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
        Format.fprintf fmt
          "chunked_launches=%d chunks=%d oom_refinements=%d evict_passes=%d@."
          (i "engine.chunked_launches") (i "engine.chunks")
          (i "engine.oom_refinements") (i "engine.evict_passes")
      | Autotune ->
        Format.fprintf fmt
          "autotuned=%d predicted=%.6fs actual=%.6fs halo_blocks=%d \
           halo_steps=%d@."
          (i "autotune.launches")
          (v "autotune.predicted_us" *. 1e-6)
          (v "autotune.actual_us" *. 1e-6)
          (i "autotune.halo_blocks") (i "autotune.halo_steps"))
    lines

(* A preemption handoff: the index to resume from in the expanded
   statement stream of a run that indexes into it (see [stmts] below),
   plus the logical content of every live buffer, gathered host-side.
   Statements are idempotent, so resuming a fresh engine at [h_index]
   with these buffers restored reproduces the uninterrupted run
   bit-identically. *)
type handoff = {
  h_index : int;
  h_buffers : (string * int * float array option) list;
      (* (name, len, content); content is [None] on performance
         machines, where only extents matter *)
}

type bounded = Done of result | Preempted of result * handoff

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
  mutable c_bufs : (string * Vbuf.t) list;
      (* the launch's buffers by name, as bound now: read once per
         launch instead of once per range list, and again after a
         [Swap] step *)
  c_accs : (string * (float array * bool array)) list array option;
      (* per partition, each reducible array's accumulator and touched
         flags (functional machines only) *)
}

(* A [Repeat] loop's launch graph (DESIGN.md §4): the simulator calls
   of one period, captured from a live run of it, with what that run
   added to the run's counters.  [g_key] is every live binding, its
   buffer and the buffer's tracker versions at the period's start; the
   period left them as it found them. *)
type graph = {
  g_key : (string * Vbuf.t * int array) list;
  g_prog : Gpusim.Machine.graph;
  g_plan_hits : float;
  g_transfers : int;
  g_tracker_ops : int;
}

(* One [Repeat] statement's graph slot, shared by every run of it (a
   loop nested in another runs once per outer iteration).  [s_dead]: a
   period ran a step a graph cannot replay, as every later period
   would. *)
type site = { mutable s_graph : graph option; mutable s_dead : bool }

(* Iterations of a [Repeat] body after which its swaps have returned
   every binding: 1 or 2, or 0 when the body is not launches and swaps
   or its swaps take longer. *)
let period_of body =
  let swap bs (a, b) =
    List.map
      (fun (n, v) ->
         (n, if n = a then List.assoc b bs else if n = b then List.assoc a bs else v))
      bs
  in
  let swaps =
    List.filter_map (function Host_ir.Swap (a, b) -> Some (a, b) | _ -> None) body
  in
  let iteration bs = List.fold_left swap bs swaps in
  let start =
    List.map (fun n -> (n, n))
      (List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) swaps))
  in
  if not (List.for_all (function Host_ir.Launch _ | Host_ir.Swap _ -> true | _ -> false) body)
  then 0
  else if iteration start = start then 1
  else if iteration (iteration start) = start then 2
  else 0

let replayable_step = function
  | Plan.Sync_reads _ | Plan.Barrier | Plan.Launch _ | Plan.Update_writes _
  | Plan.Swap _ ->
    true
  | Plan.Chunk _ | Plan.Gather_bases _ | Plan.Merge _ | Plan.Shadow _
  | Plan.Halo_exchange _ | Plan.Measure _ ->
    false

let run_bounded ?(cfg = Gpu_runtime.Rconfig.alpha) ?(tiling = `One_d)
    ?(cache = true) ?(checkpoint_every = 8) ?(overlap = false)
    ?(autotune = false) ?abort_at ?resume ?kernels ~(machine : Gpusim.Machine.t)
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
  let launcher = Kcompile.executor ?kernels metrics in
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
  (* Every buffer of the run lives in one space (DESIGN.md §4). *)
  let space = Vbuf.space ~cfg m in
  let vbufs : (string, Vbuf.t) Hashtbl.t = Hashtbl.create 16 in
  (* Memory-pressure adaptation (DESIGN.md §15): a finite capacity makes
     the whole buffer population (the space's pool) the eviction pool
     and chunks launches whose footprint does not fit. *)
  let mem_cap = Gpusim.Machine.mem_capacity m in
  let capped = mem_cap < max_int && cfg.Gpu_runtime.Rconfig.patterns in
  (* The one rule for [Repeat]: a loop runs whole (see [exec]) unless
     something indexes into the statement stream.  Checkpoints, handoffs
     and the capped per-launch Out_of_memory retry name a statement by
     index, so a run with healing, preemption, a resume or a memory cap
     expands every loop (see [stmts]). *)
  let whole_loops =
    (not healing) && abort_at = None && resume = None && mem_cap = max_int
  in
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
  (* Per-launch compiled-kernel lookup must not be linear in the kernel
     count.  Each kernel keeps its launch key's reduction-mode
     signature, which depends on the compiled kernel alone. *)
  let compiled_tbl : (string, compiled_kernel * string) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (name, ck) ->
       if not (Hashtbl.mem compiled_tbl name) then
         Hashtbl.add compiled_tbl name
           ( ck,
             String.concat ","
               (List.map
                  (fun (arr, op) -> Kir.atomic_name op ^ ":" ^ arr)
                  (Plan.reducible ck)) ))
    exe.compiled;
  let gate =
    List.map
      (fun v -> (v, counter ("engine.gate." ^ v)))
      [ "safe"; "reducible"; "racy"; "unknown" ]
  in
  Hashtbl.iter
    (fun _ (ck, _) -> bump (List.assoc (Verify.verdict_name ck.ck_gate) gate))
    compiled_tbl;
  let gate_merges = counter "engine.gate.merges"
  and gate_merged_elems = counter "engine.gate.merged_elems" in
  let plan_hits = counter "cache.plan_hits"
  and plan_misses = counter "cache.plan_misses" in
  (* Launch graphs (DESIGN.md §4) replay only what a graph holds: the
     calls of a performance machine without causal recording, in a run
     that keeps its loops whole. *)
  let graphs = whole_loops && cache && (not functional) && not causal in
  let graph_hits = counter "cache.graph_hits"
  and graph_misses = counter "cache.graph_misses"
  and graph_folded = counter "cache.graph_folded"
  and graph_replayed_ops = counter "cache.graph_replayed_ops" in
  (* Cleared by a live launch whose steps a graph cannot replay. *)
  let period_plain = ref true in
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
  (* Charge launch dispatches and shadow-collected ranges as "patterns"
     overhead (§9.2); buffer operations charge their own work. *)
  let charge seconds =
    if seconds > 0.0 then Gpusim.Machine.host_work m ~seconds ~category:"pattern"
  in
  let dispatch () = charge host_costs.Gpusim.Config.dispatch_seconds in
  (* The whole-buffer gather to a fresh host array (no data on
     performance machines). *)
  let gather vb =
    let dst = if functional then Some (Array.make (Vbuf.len vb) 0.0) else None in
    Vbuf.d2h vb ~dst;
    dst
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
      buf_len = (fun b -> Vbuf.len (find b));
    }
  in
  (* A launch's compiled kernel and cache key.  The key extends the
     launch parameters with the autotuner's scoring-input signature (""
     when autotuning is off) and the reduction mode, so a plan is never
     replayed under another regime. *)
  let lookup kernel grid block args =
    let ck, reduce =
      match Hashtbl.find_opt compiled_tbl kernel.Kir.name with
      | Some entry -> entry
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
        reduce;
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
      (Vbuf.instance (find (List.assoc a c.c_args)) dev)
  in
  let launch c ~index (pp : Launch_cache.partition_plan) =
    let dev = pp.pp_part.Partition.device in
    (* Reducible arrays never touch device buffers: every access lands
       in the partition-local accumulator, and the touched flags let
       the merge skip identity elements (preserving the base bits,
       -0.0 included). *)
    let redirect a = Option.bind c.c_accs (fun accs -> List.assoc_opt a accs.(index)) in
    dispatch ();
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
  (* [Vbuf] charges each range list's work (DESIGN.md §4). *)
  let sync_reads c ~batch ~stamp (pp : Launch_cache.partition_plan) =
    let dev = pp.pp_part.Partition.device in
    List.iter
      (fun (rg : Launch_cache.ranges) ->
         ignore
           (Vbuf.sync_for_read (bound c.c_bufs rg.rg_buf) ~dev ~batch ~stamp
              ~raw:rg.rg_raw ~ranges:rg.rg_ranges))
      pp.pp_reads
  in
  let update_writes c ~stamp (pp : Launch_cache.partition_plan) =
    let dev = pp.pp_part.Partition.device in
    List.iter
      (fun (rg : Launch_cache.ranges) ->
         Vbuf.update_for_write (bound c.c_bufs rg.rg_buf) ~dev ~stamp
           ~raw:rg.rg_raw ~ranges:rg.rg_ranges)
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
         dispatch ();
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
              charge
                (float_of_int (List.length ranges)
                 *. host_costs.Gpusim.Config.range_seconds))
           !collected)
      parts;
    List.iter
      (fun (arr, slot) ->
         Instrument.check_disjoint ~arr !slot;
         let vb = find (List.assoc arr c.c_args) in
         List.iter
           (fun (dev, ranges) ->
              Vbuf.update_for_write vb ~dev ~stamp:(tick ()) ~raw:0 ~ranges)
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
                        Vbuf.ensure_resident ~stamp (bound c.c_bufs rg_buf)
                          ~dev:cp.pp_part.Partition.device ~ranges:rg_ranges)
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
               Vbuf.h2d (find (List.assoc arr c.c_args)) ~src:merged)
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
               ignore
                 (Vbuf.sync_for_read vb ~dev ~batch:true ~stamp ~raw:1
                    ~ranges:[ range ]))
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
      c_accs =
        (match Plan.reducible ck with
         | _ :: _ as red when functional ->
           let acc (arr, op) =
             let len = Vbuf.len (find (List.assoc arr c_args)) in
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
    let steps = Plan.of_launch (env ()) ck plan in
    if graphs && not (List.for_all replayable_step steps) then
      period_plain := false;
    List.iter (step (context ck ~block plan)) steps;
    bases := None
  in
  (* Every live buffer in name order, the order checkpoints, preemption
     and graph keys read them in: the gathers charge simulated transfer
     time and consume the fault stream. *)
  let live_buffers () =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun name vb acc -> (name, vb) :: acc) vbufs [])
  in
  let graph_key () =
    List.map (fun (name, vb) -> (name, vb, Vbuf.versions vb)) (live_buffers ())
  in
  let same_key =
    List.equal (fun (a, va, ka) (b, vb, kb) ->
        String.equal a b && va == vb && ka = kb)
  in
  let replayed_transfers = ref 0 and replayed_ops = ref 0 in
  let sites = ref [] in
  (* A graph-eligible loop's [periods] full periods of [k] iterations
     each: replay all of them when the key matches the site's graph,
     else run one live under a capture and go on with the rest.  The
     capture is kept when its calls all replay, its launches all hit the
     plan cache and it left the key as it found it.  A dead site runs
     what is left live. *)
  let rec run_periods site ~k ~iterate periods =
    if periods = 0 then ()
    else if site.s_dead then iterate (k * periods)
    else
      let key = graph_key () in
      match site.s_graph with
      | Some g when same_key g.g_key key ->
        let folded =
          span "graph" (fun () -> Gpusim.Machine.replay m g.g_prog ~periods)
        in
        Obs.Metrics.add graph_hits (float_of_int periods);
        Obs.Metrics.add graph_folded (float_of_int folded);
        Obs.Metrics.add graph_replayed_ops
          (float_of_int ((periods - folded) * Gpusim.Machine.graph_ops g.g_prog));
        Obs.Metrics.add plan_hits (g.g_plan_hits *. float_of_int periods);
        replayed_transfers := !replayed_transfers + (periods * g.g_transfers);
        replayed_ops := !replayed_ops + (periods * g.g_tracker_ops)
      | _ ->
        bump graph_misses;
        let hits = Obs.Metrics.total plan_hits
        and misses = Obs.Metrics.total plan_misses
        and transfers = Vbuf.transfers space
        and ops = Vbuf.tracker_ops space in
        period_plain := true;
        let prog = Gpusim.Machine.capture m (fun () -> iterate k) in
        if not !period_plain then site.s_dead <- true;
        (match prog with
         | Some prog
           when !period_plain
                && Obs.Metrics.total plan_misses = misses
                && same_key key (graph_key ()) ->
           site.s_graph <-
             Some
               {
                 g_key = key;
                 g_prog = prog;
                 g_plan_hits = Obs.Metrics.total plan_hits -. hits;
                 g_transfers = Vbuf.transfers space - transfers;
                 g_tracker_ops = Vbuf.tracker_ops space - ops;
               }
         | _ -> ());
        run_periods site ~k ~iterate (periods - 1)
  in
  let rec exec (s : Host_ir.stmt) =
    match s with
    | Host_ir.Malloc (name, len) ->
      Hashtbl.replace vbufs name (Vbuf.create space ~name ~len)
    | Host_ir.Memcpy_h2d { dst; src } -> Vbuf.h2d (find dst) ~src:src.data
    | Host_ir.Memcpy_d2h { dst; src } ->
      let vb = find src in
      Gpusim.Machine.synchronize m;
      Vbuf.d2h vb ~dst:dst.Host_ir.data;
      Gpusim.Machine.synchronize m
    | Host_ir.Launch { kernel; grid; block; args } ->
      exec_launch kernel grid block args
    | Host_ir.Repeat (n, body) -> (
        (* Only a run that keeps its loops whole gets here.  An
           autotuned double-buffered stencil loop runs halo-tiled when
           its winner has a halo schedule; a graph-eligible loop runs its
           full periods through its site, then its trailing iterations
           live; any other loop runs plain. *)
        let iterate n =
          for _ = 1 to n do
            List.iter exec body
          done
        in
        match body with
        | [ Host_ir.Launch { kernel; grid; block; args }; Host_ir.Swap (sx, sy) ]
          when tune_enabled && n > 1 -> (
            let ck, plan = plan_for kernel grid block args in
            match
              Plan.halo (env ()) ck kernel plan ~grid ~block ~args ~iters:n
                ~swap:(sx, sy)
            with
            | Some steps -> List.iter (step (context ck ~block plan)) steps
            | None -> iterate n)
        | _ ->
          let k = if graphs then period_of body else 0 in
          if k > 0 && n / k >= 2 then begin
            let site =
              match List.assq_opt s !sites with
              | Some site -> site
              | None ->
                let site = { s_graph = None; s_dead = false } in
                sites := (s, site) :: !sites;
                site
            in
            run_periods site ~k ~iterate (n / k);
            iterate (n mod k)
          end
          else iterate n)
    | Host_ir.Swap (a, b) -> swap a b
    | Host_ir.Free name ->
      Vbuf.free (find name);
      Hashtbl.remove vbufs name
    | Host_ir.Sync -> Gpusim.Machine.synchronize m
  in
  (* The statement stream.  A run that keeps its loops whole runs the
     program's top-level statements; any other expands every [Repeat]
     body, so that the program counter can name any statement:
     checkpoints record an index to replay from, handoffs one to resume
     from.  Re-executing any statement is idempotent — h2d re-scatters
     the same source, launches recompute the same values from the same
     synchronized inputs, tracker updates converge — which is what
     makes both retry and replay safe. *)
  let stmts =
    if whole_loops then Array.of_list exe.prog.Host_ir.body
    else
      let acc = ref [] in
      let rec go = function
        | Host_ir.Repeat (n, body) ->
          for _ = 1 to n do
            List.iter go body
          done
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
  let drop_buffers () =
    Hashtbl.iter (fun _ vb -> Vbuf.free vb) vbufs;
    Hashtbl.reset vbufs
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
         Hashtbl.replace vbufs name (Vbuf.create space ~name ~len))
      h.h_buffers;
    List.iter (fun (name, _, src) -> Vbuf.h2d (find name) ~src) h.h_buffers;
    i := h.h_index
  in
  (* An engine checkpoint: the statement index to resume from plus a
     snapshot of every buffer binding.  [None] means "replay from the
     beginning with no buffers" — statement 0 re-mallocs everything. *)
  let ckpt : (int * (string * Vbuf.t * Vbuf.snapshot) list) option ref =
    ref None
  in
  let take_checkpoint index =
    span "checkpoint" @@ fun () ->
    ckpt :=
      Some
        ( index,
          List.map
            (fun (name, vb) -> (name, vb, Vbuf.checkpoint vb))
            (live_buffers ()) )
  in
  let restore_checkpoint () =
    span "replay" @@ fun () ->
    match !ckpt with
    | Some (index, bufs) ->
      (* Restoring a buffer brings it back into the pool. *)
      drop_buffers ();
      List.iter
        (fun (name, vb, snap) ->
           Vbuf.restore vb snap;
           Hashtbl.replace vbufs name vb)
        bufs;
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
        (fun _ vb lost -> Vbuf.recover vb ~dev:dead ~live:!live <> [] || lost)
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
        (fun (name, vb) -> (name, Vbuf.len vb, gather vb))
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
  (* The space counts these once per range list; they are read once. *)
  let count name by = Obs.Metrics.incr metrics name ~by in
  count "engine.transfers" (Vbuf.transfers space + !replayed_transfers);
  count "engine.tracker_ops" (Vbuf.tracker_ops space + !replayed_ops);
  (* Graphs never replay under a capacity limit, the only place a pass
     runs. *)
  count "engine.evict_passes" (Vbuf.evict_passes space);
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
