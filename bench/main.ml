(* The evaluation harness: regenerates every table and figure of the
   paper's §9 on the simulated 16-GPU K80 box, plus Bechamel
   micro-benchmarks of the runtime primitives.

     dune exec bench/main.exe             -- run everything
     dune exec bench/main.exe -- table1   -- benchmark configurations
     dune exec bench/main.exe -- fig6     -- speedup curves
     dune exec bench/main.exe -- fig7     -- execution-time breakdown
     dune exec bench/main.exe -- fig8     -- runtime-system overhead
     dune exec bench/main.exe -- overhead1-- single-GPU slowdown
     dune exec bench/main.exe -- compile  -- compile-time overhead
     dune exec bench/main.exe -- cache    -- launch-plan cache wall-clock
     dune exec bench/main.exe -- faults   -- fault-injection campaign
     dune exec bench/main.exe -- mem      -- memory-capacity campaign
     dune exec bench/main.exe -- exec     -- interpreter vs compiled executor
     dune exec bench/main.exe -- overlap  -- compute/transfer overlap campaign
     dune exec bench/main.exe -- serve    -- multi-tenant serving campaign
     dune exec bench/main.exe -- autotune -- partition autotuner campaign
     dune exec bench/main.exe -- micro    -- Bechamel micro-benchmarks

   Any experiment accepts --faults SEED,RATE[,DEV@TIME...] to inject
   faults into the partitioned-application runs (the single-GPU
   reference machines stay ideal); the self-healing counters are then
   reported alongside the launch-plan cache statistics.

   Common flags:
     --repeat N     warmup + median-of-N for the wall-clock campaigns
                    (exec, cache); simulated times are deterministic
                    and never repeated
     --domains N    size of the domain pool for parallel kernel
                    execution (default $MEKONG_DOMAINS, else the
                    machine's recommended domain count)
     --trace PATH   enable span recording and machine tracing, and
                    write a Chrome trace-event JSON of the campaign's
                    last simulated run (open in Perfetto)

   The gate campaigns (faults, mem, overlap, serve, autotune) exit 1 on
   a violation and print only simulated, deterministic numbers, so
   their stdout is the baseline: bench/<campaign>.expected pins it
   under `dune runtest` (`dune promote` accepts an intended change).
   Bad input (a flag value, $MEKONG_DOMAINS, an infeasible --mem-cap)
   exits 2 with a one-line diagnostic.

   All application measurements are simulated times from the calibrated
   machine model (see DESIGN.md §4); the micro-benchmarks and the exec
   and cache campaigns measure real wall time. *)

let gpu_counts = [ 1; 2; 4; 6; 8; 10; 12; 14; 16 ]

(* ------------------------------------------------------------------ *)
(* Shared plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let compiled :
  ( Apps.Workloads.benchmark * Apps.Workloads.size,
    Mekong.Toolchain.artifacts )
  Hashtbl.t =
  Hashtbl.create 16

let artifacts bench size =
  match Hashtbl.find_opt compiled (bench, size) with
  | Some a -> a
  | None ->
    let prog = Apps.Workloads.program bench size in
    let a =
      match Mekong.Toolchain.compile prog with
      | Ok a -> a
      | Error e -> failwith (Mekong.Toolchain.error_message e)
    in
    Hashtbl.replace compiled (bench, size) a;
    a

(* --trace PATH: spans + machine tracing on, Chrome trace of the
   campaign's last simulated run written at the end. *)
let trace_path : string option ref = ref None

(* The most recent partitioned-run machine: --trace writes its trace
   (campaigns sweep many machines; the last one is the largest
   configuration swept). *)
let last_machine : Gpusim.Machine.t option ref = ref None

(* --mem-cap BYTES: finite per-device memory on the partitioned-run
   machines only (the single-GPU reference keeps unlimited memory — a
   capped reference would raw-OOM, since [Single_gpu] allocates whole
   buffers up front with no spill path). *)
let mem_cap : int option ref = ref None

(* --topology SPEC: fabric topology of the partitioned-run machines
   ("flat", the default, or "islands:SIZE,LINK_GBS,UPLINK_GBS"). *)
let topology : Gpusim.Config.topology ref = ref Gpusim.Config.Flat

let k80 ?(capped = true) g =
  let mem_capacity = if capped then !mem_cap else None in
  let m =
    Gpusim.Machine.create ~functional:false
      (Gpusim.Config.k80_box ~n_devices:g ?mem_capacity ~topology:!topology ())
  in
  if !trace_path <> None then begin
    Gpusim.Machine.enable_trace m;
    (* Causal recording rides along with tracing so the exported trace
       carries the critical-path lane (its cost is only paid when
       --trace asks for it). *)
    Gpusim.Machine.enable_causal m
  end;
  m

(* Fault spec from --faults SEED,RATE[,DEV@TIME...]; injected into the
   partitioned-run machines only (the single-GPU reference stays the
   ideal baseline).  A null spec is ignored, so "--faults 0,0" leaves
   every experiment byte-identical to a run without the flag. *)
let fault_spec : Gpusim.Faults.spec option ref = ref None

(* The campaign's registry: every engine run and every single-GPU
   reference run merges its counters in, so each series is the sum over
   the campaign's runs (gauges keep the maximum).  Campaigns read their
   totals (and gate on them) from here. *)
let campaign = Obs.Metrics.create ()

let engine ?cfg ?tiling ?cache ?checkpoint_every ?overlap ?autotune ~machine
    exe =
  let r =
    Mekong.Multi_gpu.run ?cfg ?tiling ?cache ?checkpoint_every ?overlap
      ?autotune ~machine exe
  in
  Obs.Metrics.merge ~into:campaign r.Mekong.Multi_gpu.metrics;
  r

let reference_run ?executor ~machine prog =
  let r = Single_gpu.run ?executor ~machine prog in
  Obs.Metrics.merge ~into:campaign r.Single_gpu.exec;
  r

(* A counter of one run's registry. *)
let count (r : Mekong.Multi_gpu.result) name =
  int_of_float (Obs.Metrics.get r.Mekong.Multi_gpu.metrics name)

(* --repeat N (see the header comment). *)
let repeat = ref 1

(* Campaigns with gates record failure here; the driver exits 1 only
   after every selected campaign has run. *)
let campaign_failed = ref false

(* Simulated time of the partitioned application on [g] GPUs. *)
let multi_time ?cfg ?(autotune = false) bench size g =
  let a = artifacts bench size in
  let m = k80 g in
  (match !fault_spec with
   | Some spec when not (Gpusim.Faults.is_null spec) ->
     Gpusim.Machine.inject_faults m (Gpusim.Faults.create spec)
   | _ -> ());
  let r = engine ?cfg ~autotune ~machine:m a.Mekong.Toolchain.exe in
  last_machine := Some m;
  (r.Mekong.Multi_gpu.time, m)

(* Simulated time of the NVCC-style single-GPU reference binary. *)
let reference_time bench size =
  let prog = Apps.Workloads.program bench size in
  let m = k80 ~capped:false 1 in
  (reference_run ~machine:m prog).Single_gpu.time

let ref_cache = Hashtbl.create 16

let reference bench size =
  match Hashtbl.find_opt ref_cache (bench, size) with
  | Some t -> t
  | None ->
    let t = reference_time bench size in
    Hashtbl.replace ref_cache (bench, size) t;
    t

let all_benchmarks = Apps.Workloads.benchmarks
let all_sizes = Apps.Workloads.sizes

let line width = String.make width '-'

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let stats_of values =
  let a = Array.of_list values in
  Array.sort compare a;
  ( percentile a 0.0,
    percentile a 25.0,
    percentile a 50.0,
    percentile a 75.0,
    percentile a 100.0 )

(* --repeat support for the wall-clock measurements: one warmup run
   (when N > 1), then the median over N timed runs.  Each run times
   [f (setup ())] but not the [setup], which builds fresh input so
   repeated runs never share mutated state; the result of the last run
   is returned alongside the median. *)
let median_wall_of ~setup f =
  let n = max 1 !repeat in
  if n > 1 then ignore (f (setup ()));
  let walls = Array.make n 0.0 in
  let last = ref None in
  for i = 0 to n - 1 do
    let x = setup () in
    let t0 = Unix.gettimeofday () in
    let r = f x in
    walls.(i) <- Unix.gettimeofday () -. t0;
    last := Some r
  done;
  Array.sort compare walls;
  (percentile walls 50.0, Option.get !last)

(* [f] performs its own setup, inside the timed region. *)
let median_wall f = median_wall_of ~setup:ignore f

(* ------------------------------------------------------------------ *)
(* Table 1: benchmark configurations                                    *)
(* ------------------------------------------------------------------ *)

let run_table1 () =
  Printf.printf "Table 1: Configurations of the benchmark applications.\n";
  Printf.printf "%s\n" (line 64);
  Printf.printf "%-10s %10s %10s %10s %12s\n" "Benchmark" "Small" "Medium"
    "Large" "Iterations";
  Printf.printf "%s\n" (line 64);
  List.iter
    (fun b ->
       let sz s = Apps.Workloads.problem_size b s in
       Printf.printf "%-10s %10d %10d %10d %12s\n"
         (Apps.Workloads.benchmark_name b)
         (sz Apps.Workloads.Small) (sz Apps.Workloads.Medium)
         (sz Apps.Workloads.Large)
         (match b with
          | Apps.Workloads.Matmul_b -> "N/A"
          | _ -> string_of_int (Apps.Workloads.iterations b)))
    all_benchmarks;
  Printf.printf "%s\n\n" (line 64)

(* ------------------------------------------------------------------ *)
(* Figure 6: speedup curves                                             *)
(* ------------------------------------------------------------------ *)

let run_fig6 () =
  Printf.printf "Figure 6: Speedup of the benchmarks for up to 16 GPUs.\n";
  Printf.printf "(speedup vs the single-GPU reference binary; paper maxima:\n";
  Printf.printf " Hotspot 7.1x @ 14, N-Body 12.4x @ 16, Matmul 6.3x @ 14)\n\n";
  List.iter
    (fun b ->
       Printf.printf "%s\n" (Apps.Workloads.benchmark_name b);
       Printf.printf "%s\n" (line 46);
       Printf.printf "%5s %12s %12s %12s\n" "GPUs" "Small" "Medium" "Large";
       Printf.printf "%s\n" (line 46);
       let maxima : (Apps.Workloads.size, float * int) Hashtbl.t =
         Hashtbl.create 4
       in
       List.iter
         (fun g ->
            Printf.printf "%5d" g;
            List.iter
              (fun s ->
                 let t, _ = multi_time b s g in
                 let sp = reference b s /. t in
                 (match Hashtbl.find_opt maxima s with
                  | Some (best, _) when best >= sp -> ()
                  | _ -> Hashtbl.replace maxima s (sp, g));
                 Printf.printf " %12.2f" sp)
              all_sizes;
            Printf.printf "\n%!")
         gpu_counts;
       Printf.printf "%s\n" (line 46);
       List.iter
         (fun s ->
            match Hashtbl.find_opt maxima s with
            | Some (sp, g) ->
              Printf.printf "  max %-6s: %.2fx at %d GPUs\n"
                (Apps.Workloads.size_name s) sp g
            | None -> ())
         all_sizes;
       Printf.printf "\n%!")
    all_benchmarks;
  Printf.printf "launch-plan cache over the sweep: %.0f hits / %.0f misses\n"
    (Obs.Metrics.get campaign "cache.plan_hits")
    (Obs.Metrics.get campaign "cache.plan_misses");
  (match !fault_spec with
   | Some spec when not (Gpusim.Faults.is_null spec) ->
     Format.printf "self-healing over the sweep: %a"
       (Mekong.Multi_gpu.pp_report [ Faults ]) campaign
   | _ -> ());
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Figure 7: execution-time breakdown (alpha/beta/gamma, paper §9.2)    *)
(* ------------------------------------------------------------------ *)

let breakdown bench size g =
  let alpha, _ = multi_time ~cfg:Gpu_runtime.Rconfig.alpha bench size g in
  let beta, _ = multi_time ~cfg:Gpu_runtime.Rconfig.beta bench size g in
  let gamma, _ = multi_time ~cfg:Gpu_runtime.Rconfig.gamma bench size g in
  let t_app = gamma /. alpha in
  let t_transfers = Float.max 0.0 ((alpha -. beta) /. alpha) in
  let t_patterns = Float.max 0.0 ((beta -. gamma) /. alpha) in
  (t_app, t_transfers, t_patterns)

let run_fig7 () =
  Printf.printf
    "Figure 7: Breakdown of the execution time of transformed applications\n";
  Printf.printf
    "(Medium problems; relative time per task from the alpha/beta/gamma runs)\n\n";
  List.iter
    (fun b ->
       Printf.printf "%s\n" (Apps.Workloads.benchmark_name b);
       Printf.printf "%s\n" (line 54);
       Printf.printf "%5s %14s %14s %14s\n" "GPUs" "Application" "Transfers"
         "Patterns";
       Printf.printf "%s\n" (line 54);
       List.iter
         (fun g ->
            let app, tr, pat = breakdown b Apps.Workloads.Medium g in
            Printf.printf "%5d %14.3f %14.3f %14.3f\n%!" g app tr pat)
         [ 2; 4; 6; 8; 10; 12; 14; 16 ];
       Printf.printf "%s\n\n" (line 54))
    all_benchmarks

(* ------------------------------------------------------------------ *)
(* Figure 8: overhead of the runtime system                             *)
(* ------------------------------------------------------------------ *)

let run_fig8 () =
  Printf.printf "Figure 8: Overhead of the runtime system\n";
  Printf.printf
    "(non-transfer overhead (beta-gamma)/alpha over all benchmarks and sizes;\n";
  Printf.printf
    " paper: 25th pct 0.001%%, median 0.51%%, 75th pct 3.5%%, max 6.8%%)\n\n";
  Printf.printf "%5s %9s %9s %9s %9s %9s\n" "GPUs" "min" "p25" "median" "p75"
    "max";
  Printf.printf "%s\n" (line 58);
  let all = ref [] in
  List.iter
    (fun g ->
       let values =
         List.concat_map
           (fun b ->
              List.map
                (fun s ->
                   let _, _, pat = breakdown b s g in
                   pat *. 100.0)
                all_sizes)
           all_benchmarks
       in
       all := values @ !all;
       let mn, p25, med, p75, mx = stats_of values in
       Printf.printf "%5d %8.3f%% %8.3f%% %8.3f%% %8.3f%% %8.3f%%\n%!" g mn p25
         med p75 mx)
    gpu_counts;
  Printf.printf "%s\n" (line 58);
  let mn, p25, med, p75, mx = stats_of !all in
  Printf.printf "%5s %8.3f%% %8.3f%% %8.3f%% %8.3f%% %8.3f%%\n\n" "all" mn p25
    med p75 mx

(* ------------------------------------------------------------------ *)
(* Single-GPU slowdown of the partitioned binaries (paper §9.2 text)    *)
(* ------------------------------------------------------------------ *)

let run_overhead1 () =
  Printf.printf "Single-GPU overhead: partitioned binaries on one GPU\n";
  Printf.printf
    "(paper: median 2.1%%, 25th pct 0.13%%, 75th pct 3.1%% slow-down)\n\n";
  Printf.printf "%-10s %-8s %14s %15s %10s\n" "Benchmark" "Size"
    "reference(s)" "partitioned(s)" "slowdown";
  Printf.printf "%s\n" (line 62);
  let values = ref [] in
  List.iter
    (fun b ->
       List.iter
         (fun s ->
            let tr = reference b s in
            let tp, _ = multi_time b s 1 in
            let slow = (tp -. tr) /. tr *. 100.0 in
            values := slow :: !values;
            Printf.printf "%-10s %-8s %14.3f %15.3f %9.2f%%\n%!"
              (Apps.Workloads.benchmark_name b) (Apps.Workloads.size_name s)
              tr tp slow)
         all_sizes)
    all_benchmarks;
  Printf.printf "%s\n" (line 62);
  let _, p25, med, p75, _ = stats_of !values in
  Printf.printf "median %.2f%%  p25 %.2f%%  p75 %.2f%%\n\n" med p25 p75

(* ------------------------------------------------------------------ *)
(* Compile-time overhead (paper §3: 1.9x - 2.2x)                        *)
(* ------------------------------------------------------------------ *)

let run_compile () =
  Printf.printf "Compile-time overhead of the two-pass pipeline\n";
  Printf.printf "(paper: 1.9x - 2.2x over a single gpucc invocation)\n\n";
  Printf.printf "%-10s %12s %12s %8s | %10s %10s %10s\n" "App" "1-pass(s)"
    "2-pass(s)" "ratio" "analysis" "rewrite" "link";
  Printf.printf "%s\n" (line 84);
  List.iter
    (fun (b, name) ->
       let prog =
         Apps.Workloads.program ~iterations:4 b Apps.Workloads.Small
       in
       let t_ref, t_mek, ratio = Mekong.Toolchain.compile_time_ratio prog in
       let p = Mekong.Toolchain.compile_profile prog in
       Printf.printf "%-10s %12.6f %12.6f %7.2fx | %10.6f %10.6f %10.6f\n%!"
         name t_ref t_mek ratio p.Mekong.Toolchain.p_analysis
         p.Mekong.Toolchain.p_rewrite p.Mekong.Toolchain.p_link)
    [
      (Apps.Workloads.Hotspot_b, "hotspot");
      (Apps.Workloads.Nbody_b, "nbody");
      (Apps.Workloads.Matmul_b, "matmul");
    ];
  Printf.printf
    "\nNote: the paper's ~2x is structural (gpucc, the dominant cost, runs\n";
  Printf.printf
    "twice).  Our front-end is an embedded DSL (microseconds), so the\n";
  Printf.printf
    "polyhedral analysis dominates the measured ratio instead; the pipeline\n";
  Printf.printf "structure (two full front-end passes) is identical.\n\n"

(* ------------------------------------------------------------------ *)
(* Ablation: rectangle-union enumerators vs per-row scanning            *)
(* ------------------------------------------------------------------ *)

(* DESIGN.md calls out the rectangle-union optimization in the
   enumerators (full-width row bands collapse to one range instead of
   one range per row, paper §6.1 only computes per-row first/last).
   This ablation runs Hotspot with both variants and reports the
   dependency-resolution cost and the harness wall time. *)
let run_ablation () =
  Printf.printf "Ablation: enumerator rectangle-union vs per-row scanning\n";
  Printf.printf "(Hotspot Small, 50 iterations, 16 GPUs)\n\n";
  let prog =
    Apps.Workloads.program ~iterations:50 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let model =
    match Mekong.Toolchain.pass1 prog with
    | Ok (model, _) -> model
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  Printf.printf "%-22s %14s %16s %14s\n" "variant" "sim total(s)"
    "sim patterns(s)" "wall time(s)";
  Printf.printf "%s\n" (line 70);
  List.iter
    (fun (name, rectangles) ->
       let exe = Mekong.Multi_gpu.link ~rectangles ~model prog in
       let m = k80 16 in
       let w0 = Unix.gettimeofday () in
       let r = engine ~machine:m exe in
       let wall = Unix.gettimeofday () -. w0 in
       let s = Gpusim.Machine.stats m in
       Printf.printf "%-22s %14.4f %16.6f %14.3f\n%!" name
         r.Mekong.Multi_gpu.time s.Gpusim.Machine.pattern_seconds wall)
    [ ("rectangle-union", true); ("per-row (paper §6.1)", false) ];
  Printf.printf "\n";
  (* Second ablation: the suggested partitioning strategy vs. the naive
     alternative axis.  Matmul's model suggests splitting along y (row
     bands of C and A match the linear distribution); forcing x makes
     every device read all of A as well as all of B. *)
  Printf.printf "Ablation: partitioning strategy (Matmul Medium, 8 GPUs)\n\n";
  let mm = Apps.Workloads.program Apps.Workloads.Matmul_b Apps.Workloads.Medium in
  let mm_model =
    match Mekong.Toolchain.pass1 mm with
    | Ok (model, _) -> model
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  Printf.printf "%-26s %14s %14s\n" "strategy" "sim total(s)" "p2p GB moved";
  Printf.printf "%s\n" (line 60);
  List.iter
    (fun (name, force) ->
       let exe = Mekong.Multi_gpu.link ?force_strategy:force ~model:mm_model mm in
       let m = k80 8 in
       let r = engine ~machine:m exe in
       let st = Gpusim.Machine.stats m in
       Printf.printf "%-26s %14.3f %14.2f\n%!" name r.Mekong.Multi_gpu.time
         (float_of_int st.Gpusim.Machine.p2p_bytes /. 1e9))
    [ ("suggested (split y)", None); ("forced x (naive)", Some Dim3.X) ];
  Printf.printf "\n";
  (* Third ablation: 1-D bands (the paper's partitioning) vs 2-D tiles
     (our extension).  Tiles shrink the per-iteration stencil halo ~4x
     but pay a one-time redistribution against the linear H2D layout,
     so they only win for long-running stencils. *)
  Printf.printf
    "Ablation: 1-D bands vs 2-D tiles (Hotspot 2048^2, 16 GPUs)\n";
  Printf.printf
    "(tiles halve the halo bytes for long runs, but their per-row\n";
  Printf.printf
    " fragments explode the 1-D segment tracker's dependency-resolution\n";
  Printf.printf
    " cost - the fragmentation rationale behind the paper's contiguous\n";
  Printf.printf " 1-D chunks, Section 8.1)\n\n";
  Printf.printf "%-12s %16s %16s %16s %16s\n" "iterations" "1-D total(s)"
    "2-D total(s)" "1-D p2p GB" "2-D p2p GB";
  Printf.printf "%s\n" (line 80);
  List.iter
    (fun iterations ->
       let n = 2048 in
       let ph = Host_ir.host_phantom (n * n) in
       let prog = Apps.Hotspot.program_h ~n ~iterations ~init:ph ~result:ph in
       let model =
         match Mekong.Toolchain.pass1 prog with
         | Ok (model, _) -> model
         | Error e -> failwith (Mekong.Toolchain.error_message e)
       in
       let exe = Mekong.Multi_gpu.link ~model prog in
       let run tiling =
         let m = k80 16 in
         let r = engine ~tiling ~machine:m exe in
         (r.Mekong.Multi_gpu.time,
          float_of_int (Gpusim.Machine.stats m).Gpusim.Machine.p2p_bytes /. 1e9)
       in
       let t1, g1 = run `One_d in
       let t2, g2 = run `Two_d in
       Printf.printf "%-12d %16.4f %16.4f %16.2f %16.2f\n%!" iterations t1 t2
         g1 g2)
    [ 20; 150; 600 ];
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Launch-plan cache: host-engine wall-clock with and without           *)
(* ------------------------------------------------------------------ *)

(* A Repeat-heavy workload re-issues the same launch key hundreds of
   times; this measures how much host-side engine work the launch-plan
   cache amortizes.  Simulated results are bit-identical either way
   (asserted below); only the harness wall-clock changes. *)
let run_cachebench () =
  Printf.printf "Launch-plan cache (Hotspot Small, 200 iterations, 8 GPUs)\n\n";
  let prog =
    Apps.Workloads.program ~iterations:200 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let model =
    match Mekong.Toolchain.pass1 prog with
    | Ok (model, _) -> model
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let exe = Mekong.Multi_gpu.link ~model prog in
  Printf.printf "%-12s %14s %14s %8s %8s\n" "variant" "sim total(s)"
    "wall time(s)" "hits" "misses";
  Printf.printf "%s\n" (line 60);
  let measure cache =
    let wall, r =
      median_wall (fun () ->
          let m = k80 8 in
          engine ~cache ~machine:m exe)
    in
    let hits = count r "cache.plan_hits" and misses = count r "cache.plan_misses" in
    Printf.printf "%-12s %14.4f %14.3f %8d %8d\n%!"
      (if cache then "cache on" else "cache off")
      r.Mekong.Multi_gpu.time wall hits misses;
    (r.Mekong.Multi_gpu.time, wall)
  in
  let t_on, w_on = measure true in
  let t_off, w_off = measure false in
  assert (t_on = t_off);
  Printf.printf "\nhost-engine speedup: %.1fx (identical simulated time)\n\n"
    (w_off /. w_on)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the runtime primitives                  *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let tracker_write =
    Test.make ~name:"tracker.write x64"
      (Staged.stage (fun () ->
           let t =
             Gpu_runtime.Tracker.create ~len:1_000_000 ~initial_owner:0
           in
           for i = 0 to 63 do
             Gpu_runtime.Tracker.write t ~start:(i * 1000)
               ~stop:((i * 1000) + 500) ~owner:(i mod 16)
           done))
  in
  let tracker_query =
    let t = Gpu_runtime.Tracker.create ~len:1_000_000 ~initial_owner:0 in
    for i = 0 to 255 do
      Gpu_runtime.Tracker.write t ~start:(i * 3000) ~stop:((i * 3000) + 1500)
        ~owner:(i mod 16)
    done;
    Test.make ~name:"tracker.query (512 segs)"
      (Staged.stage (fun () ->
           ignore (Gpu_runtime.Tracker.query t ~start:100_000 ~stop:900_000)))
  in
  let tracker_seek =
    Test.make ~name:"tracker.write+seek x256"
      (Staged.stage (fun () ->
           let module T = Gpu_runtime.Tracker in
           let t = T.create ~len:1024 ~initial_owner:0 in
           for i = 0 to 255 do
             let s = (i * 7919) mod 1023 in
             T.write t ~start:s ~stop:(s + 1) ~owner:(1 + (i mod 3))
           done;
           for i = 0 to 255 do
             T.seek t i
           done))
  in
  let enum_eval =
    let a = artifacts Apps.Workloads.Hotspot_b Apps.Workloads.Small in
    let km = Mekong.Model.find_exn a.Mekong.Toolchain.model "hotspot" in
    let enums = Mekong.Codegen.build km in
    let entry = Option.get (Mekong.Codegen.entry enums "inp") in
    let enum = Option.get entry.Mekong.Codegen.read in
    let n =
      Apps.Workloads.problem_size Apps.Workloads.Hotspot_b Apps.Workloads.Small
    in
    let p =
      List.nth
        (Mekong.Partition.make ~grid:(Apps.Hotspot.grid_for n) ~axis:Dim3.Y
           ~n:16)
        7
    in
    let bindings =
      [ ("n", n) ]
      @ List.concat_map
          (fun ax ->
             [
               (Mekong.Access.bdim_name ax, Dim3.get Apps.Hotspot.block ax);
               (Mekong.Access.gdim_name ax,
                Dim3.get (Apps.Hotspot.grid_for n) ax);
             ])
          Dim3.axes
      @ Mekong.Partition.box_bindings p ~block:Apps.Hotspot.block
    in
    Test.make ~name:"enumerator.eval (hotspot read)"
      (Staged.stage (fun () -> ignore (Mekong.Codegen.ranges enum ~bindings)))
  in
  let analysis =
    Test.make ~name:"access.analyze (hotspot)"
      (Staged.stage (fun () ->
           ignore (Mekong.Access.analyze Apps.Hotspot.kernel)))
  in
  [ tracker_write; tracker_query; tracker_seek; enum_eval; analysis ]

let run_micro () =
  let open Bechamel in
  Printf.printf
    "Micro-benchmarks of the runtime primitives (real wall time, OLS fit)\n\n";
  let benchmark test =
    let cfg =
      Benchmark.cfg ~limit:512 ~quota:(Time.second 0.5) ~kde:(Some 512) ()
    in
    Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
       let results = analyze (benchmark test) in
       Hashtbl.iter
         (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] ->
              Printf.printf "  %-34s %12.1f ns/run\n%!" name est
            | _ -> Printf.printf "  %-34s (no estimate)\n%!" name)
         results)
    (micro_tests ());
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Fault campaign: self-healing under injected faults                   *)
(* ------------------------------------------------------------------ *)

(* Three fixed seeds, each adding transient kernel/transfer faults plus
   one permanent device loss scheduled mid-run.  Every functional run
   must finish bit-identical to its fault-free baseline; any mismatch
   (or a loss schedule that never fires) fails the campaign with exit
   code 1 — this is the headline robustness guarantee, enforced in CI. *)
let campaign_seeds = [ 11; 42; 1337 ]

let run_faultcampaign () =
  Printf.printf "Fault campaign: self-healing engine under injected faults\n";
  Printf.printf
    "(functional runs on the K80 box; each seed adds 2%% transient\n";
  Printf.printf
    " kernel/transfer faults and one permanent device loss mid-run;\n";
  Printf.printf
    " outputs must stay bit-identical to the fault-free baseline)\n\n";
  let devices = 4 in
  let workloads =
    [
      ( "hotspot",
        (* 64x64 cells = a 4x4 block grid, one row band per device
           (48x48 would leave the fourth device without compute). *)
        fun () ->
          let p, out, _ =
            Apps.Workloads.functional_hotspot ~n:64 ~iterations:6
          in
          (p, out) );
      ( "nbody",
        (* 1024 bodies = 4 blocks of 256, so the grid actually spans
           all four devices (smaller instances collapse onto one). *)
        fun () ->
          let p, out, _ =
            Apps.Workloads.functional_nbody ~n:1024 ~iterations:3
          in
          (p, out) );
      ( "matmul",
        fun () ->
          let p, out, _ = Apps.Workloads.functional_matmul ~n:24 in
          (p, out) );
    ]
  in
  let compile prog =
    match Mekong.Toolchain.compile prog with
    | Ok a -> a.Mekong.Toolchain.exe
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let machine () =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:devices ())
  in
  let violations = ref 0 in
  Printf.printf "%-8s %6s %11s %11s %7s %8s %8s %5s  %s\n" "App" "seed"
    "clean(s)" "faulty(s)" "faults" "retries" "replays" "lost" "verdict";
  Printf.printf "%s\n" (line 86);
  List.iter
    (fun (name, mk) ->
       (* Fault-free baseline: reference output bytes and runtime. *)
       let prog, out = mk () in
       let m = machine () in
       let r0 = engine ~machine:m (compile prog) in
       assert (r0.Mekong.Multi_gpu.faults = Mekong.Multi_gpu.no_faults);
       let baseline = Array.copy out in
       let t0 = r0.Mekong.Multi_gpu.time in
       List.iteri
         (fun i seed ->
            let prog, out = mk () in
            let m = machine () in
            let dead = 1 + (i mod (devices - 1)) in
            let spec =
              {
                Gpusim.Faults.null_spec with
                seed;
                kernel_fault_rate = 0.02;
                transfer_fault_rate = 0.02;
                scheduled_losses =
                  [ (dead, (0.15 +. (0.15 *. float_of_int i)) *. t0) ];
              }
            in
            Gpusim.Machine.inject_faults m (Gpusim.Faults.create spec);
            let r =
              engine ~checkpoint_every:3 ~machine:m (compile prog)
            in
            let ok = out = baseline in
            if not ok then incr violations;
            let f = r.Mekong.Multi_gpu.faults in
            Printf.printf "%-8s %6d %11.7f %11.7f %7d %8d %8d %5d  %s\n%!" name
              seed t0 r.Mekong.Multi_gpu.time f.Mekong.Multi_gpu.fr_faults
              f.Mekong.Multi_gpu.fr_retries f.Mekong.Multi_gpu.fr_replays
              f.Mekong.Multi_gpu.fr_devices_lost
              (if ok then "OK" else "FAIL: output diverged");
            if f.Mekong.Multi_gpu.fr_devices_lost = 0 then begin
              incr violations;
              Printf.printf
                "  ^ FAIL: scheduled loss of device %d never triggered\n" dead
            end)
         campaign_seeds)
    workloads;
  Printf.printf "%s\n" (line 86);
  if !violations > 0 then begin
    Printf.printf
      "FAULT CAMPAIGN FAILED: %d bit-identity/coverage violation(s)\n\n"
      !violations;
    campaign_failed := true
  end
  else
    Printf.printf
      "fault campaign passed: all runs bit-identical to the fault-free \
       baseline\n\n"

(* ------------------------------------------------------------------ *)
(* Memory pressure: spill-to-host + chunked launches under a capacity   *)
(* ------------------------------------------------------------------ *)

(* Each workload first runs uncapped to measure its own per-device
   high-water mark, then again at 100%, 50% and 25% of that capacity.
   Every capped run must stay bit-identical to the uncapped baseline
   (the DESIGN.md §15 invariant); the table records the spill traffic,
   chunk counts and slowdown the capacity costs.  Any divergence or
   unexpected infeasibility fails the campaign (exit 1). *)
let run_memcampaign () =
  Printf.printf "Memory campaign: OOM-safe execution under device capacities\n";
  Printf.printf
    "(functional runs on the K80 box; capacity = a fraction of the\n";
  Printf.printf
    " workload's own uncapped high-water mark; outputs must stay\n";
  Printf.printf " bit-identical to the uncapped baseline)\n\n";
  let devices = 4 in
  let workloads =
    [
      ( "matmul",
        (* 256x256: large enough that a quarter of the high-water
           clears the single-axis chunking floor (one partition's full
           band of A plus one block-column of B). *)
        fun () ->
          let p, out, _ = Apps.Workloads.functional_matmul ~n:256 in
          (p, out) );
      ( "hotspot",
        fun () ->
          let p, out, _ =
            Apps.Workloads.functional_hotspot ~n:64 ~iterations:6
          in
          (p, out) );
    ]
  in
  let compile prog =
    match Mekong.Toolchain.compile prog with
    | Ok a -> a.Mekong.Toolchain.exe
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let machine cap =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:devices ?mem_capacity:cap ())
  in
  let violations = ref 0 in
  Printf.printf "%-8s %5s %9s %11s %9s %7s %9s %7s  %s\n" "App" "frac"
    "cap(B)" "time(s)" "slowdown" "spills" "spill(B)" "chunks" "verdict";
  Printf.printf "%s\n" (line 86);
  List.iter
    (fun (name, mk) ->
       let prog, out = mk () in
       let m0 = machine None in
       let r0 = engine ~machine:m0 (compile prog) in
       let baseline = Array.copy out in
       let t0 = r0.Mekong.Multi_gpu.time in
       let hw = ref 0 in
       for d = 0 to devices - 1 do
         hw := max !hw (Gpusim.Machine.mem_high_water m0 d)
       done;
       Printf.printf "%-8s %5s %9d %11.7f %9s %7d %9d %7d  %s\n%!" name
         "free" !hw t0 "1.00x" 0 0 0 "baseline";
       List.iter
         (fun denom ->
            let cap = !hw / denom in
            let frac = Printf.sprintf "1/%d" denom in
            let prog, out = mk () in
            let m = machine (Some cap) in
            match engine ~machine:m (compile prog) with
            | exception Failure msg ->
              incr violations;
              Printf.printf "%-8s %5s %9d %s\n%!" name frac cap
                ("FAIL: " ^ msg)
            | r ->
              let ok = out = baseline in
              if not ok then incr violations;
              let st = Gpusim.Machine.stats m in
              let chunks = count r "engine.chunks" in
              let t = r.Mekong.Multi_gpu.time in
              last_machine := Some m;
              Printf.printf "%-8s %5s %9d %11.7f %8.2fx %7d %9d %7d  %s\n%!"
                name frac cap t (t /. t0) st.Gpusim.Machine.n_spills
                st.Gpusim.Machine.spill_bytes chunks
                (if ok then "OK" else "FAIL: output diverged"))
         [ 1; 2; 4 ])
    workloads;
  Printf.printf "%s\n" (line 86);
  (* Every capped run still goes through the launch-plan cache and the
     race gate: a zero total means a path bypassed them, or their
     counters never reached the registry. *)
  List.iter
    (fun name ->
       let v = Obs.Metrics.get campaign name in
       Printf.printf "%s=%.0f\n" name v;
       if not (v > 0.0) then begin
         incr violations;
         Printf.printf "  FAIL: %s must be positive\n" name
       end)
    [ "cache.plan_hits"; "engine.gate.safe" ];
  if !violations > 0 then begin
    Printf.printf
      "MEMORY CAMPAIGN FAILED: %d bit-identity/feasibility/counter \
       violation(s)\n\n"
      !violations;
    campaign_failed := true
  end
  else
    Printf.printf
      "memory campaign passed: all capped runs bit-identical to the \
       uncapped baseline\n\n"

(* ------------------------------------------------------------------ *)
(* Executor: interpreter vs compiled register code vs domain-parallel  *)
(* ------------------------------------------------------------------ *)

(* Real wall time of the functional execution engines (the simulated
   times are identical by construction).  Three variants per app:

     interpreter   Single_gpu with the Keval tree-walker
     compiled      Single_gpu with the Kcompile lane executor
     engine_1gpu   the partitioned engine on ONE device, so the same
                   total work, with each race-free launch's blocks
                   split over the domain pool (--domains)

   Only the run is timed: building the program, the two-pass
   toolchain and machine creation happen outside the timed region.
   All three must produce bit-identical output arrays, compiled must
   not be slower than the interpreter on matmul, and every compiled or
   engine launch must run compiled (exec.interpreted = 0 over launches
   that did run) — the CI gate (exit 1).  Honors
   --repeat (warmup + median-of-N). *)
let run_exec () =
  let domains = Gpu_runtime.Dpool.default_domains () in
  Printf.printf "Executor: Keval interpreter vs the Kcompile executor\n";
  Printf.printf
    "(functional runs, real wall time of the run alone; 'engine' is the\n";
  Printf.printf
    " partitioned engine on 1 device with a %d-domain pool; outputs must\n"
    domains;
  Printf.printf " be bit-identical across all variants)\n\n";
  let workloads =
    [
      ( "matmul",
        fun () ->
          let p, out, _ = Apps.Workloads.functional_matmul ~n:64 in
          (p, out) );
      ( "hotspot",
        fun () ->
          let p, out, _ =
            Apps.Workloads.functional_hotspot ~n:64 ~iterations:4
          in
          (p, out) );
      ( "nbody",
        fun () ->
          let p, out, _ =
            Apps.Workloads.functional_nbody ~n:512 ~iterations:2
          in
          (p, out) );
      (* irregular (reducible-atomic) workloads: exact-arithmetic
         data, so the partition-local accumulation + ordered merge
         must land on the interpreter's bits exactly *)
      ( "histogram",
        fun () ->
          let p, out, _ =
            Apps.Workloads.functional_histogram ~n:4096 ~nbins:97
          in
          (p, out) );
      ( "dot",
        fun () ->
          let p, out, _ = Apps.Workloads.functional_dot ~n:4096 in
          (p, out) );
    ]
  in
  Printf.printf "%-8s %11s %11s %11s %9s %9s  %s\n" "App" "interp(s)"
    "compiled(s)" "engine(s)" "comp-spd" "eng-spd" "verdict";
  Printf.printf "%s\n" (line 78);
  let matmul_speedup = ref nan in
  let failed = ref false in
  let machine () =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.k80_box ~n_devices:1 ())
  in
  List.iter
    (fun (name, mk) ->
       let setup () =
         let prog, out = mk () in
         (prog, out, machine ())
       in
       let single executor =
         median_wall_of ~setup (fun (prog, out, m) ->
             (* The interpreter variant is the oracle: it stays out of
                the campaign registry, whose exec.interpreted counts
                only Keval launches of the compiled and engine runs. *)
             (match executor with
              | `Interpreter -> ignore (Single_gpu.run ~machine:m ~executor prog)
              | `Compiled -> ignore (reference_run ~machine:m ~executor prog));
             out)
       in
       let w_int, out_int = single `Interpreter in
       let w_cmp, out_cmp = single `Compiled in
       let w_eng, (out_eng, r_eng) =
         median_wall_of
           ~setup:(fun () ->
               let prog, out = mk () in
               match Mekong.Toolchain.compile prog with
               | Ok a -> (a.Mekong.Toolchain.exe, out, machine ())
               | Error e -> failwith (Mekong.Toolchain.error_message e))
           (fun (exe, out, m) ->
              let r = engine ~machine:m exe in
              last_machine := Some m;
              (out, r))
       in
       (* Bit patterns, not [=]: polymorphic equality equates 0.0 with
          -0.0 and never holds on NaN. *)
       let bits = Array.map Int64.bits_of_float in
       let identical =
         bits out_cmp = bits out_int && bits out_eng = bits out_int
       in
       if not identical then failed := true;
       let spd = w_int /. w_cmp and espd = w_int /. w_eng in
       if name = "matmul" then begin
         matmul_speedup := spd;
         if Float.compare spd 1.0 < 0 then failed := true
       end;
       let engaged = count r_eng "exec.max_domains" in
       Printf.printf "%-8s %11.4f %11.4f %11.4f %8.2fx %8.2fx  %s\n%!" name
         w_int w_cmp w_eng spd espd
         (if identical then
            if engaged > 1 then "OK (parallel)" else "OK (sequential)"
          else "FAIL: output diverged"))
    workloads;
  Printf.printf "%s\n" (line 78);
  Printf.printf
    "matmul compiled-executor speedup: %.2fx over the interpreter\n"
    !matmul_speedup;
  (* A Keval launch in a compiled run would stay bit-identical but give
     back the compiled executor's whole gain. *)
  let launches name = int_of_float (Obs.Metrics.get campaign name) in
  let interpreted = launches "exec.interpreted"
  and seq = launches "exec.seq_launches"
  and par = launches "exec.par_launches" in
  Printf.printf "launches: seq=%d par=%d interpreted=%d\n" seq par interpreted;
  if interpreted <> 0 || seq + par = 0 then failed := true;
  if !failed then begin
    campaign_failed := true;
    Printf.printf
      "EXEC CAMPAIGN FAILED: output divergence, compiled slower than the \
       interpreter on matmul, or an interpreted launch in a compiled run\n\n"
  end
  else Printf.printf "exec campaign passed\n\n"

(* ------------------------------------------------------------------ *)
(* Overlap: asynchronous compute/communication on the stream API        *)
(* ------------------------------------------------------------------ *)

(* Three sections:

   1. Streaming pipelines on the raw machine stream/event API — the
      workloads asynchronous copy engines exist for.  The SAME chunk
      DAG is scheduled three ways:

        barrier  upload all / sync / compute all / sync / download all
                 / sync per round — what a barriered engine does;
        overlap  event-chained double buffering on explicit streams,
                 one final synchronize;
        ideal    compute only, transfers never issued (the lower
                 bound).

      hidden = (t_barrier - t_overlap) / (t_barrier - t_ideal) is the
      fraction of the exposed transfer time the overlap schedule
      hides; the CI gate is >= 0.5 and the target 0.8.  Functional
      replicas of the same DAGs must agree bit-exactly across
      schedules.

   2. The partitioned engine with ~overlap:true against the barriered
      engine: outputs bit-identical (also under injected faults and a
      memory capacity) and simulated time never worse.  Lockstep
      stencils cannot hide their halo latency — the kernel -> halo ->
      kernel chain is serial — so their hidden fraction is reported,
      not gated.

   3. Scheduling proof obligations: busy copy engines, at least one
      kernel strictly concurrent with a transfer under overlap (and
      none under the barrier schedule), every island link/uplink lane
      busy on an islands topology, and the islands fabric beating the
      flat bus when transfers are exposed.  The campaign's last
      machine carries the islands overlap trace, so --trace emits the
      concurrent per-link lanes for `mekongc check-trace`. *)

(* Calibrate ops_per_block so one chunk kernel takes [target] seconds
   on [m] (the wave model is linear in ops_per_block). *)
let calibrate_ops m ~blocks ~target =
  let d1 = Gpusim.Machine.kernel_duration m ~blocks ~ops_per_block:1.0e6 in
  1.0e6 *. target /. d1

(* Does any kernel run concurrently with any transfer anywhere on the
   machine?  Uses the machine's event trace (enable_trace). *)
let kernel_transfer_concurrency m =
  let events = Gpusim.Machine.trace m in
  let of_kind p = List.filter (fun e -> p e.Gpusim.Machine.ev_kind) events in
  let copies = of_kind (function `H2d | `D2h | `P2p -> true | _ -> false) in
  List.exists
    (fun (k : Gpusim.Machine.event) ->
       List.exists
         (fun (t : Gpusim.Machine.event) ->
            k.Gpusim.Machine.ev_start < t.Gpusim.Machine.ev_finish
            && t.Gpusim.Machine.ev_start < k.Gpusim.Machine.ev_finish)
         copies)
    (of_kind (( = ) `Kernel))

let aggregate_util m ~engine =
  let g = Gpusim.Machine.n_devices m in
  let span = Gpusim.Machine.elapsed m in
  if span <= 0.0 then 0.0
  else begin
    let busy = ref 0.0 in
    for d = 0 to g - 1 do
      let compute, cin, cout = Gpusim.Machine.device_timelines m d in
      let tl =
        match engine with
        | `Compute -> compute
        | `Copy_in -> cin
        | `Copy_out -> cout
      in
      busy := !busy +. Gpusim.Timeline.total_busy tl
    done;
    !busy /. (span *. float_of_int g)
  end

(* Host -> device -> kernel -> host streaming over [chunks] chunks of
   [chunk_len] elements, round-robin over [g] devices with two buffer
   pairs each.  Returns the output chunks (meaningful on functional
   machines only). *)
let h2d_stream ~mode m ~g ~chunks ~chunk_len ~ops_per_block =
  let open Gpusim in
  let functional = Machine.is_functional m in
  Machine.set_active_devices m g;
  let blocks = max 1 (chunk_len / 256) in
  (* In performance mode host arrays are never read: share one. *)
  let mk_host f = Array.init (if functional then chunks else 1) f in
  let input =
    mk_host (fun c ->
        Array.init chunk_len (fun i ->
            float_of_int (((c * 7919) + (i * 13)) mod 997) /. 31.0))
  in
  let output = mk_host (fun _ -> Array.make chunk_len nan) in
  let host a c = a.(if functional then c else 0) in
  let bin =
    Array.init g (fun d ->
        Array.init 2 (fun _ -> Machine.alloc m ~device:d ~len:chunk_len))
  in
  let bout =
    Array.init g (fun d ->
        Array.init 2 (fun _ -> Machine.alloc m ~device:d ~len:chunk_len))
  in
  let body d s () =
    let src = Buffer.data_exn bin.(d).(s) in
    let dst = Buffer.data_exn bout.(d).(s) in
    for i = 0 to chunk_len - 1 do
      dst.(i) <- (src.(i) *. 1.5) +. 2.0
    done
  in
  (match mode with
   | `Overlap ->
     (* Double buffered: the h2d of chunk c may not overwrite slot s
        before the kernel of chunk c-2g (the slot's previous tenant)
        has read it; everything else chains through events, no host
        barrier until the end. *)
     let slot_free = Array.make_matrix g 2 0.0 in
     for c = 0 to chunks - 1 do
       let d = c mod g and s = c / g mod 2 in
       let up =
         Machine.h2d_async ~deps:[ slot_free.(d).(s) ] m ~src:(host input c)
           ~src_off:0 ~dst:bin.(d).(s) ~dst_off:0 ~len:chunk_len
       in
       let k =
         Machine.launch_async ~deps:[ up ] m ~device:d ~blocks ~ops_per_block
           ~run:(body d s)
       in
       slot_free.(d).(s) <- k;
       ignore
         (Machine.d2h_async ~deps:[ k ] m ~src:bout.(d).(s) ~src_off:0
            ~dst:(host output c) ~dst_off:0 ~len:chunk_len)
     done;
     Machine.synchronize m
   | `Barrier ->
     let rounds = (chunks + g - 1) / g in
     for r = 0 to rounds - 1 do
       let batch =
         List.filter (fun c -> c < chunks)
           (List.init g (fun d -> (r * g) + d))
       in
       List.iter
         (fun c ->
            Machine.h2d m ~src:(host input c) ~src_off:0
              ~dst:bin.(c mod g).(0) ~dst_off:0 ~len:chunk_len)
         batch;
       Machine.synchronize m;
       List.iter
         (fun c ->
            Machine.launch m ~device:(c mod g) ~blocks ~ops_per_block
              ~run:(body (c mod g) 0))
         batch;
       Machine.synchronize m;
       List.iter
         (fun c ->
            Machine.d2h m ~src:bout.(c mod g).(0) ~src_off:0
              ~dst:(host output c) ~dst_off:0 ~len:chunk_len)
         batch;
       Machine.synchronize m
     done
   | `Ideal ->
     (* Compute lower bound; performance machines only (the kernels
        would read buffers no transfer ever filled). *)
     assert (not functional);
     for c = 0 to chunks - 1 do
       Machine.launch m ~device:(c mod g) ~blocks ~ops_per_block
         ~run:(body (c mod g) 0)
     done;
     Machine.synchronize m);
  output

(* Ring streaming over [rounds] rounds: each device computes on the
   chunk it received last round into a private accumulator while
   simultaneously forwarding that same chunk to the next device (both
   only read it), double-buffered so the incoming chunk lands in the
   other slot.  Returns the accumulator chunks. *)
let ring_stream ~mode m ~g ~rounds ~chunk_len ~ops_per_block =
  let open Gpusim in
  let functional = Machine.is_functional m in
  Machine.set_active_devices m g;
  let blocks = max 1 (chunk_len / 256) in
  let initial =
    Array.init g (fun d ->
        Array.init chunk_len (fun i ->
            float_of_int (((d * 131) + (i * 7)) mod 89) /. 17.0))
  in
  let out = Array.init g (fun _ -> Array.make chunk_len nan) in
  let chunk =
    Array.init g (fun d ->
        Array.init 2 (fun _ -> Machine.alloc m ~device:d ~len:chunk_len))
  in
  let acc = Array.init g (fun d -> Machine.alloc m ~device:d ~len:chunk_len) in
  let body d s () =
    let src = Buffer.data_exn chunk.(d).(s) in
    let dst = Buffer.data_exn acc.(d) in
    for i = 0 to chunk_len - 1 do
      dst.(i) <- dst.(i) +. src.(i)
    done
  in
  let zero = Array.make chunk_len 0.0 in
  (* Load the accumulators and round-0 chunks (slot 0). *)
  let recv_ev =
    Array.init g (fun d ->
        Machine.h2d m ~src:zero ~src_off:0 ~dst:acc.(d) ~dst_off:0
          ~len:chunk_len;
        Machine.h2d_async m ~src:initial.(d) ~src_off:0 ~dst:chunk.(d).(0)
          ~dst_off:0 ~len:chunk_len)
  in
  (* Last kernel that read slot s of device d — overwriting the slot
     must wait it (the concurrent send only reads, and its completion
     is recv_ev on the receiving side, also awaited). *)
  let consumed = Array.make_matrix g 2 0.0 in
  (match mode with
   | `Overlap ->
     for r = 0 to rounds - 1 do
       let s = r mod 2 in
       (* Kernels first: each device's copy engines hold only already
          chained work, so the launch's default-stream wait adds no
          false serialization against this round's sends. *)
       let kevs =
         Array.init g (fun d ->
             let k =
               Machine.launch_async ~deps:[ recv_ev.(d) ] m ~device:d ~blocks
                 ~ops_per_block ~run:(body d s)
             in
             consumed.(d).(s) <- k;
             k)
       in
       ignore kevs;
       if r < rounds - 1 then
         let next = Array.make g 0.0 in
         for d = 0 to g - 1 do
           let dst = (d + 1) mod g in
           (* The forward reads the chunk (needs recv_ev) and lands in
              the destination's other slot, whose old tenant had two
              readers: the destination's kernel (consumed) and the
              destination's own forward of it (recv_ev one hop on).
              It must NOT wait this round's kernel — both only read. *)
           next.(dst) <-
             Machine.p2p_async
               ~deps:
                 [ recv_ev.(d); consumed.(dst).(1 - s);
                   recv_ev.((dst + 1) mod g) ]
               m ~src:chunk.(d).(s) ~src_off:0 ~dst:chunk.(dst).(1 - s)
               ~dst_off:0 ~len:chunk_len
         done;
         Array.blit next 0 recv_ev 0 g
     done;
     Machine.synchronize m
   | `Barrier ->
     for r = 0 to rounds - 1 do
       let s = r mod 2 in
       for d = 0 to g - 1 do
         Machine.launch m ~device:d ~blocks ~ops_per_block ~run:(body d s)
       done;
       Machine.synchronize m;
       if r < rounds - 1 then begin
         for d = 0 to g - 1 do
           let dst = (d + 1) mod g in
           Machine.p2p m ~src:chunk.(d).(s) ~src_off:0
             ~dst:chunk.(dst).(1 - s) ~dst_off:0 ~len:chunk_len
         done;
         Machine.synchronize m
       end
     done
   | `Ideal ->
     assert (not functional);
     for r = 0 to rounds - 1 do
       for d = 0 to g - 1 do
         Machine.launch m ~device:d ~blocks ~ops_per_block
           ~run:(body d (r mod 2))
       done
     done;
     Machine.synchronize m);
  Array.iteri
    (fun d a ->
       Machine.d2h m ~src:a ~src_off:0 ~dst:out.(d) ~dst_off:0 ~len:chunk_len)
    acc;
  Machine.synchronize m;
  out

let run_overlapcampaign () =
  Printf.printf "Overlap campaign: async copy engines vs the host barrier\n";
  Printf.printf
    "(hidden = (t_barrier - t_overlap) / (t_barrier - t_ideal): the\n";
  Printf.printf
    " fraction of exposed transfer time the stream schedule hides;\n";
  Printf.printf " gate >= 0.50, target 0.80; outputs must stay bit-identical)\n\n";
  let violations = ref 0 in
  let check what ok =
    if not ok then begin
      incr violations;
      Printf.printf "  FAIL: %s\n%!" what
    end
  in
  let g = 4 in
  let islands =
    Gpusim.Config.Islands
      { island_size = 2; link_bandwidth = 20.0e9; uplink_bandwidth = 12.0e9 }
  in
  let perf ?topology () =
    let m =
      Gpusim.Machine.create ~functional:false
        (Gpusim.Config.k80_box ~n_devices:g ?topology ())
    in
    Gpusim.Machine.enable_trace m;
    m
  in
  let func ?topology () =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:g ?topology ())
  in
  (* -- 1. streaming pipelines --------------------------------------- *)
  Printf.printf "%-12s %11s %11s %11s %8s %8s  %s\n" "Stream" "barrier(s)"
    "overlap(s)" "ideal(s)" "hidden" "target" "verdict";
  Printf.printf "%s\n" (line 78);
  let stream_machines = ref [] in
  let stream name ?topology run_mode =
    let time mode =
      let m = perf ?topology () in
      let blocks = max 1 (1 lsl 20 / 256) in
      let ops = calibrate_ops m ~blocks ~target:8.0e-3 in
      ignore (run_mode mode m ops);
      stream_machines := (name, mode, m) :: !stream_machines;
      Gpusim.Machine.host_time m
    in
    let tb = time `Barrier and t_o = time `Overlap and ti = time `Ideal in
    let hidden = if tb -. ti > 0.0 then (tb -. t_o) /. (tb -. ti) else 0.0 in
    check (name ^ ": hidden fraction under the 0.50 gate") (hidden >= 0.5);
    check (name ^ ": overlap slower than barrier") (t_o <= tb);
    Printf.printf "%-12s %11.5f %11.5f %11.5f %7.1f%% %7.0f%%  %s\n%!" name tb
      t_o ti (100.0 *. hidden) 80.0
      (if hidden >= 0.8 then "OK (target met)"
       else if hidden >= 0.5 then "OK (gate met)"
       else "FAIL: below gate");
    hidden
  in
  let h2d_hidden =
    stream "h2d-stream" (fun mode m ops ->
        h2d_stream ~mode m ~g ~chunks:24 ~chunk_len:(1 lsl 20)
          ~ops_per_block:ops)
  in
  let ring_hidden =
    stream "ring-stream" (fun mode m ops ->
        ring_stream ~mode m ~g ~rounds:8 ~chunk_len:(1 lsl 19)
          ~ops_per_block:ops)
  in
  ignore (h2d_hidden, ring_hidden);
  (* Functional replicas: the overlap schedule must produce the exact
     bytes the barrier schedule does. *)
  let fo = h2d_stream ~mode:`Overlap (func ()) ~g ~chunks:8 ~chunk_len:2048
      ~ops_per_block:1.0 in
  let fb = h2d_stream ~mode:`Barrier (func ()) ~g ~chunks:8 ~chunk_len:2048
      ~ops_per_block:1.0 in
  check "h2d-stream: functional overlap diverged from barrier" (fo = fb);
  let ro = ring_stream ~mode:`Overlap (func ()) ~g ~rounds:6 ~chunk_len:1024
      ~ops_per_block:1.0 in
  let rb = ring_stream ~mode:`Barrier (func ()) ~g ~rounds:6 ~chunk_len:1024
      ~ops_per_block:1.0 in
  check "ring-stream: functional overlap diverged from barrier" (ro = rb);
  let rbi =
    ring_stream ~mode:`Overlap (func ~topology:islands ()) ~g ~rounds:6
      ~chunk_len:1024 ~ops_per_block:1.0
  in
  check "ring-stream: islands topology changed functional results" (rbi = rb);
  (* -- 2. the partitioned engine ------------------------------------ *)
  Printf.printf "\n%-8s %4s %11s %11s %11s %8s  %s\n" "App" "gpus"
    "barrier(s)" "overlap(s)" "beta(s)" "hidden" "verdict";
  Printf.printf "%s\n" (line 78);
  let compile prog =
    match Mekong.Toolchain.compile prog with
    | Ok a -> a.Mekong.Toolchain.exe
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let engine_time ~overlap ?cfg bench size gpus =
    let a = artifacts bench size in
    let m = k80 gpus in
    let r = engine ?cfg ~overlap ~machine:m a.Mekong.Toolchain.exe in
    (r.Mekong.Multi_gpu.time, Gpusim.Machine.stats m)
  in
  List.iter
    (fun (name, bench) ->
       List.iter
         (fun gpus ->
            let tb, sb = engine_time ~overlap:false bench Apps.Workloads.Small gpus in
            let t_o, so = engine_time ~overlap:true bench Apps.Workloads.Small gpus in
            let tbeta, _ =
              engine_time ~overlap:false ~cfg:Gpu_runtime.Rconfig.beta bench
                Apps.Workloads.Small gpus
            in
            let same_traffic =
              sb.Gpusim.Machine.h2d_bytes = so.Gpusim.Machine.h2d_bytes
              && sb.Gpusim.Machine.d2h_bytes = so.Gpusim.Machine.d2h_bytes
              && sb.Gpusim.Machine.p2p_bytes = so.Gpusim.Machine.p2p_bytes
            in
            check
              (Printf.sprintf "%s g=%d: overlap changed transfer traffic" name
                 gpus)
              same_traffic;
            check
              (Printf.sprintf "%s g=%d: overlap slower than barrier" name gpus)
              (t_o <= tb +. 1e-12);
            let hidden =
              if tb -. tbeta > 0.0 then (tb -. t_o) /. (tb -. tbeta) else 0.0
            in
            Printf.printf "%-8s %4d %11.5f %11.5f %11.5f %7.1f%%  %s\n%!" name
              gpus tb t_o tbeta (100.0 *. hidden)
              (if t_o <= tb +. 1e-12 && same_traffic then "OK" else "FAIL"))
         [ 4; 16 ])
    [ ("hotspot", Apps.Workloads.Hotspot_b);
      ("nbody", Apps.Workloads.Nbody_b);
      ("matmul", Apps.Workloads.Matmul_b) ];
  (* Functional engine bit-identity: plain, under faults, under a
     memory capacity. *)
  let func_engine ?fault_spec ?mem_capacity ~overlap mk =
    let prog, out = mk () in
    let m =
      Gpusim.Machine.create ~functional:true
        (Gpusim.Config.k80_box ~n_devices:g ?mem_capacity ())
    in
    (match fault_spec with
     | Some spec -> Gpusim.Machine.inject_faults m (Gpusim.Faults.create spec)
     | None -> ());
    let r = engine ~checkpoint_every:3 ~overlap ~machine:m (compile prog) in
    (Array.copy out, r, m)
  in
  List.iter
    (fun (name, mk) ->
       let base, _, m0 = func_engine ~overlap:false mk in
       let o, _, _ = func_engine ~overlap:true mk in
       check (name ^ ": engine overlap diverged") (o = base);
       let spec t0 =
         {
           Gpusim.Faults.null_spec with
           seed = 42;
           kernel_fault_rate = 0.02;
           transfer_fault_rate = 0.02;
           scheduled_losses = [ (1, 0.3 *. t0) ];
         }
       in
       let t0 = Gpusim.Machine.elapsed m0 in
       let f, rf, _ = func_engine ~fault_spec:(spec t0) ~overlap:true mk in
       check (name ^ ": engine overlap diverged under faults") (f = base);
       check
         (name ^ ": fault schedule never triggered the device loss")
         (rf.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost > 0);
       let hw = ref 0 in
       for d = 0 to g - 1 do
         hw := max !hw (Gpusim.Machine.mem_high_water m0 d)
       done;
       let c, _, _ = func_engine ~mem_capacity:(!hw / 2) ~overlap:true mk in
       check (name ^ ": engine overlap diverged under a memory cap") (c = base))
    [
      ( "hotspot",
        fun () ->
          let p, out, _ =
            Apps.Workloads.functional_hotspot ~n:64 ~iterations:6
          in
          (p, out) );
      ( "matmul",
        fun () ->
          let p, out, _ = Apps.Workloads.functional_matmul ~n:256 in
          (p, out) );
    ];
  (* -- 3. scheduling proof obligations ------------------------------ *)
  let find name mode =
    let _, _, m =
      List.find (fun (n, md, _) -> n = name && md = mode) !stream_machines
    in
    m
  in
  let mo = find "h2d-stream" `Overlap and mb = find "h2d-stream" `Barrier in
  check "overlap schedule shows no concurrent kernel/transfer pair"
    (kernel_transfer_concurrency mo);
  check "barrier schedule shows a concurrent kernel/transfer pair"
    (not (kernel_transfer_concurrency mb));
  for d = 0 to g - 1 do
    let _, cin, cout = Gpusim.Machine.device_timelines mo d in
    check
      (Printf.sprintf "device %d copy engines idle under overlap" d)
      (Gpusim.Timeline.total_busy cin > 0.0
       && Gpusim.Timeline.total_busy cout > 0.0)
  done;
  let uo = aggregate_util mo ~engine:`Compute in
  let ub = aggregate_util mb ~engine:`Compute in
  check "overlap does not raise compute utilization" (uo > ub);
  Printf.printf
    "\ncompute utilization: %.1f%% overlap vs %.1f%% barrier (h2d-stream)\n"
    (100.0 *. uo) (100.0 *. ub);
  (* Topology: the ring's neighbor traffic runs on parallel island
     links, so the islands fabric must beat the flat bus while the
     transfers are exposed, and every link lane must carry traffic. *)
  let ring_time ?topology mode =
    let m = perf ?topology () in
    let blocks = max 1 (1 lsl 19 / 256) in
    let ops = calibrate_ops m ~blocks ~target:4.0e-3 in
    ignore (ring_stream ~mode m ~g ~rounds:8 ~chunk_len:(1 lsl 19)
              ~ops_per_block:ops);
    (Gpusim.Machine.host_time m, m)
  in
  let t_flat, _ = ring_time `Barrier in
  let t_isl, mi = ring_time ~topology:islands `Barrier in
  check "islands fabric not faster than the flat bus on the ring"
    (t_isl < t_flat);
  List.iter
    (fun (lname, tl) ->
       check
         (Printf.sprintf "link lane %s idle on the islands ring" lname)
         (Gpusim.Timeline.total_busy tl > 0.0))
    (Gpusim.Machine.link_timelines mi);
  Printf.printf "islands vs flat on the exposed ring: %.5fs vs %.5fs (%.2fx)\n"
    t_isl t_flat (t_flat /. t_isl);
  (* The islands overlap ring is the machine whose trace --trace
     writes: concurrent compute/copy lanes plus one lane per island
     link. *)
  let _, mi_overlap = ring_time ~topology:islands `Overlap in
  last_machine := Some mi_overlap;
  Printf.printf "%s\n" (line 78);
  if !violations > 0 then begin
    Printf.printf "OVERLAP CAMPAIGN FAILED: %d violation(s)\n\n" !violations;
    campaign_failed := true
  end
  else
    Printf.printf
      "overlap campaign passed: streams hide the gated fraction and stay \
       bit-identical\n\n"

(* ------------------------------------------------------------------ *)
(* Serving: multi-tenant campaign under faults, losses and overload     *)
(* ------------------------------------------------------------------ *)

(* A ≥200-job mixed campaign through the serving scheduler, three
   variants on an 8-GPU fleet:

     clean     the mix with two poison jobs, no losses
     loss      the same mix with two permanent device losses fired
               mid-stream (at the 30th/60th percentile of the clean
               variant's completion times, so they hit a busy fleet)
     overload  a burst arrival against a tiny queue bound plus a tight
               deadline (typed Queue_full rejections and timeouts)

   Gates (any violation exits 1 once the campaign has finished):
   - zero lost jobs: every submission reaches a typed outcome;
   - every healthy job in the clean and loss variants completes, and
     its output is bit-identical to a solo run of the identical
     instance on the full healthy machine;
   - poison jobs are quarantined by the circuit breaker, never retried
     forever;
   - the loss variant loses exactly its two scheduled devices, at
     least one in-flight job preempts and re-queues, and no lease
     occupies a device after its death;
   - the overload variant rejects with the typed queue bound;
   - per-tenant SLO percentiles are finite wherever defined, and the
     scheduler's Chrome trace validates. *)
let run_servecampaign () =
  let fleet_n = 8 in
  let n_jobs = 220 in
  let n_poison = 2 in
  let seed = 42 in
  Printf.printf "Serving campaign: %d-job multi-tenant mix on %d GPUs\n"
    n_jobs fleet_n;
  Printf.printf
    "(admission control, priorities, circuit breaker, graceful\n\
    \ degradation; completed outputs must be bit-identical to solo runs)\n\n";
  let violations = ref 0 in
  let check msg ok =
    if not ok then begin
      incr violations;
      Printf.printf "  FAIL: %s\n%!" msg
    end
  in
  let fleet () = Gpusim.Config.k80_box ~n_devices:fleet_n () in
  let run_variant ?(max_queue = 256) ?(losses = []) ?deadline
      ?(mean_gap = 2e-4) ~jobs ~poison ~seed () =
    let built =
      Serve.Mix.generate ~seed ~tenants:4 ~poison ?deadline ~mean_gap ~jobs ()
    in
    let cfg = Serve.Scheduler.config ~max_queue ~losses (fleet ()) in
    let r =
      Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)
    in
    (built, r)
  in
  let outcome_of (r : Serve.Scheduler.report) name =
    let j =
      List.find (fun (j : Serve.Job.report) -> j.Serve.Job.r_name = name)
        r.Serve.Scheduler.r_jobs
    in
    j.Serve.Job.r_outcome
  in
  let counts (r : Serve.Scheduler.report) =
    List.fold_left
      (fun (c, rj, t, q) (j : Serve.Job.report) ->
         match j.Serve.Job.r_outcome with
         | Serve.Job.Completed _ -> (c + 1, rj, t, q)
         | Serve.Job.Rejected _ -> (c, rj + 1, t, q)
         | Serve.Job.Timed_out _ -> (c, rj, t + 1, q)
         | Serve.Job.Quarantined _ -> (c, rj, t, q + 1))
      (0, 0, 0, 0) r.Serve.Scheduler.r_jobs
  in
  (* Solo reference outputs, one per workload key: instances of a key
     are bit-identical by construction, so each key is run once, alone
     on the full healthy machine. *)
  let solo_outputs built =
    let tbl : (string, float array) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (b : Serve.Mix.built) ->
         if
           (not b.Serve.Mix.b_poison)
           && not (Hashtbl.mem tbl b.Serve.Mix.b_key)
         then begin
           let exe', out' = b.Serve.Mix.b_solo () in
           let m = Gpusim.Machine.create ~functional:true (fleet ()) in
           ignore (engine ~machine:m exe');
           Hashtbl.replace tbl b.Serve.Mix.b_key out'
         end)
      built;
    tbl
  in
  let check_variant ~variant built r =
    let total = List.length r.Serve.Scheduler.r_jobs in
    check
      (Printf.sprintf "%s: every job must reach a typed outcome" variant)
      (total = List.length built);
    let solo = solo_outputs built in
    List.iter
      (fun (b : Serve.Mix.built) ->
         let name = b.Serve.Mix.b_spec.Serve.Job.name in
         match outcome_of r name with
         | Serve.Job.Completed _ ->
           check
             (Printf.sprintf "%s: %s bit-identical to its solo run" variant
                name)
             (Array.map Int64.bits_of_float b.Serve.Mix.b_output
              = Array.map Int64.bits_of_float
                  (Hashtbl.find solo b.Serve.Mix.b_key))
         | Serve.Job.Quarantined _ ->
           check
             (Printf.sprintf "%s: only poison jobs may be quarantined (%s)"
                variant name)
             b.Serve.Mix.b_poison
         | _ -> ())
      built;
    List.iter
      (fun (b : Serve.Mix.built) ->
         if not b.Serve.Mix.b_poison then
           check
             (Printf.sprintf "%s: healthy job %s must complete" variant
                b.Serve.Mix.b_spec.Serve.Job.name)
             (match outcome_of r b.Serve.Mix.b_spec.Serve.Job.name with
              | Serve.Job.Completed _ -> true
              | _ -> false)
         else
           check
             (Printf.sprintf "%s: poison job %s must be quarantined" variant
                b.Serve.Mix.b_spec.Serve.Job.name)
             (match outcome_of r b.Serve.Mix.b_spec.Serve.Job.name with
              | Serve.Job.Quarantined _ -> true
              | _ -> false))
      built;
    List.iter
      (fun (t : Serve.Slo.tenant) ->
         if t.Serve.Slo.t_completed > 0 then
           check
             (Printf.sprintf "%s: tenant %s percentiles finite" variant
                t.Serve.Slo.t_name)
             (List.for_all Float.is_finite
                [
                  t.Serve.Slo.t_queue_p50; t.Serve.Slo.t_queue_p99;
                  t.Serve.Slo.t_turnaround_p50; t.Serve.Slo.t_turnaround_p99;
                ]))
      (Serve.Scheduler.tenants r)
  in
  let print_variant variant (r : Serve.Scheduler.report) =
    let c, rj, t, q = counts r in
    Printf.printf
      "%-9s %4d jobs: %4d completed %3d rejected %3d timed-out %3d \
       quarantined | %d lost | makespan %.7fs | util %2.0f%%\n%!"
      variant
      (List.length r.Serve.Scheduler.r_jobs)
      c rj t q r.Serve.Scheduler.r_devices_lost r.Serve.Scheduler.r_makespan
      (100.0 *. r.Serve.Scheduler.r_utilization)
  in

  (* Variant 1: clean. *)
  let built_c, r_clean =
    run_variant ~jobs:n_jobs ~poison:n_poison ~seed ()
  in
  print_variant "clean" r_clean;
  check_variant ~variant:"clean" built_c r_clean;

  (* Variant 2: the same mix with two mid-stream permanent losses.
     Times are percentiles of the clean variant's completion times, so
     both losses land while the fleet is saturated; devices 0 and 1
     die because low device ids are preferred by dispatch and are
     therefore the busiest. *)
  let finishes =
    List.filter_map
      (fun (j : Serve.Job.report) ->
         match j.Serve.Job.r_outcome with
         | Serve.Job.Completed { finished; _ } -> Some finished
         | _ -> None)
      r_clean.Serve.Scheduler.r_jobs
    |> Array.of_list
  in
  Array.sort compare finishes;
  let losses =
    [ (0, percentile finishes 30.0); (1, percentile finishes 60.0) ]
  in
  List.iter
    (fun (d, t) -> Printf.printf "  scheduling loss of device %d at %.4fs\n" d t)
    losses;
  let built_l, r_loss =
    run_variant ~losses ~jobs:n_jobs ~poison:n_poison ~seed ()
  in
  print_variant "loss" r_loss;
  check_variant ~variant:"loss" built_l r_loss;
  check "loss: exactly the two scheduled devices die"
    (r_loss.Serve.Scheduler.r_devices_lost = 2);
  let preemptions =
    List.fold_left
      (fun acc (j : Serve.Job.report) ->
         match j.Serve.Job.r_outcome with
         | Serve.Job.Completed { preemptions; _ } -> acc + preemptions
         | _ -> acc)
      0 r_loss.Serve.Scheduler.r_jobs
  in
  Printf.printf
    "  loss variant: %d preempt/requeue cycle(s) across in-flight jobs\n"
    preemptions;
  check "loss: at least one in-flight job preempts and re-queues"
    (preemptions >= 1);
  List.iter
    (fun (s : Serve.Scheduler.segment) ->
       List.iter
         (fun d ->
            match List.assoc_opt d losses with
            | Some t ->
              check
                (Printf.sprintf "loss: no lease on device %d after its death" d)
                (s.Serve.Scheduler.sg_start <= t)
            | None -> ())
         s.Serve.Scheduler.sg_devices)
    r_loss.Serve.Scheduler.r_segments;
  (match Obs.Chrome_trace.validate (Serve.Strace.to_json r_loss) with
   | Ok () -> ()
   | Error e -> check (Printf.sprintf "loss: scheduler trace valid (%s)" e) false);

  (* Variant 3: overload — a burst arrival against a tiny queue bound
     and a tight per-job deadline.  Overflow must surface as typed
     Queue_full rejections, never silent drops. *)
  let _, r_over =
    run_variant ~max_queue:8 ~mean_gap:0.0 ~deadline:5e-3
      ~jobs:64 ~poison:0 ~seed:7 ()
  in
  print_variant "overload" r_over;
  let c_o, rj_o, t_o, q_o = counts r_over in
  check "overload: all outcomes typed and accounted"
    (c_o + rj_o + t_o + q_o = 64);
  check "overload: the bounded queue rejects" (rj_o > 0);
  List.iter
    (fun (j : Serve.Job.report) ->
       match j.Serve.Job.r_outcome with
       | Serve.Job.Rejected { reason = Serve.Job.Queue_full n; _ } ->
         check "overload: rejection carries the queue bound" (n = 8)
       | Serve.Job.Rejected { reason; _ } ->
         check
           (Printf.sprintf "overload: unexpected rejection %s"
              (Serve.Job.reject_reason_to_string reason))
           false
       | _ -> ())
    r_over.Serve.Scheduler.r_jobs;

  Printf.printf "\nper-tenant SLOs of the loss variant:\n";
  Format.printf "%a@?" Serve.Slo.pp (Serve.Scheduler.tenants r_loss);
  (match !trace_path with
   | Some file ->
     Serve.Strace.write ~file r_loss;
     Printf.printf "[serve scheduler trace written to %s]\n%!" file
   | None -> ());
  Printf.printf "%s\n" (line 86);
  if !violations > 0 then begin
    Printf.printf "SERVE CAMPAIGN FAILED: %d gate violation(s)\n\n" !violations;
    campaign_failed := true
  end
  else
    Printf.printf
      "serve campaign passed: every job typed, completed outputs \
       bit-identical,\npoison quarantined, losses absorbed, overload \
       rejected with backpressure\n\n"

(* ------------------------------------------------------------------ *)
(* Autotune campaign: the cost-driven partition autotuner, gated      *)
(* ------------------------------------------------------------------ *)

(* Four hard gates (any violation exits 1 once the campaign has finished):

   A  bit-identity: autotuned functional runs reproduce the CPU oracle
      on every app at 4 devices, hotspot also at 16 — the fleet size
      where the tuner must *reject* a narrow plan on its decisiveness
      margin and engage halo tiling on the fixed bands instead;
   B  never slower: on every app and fleet size in {1,2,4,8,16}, the
      autotuned simulated time is at most the fixed-axis engine's.
      The scorer's hysteresis band and structure-change margin, plus
      the engine keeping the seed's transfer schedule when the winner
      is the fixed shape, exist exactly for this gate;
   C  halo speedup: on an iterated stencil deep and wide enough to
      amortize barriers (2048^2, 50 iterations, 4 GPUs), halo tiling
      beats the per-step fixed schedule by >= 1.3x simulated;
   D  halo bytes: on small iterated stencils the tuner's narrow plan
      moves strictly fewer steady-state p2p bytes per iteration
      (differenced between a 24- and an 8-iteration run, so one-time
      distribution traffic cancels).  At large n the 1-D conservation
      law holds — same G, same boundary rows, same bytes — so the
      gate probes the sizes where fewer devices win outright. *)
let run_autotunecampaign () =
  let compile prog =
    match Mekong.Toolchain.compile prog with
    | Ok a -> a
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let violations = ref 0 in
  let check ok what detail =
    Printf.printf "  %-4s %-28s %s\n%!"
      (if ok then "PASS" else "FAIL")
      what detail;
    if not ok then incr violations
  in
  let sim ?(functional = false) ~g ~autotune prog =
    let m =
      if functional then
        Gpusim.Machine.create ~functional:true
          (Gpusim.Config.k80_box ~n_devices:g ())
      else k80 g
    in
    let a = compile prog in
    let r = engine ~autotune ~machine:m a.Mekong.Toolchain.exe in
    if not functional then last_machine := Some m;
    r
  in
  Printf.printf "autotune campaign: %s\n%s\n" "cost-driven partition tuning"
    (line 72);
  Printf.printf "Gate A: autotuned functional runs vs CPU oracle\n";
  List.iter
    (fun (name, g, mk) ->
       let prog, out, cpu = mk () in
       ignore (sim ~functional:true ~g ~autotune:true prog);
       let ok = out = cpu () in
       check ok
         (Printf.sprintf "%s g=%d" name g)
         (if ok then "bit-identical" else "OUTPUT DIVERGED"))
    [
      ("matmul", 4, fun () -> Apps.Workloads.functional_matmul ~n:64);
      ( "hotspot", 4,
        fun () -> Apps.Workloads.functional_hotspot ~n:64 ~iterations:4 );
      ( "hotspot", 16,
        fun () -> Apps.Workloads.functional_hotspot ~n:64 ~iterations:4 );
      ( "nbody", 4,
        fun () -> Apps.Workloads.functional_nbody ~n:512 ~iterations:2 );
    ];
  Printf.printf "Gate B: autotuned never slower than the fixed axis\n";
  List.iter
    (fun (name, mk) ->
       List.iter
         (fun g ->
            let tf = (sim ~g ~autotune:false (mk ())).Mekong.Multi_gpu.time in
            let ta = (sim ~g ~autotune:true (mk ())).Mekong.Multi_gpu.time in
            let ok = ta <= tf *. 1.000001 in
            check ok
              (Printf.sprintf "%s g=%d" name g)
              (Printf.sprintf "fixed=%9.3fms auto=%9.3fms (%.3fx)"
                 (tf *. 1e3) (ta *. 1e3) (tf /. ta)))
         [ 1; 2; 4; 8; 16 ])
    [
      ( "hotspot",
        fun () ->
          Apps.Workloads.program ~iterations:20 Apps.Workloads.Hotspot_b
            Apps.Workloads.Small );
      ( "nbody",
        fun () ->
          Apps.Workloads.program ~iterations:4 Apps.Workloads.Nbody_b
            Apps.Workloads.Small );
      ( "matmul",
        fun () ->
          Apps.Workloads.program Apps.Workloads.Matmul_b Apps.Workloads.Small
      );
    ];
  let stencil n it =
    Apps.Hotspot.program_h ~n ~iterations:it
      ~init:(Host_ir.host_phantom (n * n))
      ~result:(Host_ir.host_phantom (n * n))
  in
  Printf.printf "Gate C: halo-tiled stencil speedup at 4 GPUs\n";
  let rf = sim ~g:4 ~autotune:false (stencil 2048 50) in
  let ra = sim ~g:4 ~autotune:true (stencil 2048 50) in
  let tf = rf.Mekong.Multi_gpu.time and ta = ra.Mekong.Multi_gpu.time in
  let spd = tf /. ta in
  let halo_steps = count ra "autotune.halo_steps" in
  check
    (halo_steps > 0 && spd >= 1.3)
    "hotspot n=2048 it=50 g=4"
    (Printf.sprintf
       "fixed=%9.3fms auto=%9.3fms speedup=%.2fx (gate 1.30x) halo_steps=%d"
       (tf *. 1e3) (ta *. 1e3) spd halo_steps);
  Printf.printf "Gate D: steady-state p2p bytes reduced on small stencils\n";
  List.iter
    (fun n ->
       let per_iter autotune =
         let bytes it =
           let r = sim ~g:4 ~autotune (stencil n it) in
           (Gpusim.Machine.stats r.Mekong.Multi_gpu.machine)
             .Gpusim.Machine.p2p_bytes
         in
         (bytes 24 - bytes 8) / 16
       in
       let bf = per_iter false and ba = per_iter true in
       check (ba < bf)
         (Printf.sprintf "hotspot n=%d g=4" n)
         (Printf.sprintf "per-iter p2p fixed=%dB auto=%dB" bf ba))
    [ 512; 1024 ];
  Printf.printf "%s\n" (line 72);
  if !violations > 0 then begin
    Printf.printf "AUTOTUNE CAMPAIGN FAILED: %d gate violation(s)\n\n"
      !violations;
    campaign_failed := true
  end
  else
    Printf.printf
      "autotune campaign passed: bit-identical everywhere, never slower \
       than\nthe fixed axis, halo tiling %.2fx on the deep stencil, \
       narrow plans\nmove fewer steady-state bytes\n\n"
      spd

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

(* Run one campaign on a fresh registry (so an `all` run yields
   per-campaign totals), then write the --trace output. *)
let run_campaign name f =
  Obs.Metrics.reset campaign;
  last_machine := None;
  Obs.Span.reset ();
  f ();
  match (!trace_path, !last_machine) with
  | Some file, Some m ->
    let critpath =
      Option.map Obs.Causal.analyze (Gpusim.Machine.causal_dag m)
    in
    Gpusim.Trace_export.write ~spans:(Obs.Span.records ()) ?critpath ~file m;
    Printf.printf "[%s trace written to %s]\n%!" name file
  | _ -> ()

let campaigns =
  [
    ("table1", run_table1);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("overhead1", run_overhead1);
    ("compile", run_compile);
    ("ablation", run_ablation);
    ("cache", run_cachebench);
    ("faults", run_faultcampaign);
    ("mem", run_memcampaign);
    ("exec", run_exec);
    ("overlap", run_overlapcampaign);
    ("serve", run_servecampaign);
    ("autotune", run_autotunecampaign);
    ("micro", run_micro);
  ]

let usage =
  String.concat "|" (List.map fst campaigns)
  ^ "|all [--faults SEED,RATE[,DEV@TIME...]] [--mem-cap BYTES] \
     [--topology flat|islands:SIZE,LINK_GBS,UPLINK_GBS] [--repeat N] \
     [--domains N] [--trace PATH]"

(* Bad input exits 2 with one line on stderr, like a bad flag. *)
let die msg =
  Printf.printf "%!";
  Printf.eprintf "bench: %s\n" msg;
  exit 2

let () =
  let int_flag flag v rest k =
    match int_of_string_opt v with
    | Some n when n >= 1 -> k n rest
    | _ -> die (Printf.sprintf "%s needs a positive integer, got %S" flag v)
  in
  let rec parse acc = function
    | "--faults" :: spec :: rest ->
      (match Gpusim.Faults.spec_of_string spec with
       | Ok s ->
         fault_spec := Some s;
         parse acc rest
       | Error e -> die (Printf.sprintf "bad --faults spec %S: %s" spec e))
    | "--mem-cap" :: v :: rest ->
      int_flag "--mem-cap" v rest (fun n rest ->
          mem_cap := Some n;
          parse acc rest)
    | "--topology" :: spec :: rest ->
      (match Gpusim.Config.topology_of_string spec with
       | Ok t ->
         topology := t;
         parse acc rest
       | Error e -> die (Printf.sprintf "bad --topology spec %S: %s" spec e))
    | "--repeat" :: v :: rest ->
      int_flag "--repeat" v rest (fun n rest ->
          repeat := n;
          parse acc rest)
    | "--domains" :: v :: rest ->
      int_flag "--domains" v rest (fun n rest ->
          (try Gpu_runtime.Dpool.set_default_domains n
           with Invalid_argument msg -> die msg);
          parse acc rest)
    | "--trace" :: path :: rest ->
      trace_path := Some path;
      Obs.Span.set_clock Unix.gettimeofday;
      Obs.Span.set_enabled true;
      parse acc rest
    | [ ("--faults" | "--mem-cap" | "--topology" | "--repeat" | "--domains"
        | "--trace") as flag ]
      ->
      die (flag ^ " needs an argument")
    | a :: rest -> parse (a :: acc) rest
    | [] -> List.rev acc
  in
  let which =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> "all"
    | [ w ] -> w
    | _ -> die ("usage: " ^ usage)
  in
  let selected =
    match which with
    | "all" -> campaigns
    | name ->
      (match List.assoc_opt name campaigns with
       | Some f -> [ (name, f) ]
       | None -> die (Printf.sprintf "unknown experiment %s (%s)" name usage))
  in
  (* An infeasible --mem-cap, a bad $MEKONG_DOMAINS or a program the
     toolchain rejects surface as Failure / Invalid_argument. *)
  (try List.iter (fun (name, f) -> run_campaign name f) selected with
   | Failure msg | Invalid_argument msg -> die msg);
  if !campaign_failed then exit 1
