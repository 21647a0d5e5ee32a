(* mekongc: command-line driver for the partitioning toolchain.

   Operates on the built-in demo applications (the paper's benchmarks),
   since kernels live in the embedded IR rather than in CUDA C++ files:

     mekongc analyze  <app|f>    causal critical-path and what-if
                                 bottleneck analysis of a run (or of a
                                 DAG dumped by --dump-dag)
     mekongc poly     <app>      print the polyhedral application model
     mekongc rewrite  <app>      print the rewritten multi-GPU host source
     mekongc kernels  <app>      print original and partitioned kernel IR
     mekongc run      <app>      compile and run on N simulated GPUs
     mekongc verify   <app>      data-race verdict per kernel (witnesses
                                 for races; exit 0 safe/reducible,
                                 2 racy, 3 unknown)
     mekongc plan     <app>      print the autotuner's candidate plans
     mekongc serve               run a multi-tenant serving campaign
     mekongc profile  <app>      run with full observability and report
     mekongc check-trace <f>     validate a Chrome trace-event file
     mekongc model    <app> -o F save the application model to a file
     mekongc compile-file <f.cu> parse a toy .cu file, compile it and
                                 run it on N simulated GPUs

   apps: vecadd, hotspot, nbody, matmul, spmv, histogram, dot, racy *)

open Cmdliner

(* Deliberately racy demo app: every thread reads a[0] while thread 0
   overwrites it, so distinct blocks conflict and no reduction
   operator explains the collision.  `mekongc verify racy` prints the
   concrete witness pair and exits 2. *)
let racy_program () =
  let kernel =
    let open Kir in
    let n = p "n" in
    let gi = v "gi" in
    Kir.kernel ~name:"racy"
      ~params:[ Scalar "n"; Array { name = "a"; dims = [| Dim_param "n" |] } ]
      [
        Local ("gi", global_id Dim3.X);
        If (gi < n, [ store "a" [ gi ] (load "a" [ i 0 ] + f 1.0) ], []);
      ]
  in
  let n = 4096 in
  let a = Array.init n float_of_int in
  Host_ir.program ~name:"racy"
    [
      Host_ir.Malloc ("a", n);
      Host_ir.Memcpy_h2d { dst = "a"; src = Host_ir.host_data a };
      Host_ir.Launch
        {
          kernel;
          grid = Dim3.make ((n + 127) / 128);
          block = Dim3.make 128;
          args = [ Host_ir.HInt n; Host_ir.HBuf "a" ];
        };
      Host_ir.Memcpy_d2h { dst = Host_ir.host_data (Array.make n nan); src = "a" };
      Host_ir.Free "a";
    ]

let apps =
  [
    ("vecadd", fun () -> let p, _, _ = Apps.Workloads.functional_vecadd ~n:4096 in p);
    ("hotspot", fun () -> let p, _, _ = Apps.Workloads.functional_hotspot ~n:128 ~iterations:4 in p);
    ("nbody", fun () -> let p, _, _ = Apps.Workloads.functional_nbody ~n:512 ~iterations:2 in p);
    ("matmul", fun () -> let p, _, _ = Apps.Workloads.functional_matmul ~n:64 in p);
    ("spmv",
     fun () ->
       let m = Apps.Spmv.banded ~n:256 ~band:5 in
       let x = Array.make 256 1.0 in
       let result = Array.make 256 nan in
       Apps.Spmv.program ~m ~x ~result);
    ("histogram",
     fun () ->
       let p, _, _ = Apps.Workloads.functional_histogram ~n:4096 ~nbins:97 in
       p);
    ("dot", fun () -> let p, _, _ = Apps.Workloads.functional_dot ~n:4096 in p);
    ("racy", fun () -> racy_program ());
  ]

let app_arg =
  let conv_app =
    Arg.enum (List.map (fun (n, f) -> (n, (n, f))) apps)
  in
  Arg.(required & pos 0 (some conv_app) None & info [] ~docv:"APP")

(* All user-facing failures (parse, compile/link, IO) leave through
   here: one-line diagnostic on stderr, exit code 2.  Exit 2 is
   reserved for "the input was bad", distinct from cmdliner's own CLI
   errors (124/125). *)
let die fmt =
  Printf.ksprintf
    (fun msg ->
       Printf.eprintf "mekongc: %s\n" msg;
       exit 2)
    fmt

let compile_app (name, mk) =
  match Mekong.Toolchain.compile (mk ()) with
  | Ok a -> a
  | Error e -> die "%s: %s" name (Mekong.Toolchain.error_message e)

let poly_cmd =
  let run app =
    let artifacts = compile_app app in
    List.iter
      (fun (km : Mekong.Model.kernel_model) ->
         Printf.printf "kernel %s: partition along %s\n" km.Mekong.Model.kname
           (Dim3.axis_name km.Mekong.Model.strategy);
         List.iter
           (fun (am : Mekong.Model.array_model) ->
              Printf.printf "  array %s (rank %d): %s%s\n" am.Mekong.Model.arr
                (Array.length am.Mekong.Model.dims)
                (if am.Mekong.Model.read <> None then
                   if am.Mekong.Model.read_exact then "read " else "read(approx) "
                 else "")
                (if am.Mekong.Model.write <> None then "write" else ""))
           km.Mekong.Model.arrays;
         print_newline ())
      artifacts.Mekong.Toolchain.model.Mekong.Model.kernels;
    print_endline "--- model (s-expression) ---";
    print_endline (Mekong.Model.to_string artifacts.Mekong.Toolchain.model)
  in
  Cmd.v (Cmd.info "poly" ~doc:"print the polyhedral application model")
    Term.(const run $ app_arg)

let rewrite_cmd =
  let run app =
    let artifacts = compile_app app in
    print_endline artifacts.Mekong.Toolchain.rewritten_source
  in
  Cmd.v (Cmd.info "rewrite" ~doc:"print the rewritten multi-GPU host source")
    Term.(const run $ app_arg)

let kernels_cmd =
  let run app =
    let artifacts = compile_app app in
    List.iter
      (fun k ->
         print_endline "=== original kernel ===";
         print_string (Kir.to_string k);
         print_endline "=== partitioned kernel (Eq. 8-10 applied) ===";
         print_string (Kir.to_string (Mekong.Partition.transform_kernel k)))
      (Host_ir.kernels artifacts.Mekong.Toolchain.exe.Mekong.Multi_gpu.prog)
  in
  Cmd.v (Cmd.info "kernels" ~doc:"print original and partitioned kernel IR")
    Term.(const run $ app_arg)

(* Validated as the command line is evaluated, for every subcommand
   that takes it: a non-positive device count is a user error. *)
let gpus_arg =
  let positive g =
    if g < 1 then die "--gpus must be a positive integer (got %d)" g;
    g
  in
  Term.(
    const positive
    $ Arg.(value & opt int 4 & info [ "gpus"; "g" ] ~docv:"N" ~doc:"simulated GPUs"))

let faults_arg =
  let conv_spec =
    let parse s =
      match Gpusim.Faults.spec_of_string s with
      | Ok spec -> Ok spec
      | Error e -> Error (`Msg e)
    in
    let print fmt (s : Gpusim.Faults.spec) =
      Format.fprintf fmt "%d,%g" s.Gpusim.Faults.seed
        s.Gpusim.Faults.kernel_fault_rate
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some conv_spec) None
    & info [ "faults" ] ~docv:"SEED,RATE[,DEV@TIME...]"
        ~doc:
          "inject seeded faults into the simulated machine; the engine \
           self-heals (retry, re-partition, replay) and reports what it did")

(* Attach a --faults spec to a machine.  A scheduled loss of a device
   the machine does not have could never fire, so it is a user error,
   not a silently fault-free run. *)
let inject_faults machine faults =
  match faults with
  | None -> ()
  | Some spec -> (
      let n_devices = Gpusim.Machine.n_devices machine in
      (match Gpusim.Faults.check_devices spec ~n_devices with
       | Ok () -> ()
       | Error e -> die "--faults %s" e);
      if not (Gpusim.Faults.is_null spec) then
        Gpusim.Machine.inject_faults machine (Gpusim.Faults.create spec))

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "size of the domain pool (host OS threads) that splits race-free \
           kernels' blocks; 1 forces sequential execution (default: \
           \\$MEKONG_DOMAINS, else the machine's recommended domain count)")

(* Validated before it reaches the pool: a non-positive count, from
   --domains or $MEKONG_DOMAINS, is a user error (one-line diagnostic,
   exit 2), not an internal one. *)
let set_domains domains =
  let limit = Gpu_runtime.Dpool.max_domains in
  match domains with
  | Some d when d < 1 -> die "--domains must be a positive integer (got %d)" d
  | Some d when d > limit ->
    die "--domains must be at most %d, the OCaml runtime's domain limit (got %d)"
      limit d
  | Some d -> Gpu_runtime.Dpool.set_default_domains d
  | None -> (
      try ignore (Gpu_runtime.Dpool.default_domains ())
      with Invalid_argument msg -> die "%s" msg)

(* Observability is off by default (the instrumentation points cost
   one load-and-branch); --trace and the profile subcommand switch it
   on and give spans the real wall clock. *)
let enable_observability () =
  Obs.Span.set_clock Unix.gettimeofday;
  Obs.Span.set_enabled true

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "write a Chrome trace-event JSON of the simulated run (open in \
           Perfetto or chrome://tracing); also enables span recording")

let overlap_arg =
  Arg.(
    value & flag
    & info [ "overlap" ]
        ~doc:
          "overlap compute and communication: drop the host barrier between \
           the read exchange and the partition launches (results stay \
           bit-identical; only simulated time changes)")

let topology_arg =
  let conv_topo =
    let parse s =
      match Gpusim.Config.topology_of_string s with
      | Ok t -> Ok t
      | Error e -> Error (`Msg e)
    in
    let print fmt t =
      Format.pp_print_string fmt (Gpusim.Config.topology_to_string t)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt conv_topo Gpusim.Config.Flat
    & info [ "topology" ] ~docv:"flat|islands:SIZE,LINK_GBS,UPLINK_GBS"
        ~doc:
          "fabric topology: $(b,flat) (single shared PCIe bus, the default) \
           or $(b,islands:SIZE,LINK_GBS,UPLINK_GBS) (NVLink-style islands of \
           SIZE devices with a LINK_GBS GB/s intra-island link each and a \
           host uplink per island at UPLINK_GBS GB/s)")

(* Validated like --gpus: a non-positive capacity is a user error. *)
let mem_cap_arg =
  let positive = function
    | Some c when c <= 0 -> die "--mem-cap must be positive (got %d)" c
    | cap -> cap
  in
  Term.(
    const positive
    $ Arg.(
        value
        & opt (some int) None
        & info [ "mem-cap" ] ~docv:"BYTES"
            ~doc:
              "per-device memory capacity in bytes (default: unlimited); \
               the engine spills cold segments to the host and chunks \
               launches that do not fit, and exits with code 2 and a \
               one-line diagnostic when no chunking fits"))

let autotune_arg =
  Arg.(
    value & flag
    & info [ "autotune" ]
        ~doc:
          "replace the fixed partitioning strategy with the cost-driven \
           per-launch search (1-D on every viable axis, 2-D tile grids, \
           throughput-proportional uneven splits, fewer-device splits) and \
           halo-tile eligible double-buffered stencil loops; results stay \
           bit-identical, only the schedule changes")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain-plan" ]
        ~doc:
          "before running, print every candidate partition plan the \
           autotuner scored per kernel — predicted compute/transfer/host \
           costs, cross-device bytes, halo depth — with the winner marked")

let speeds_arg =
  Arg.(
    value
    & opt (some (list float)) None
    & info [ "speeds" ] ~docv:"S1,S2,..."
        ~doc:
          "relative per-device throughputs for a heterogeneous fleet (one \
           value per GPU, 1.0 = nominal); the autotuner's weighted \
           candidates split work proportionally")

let device_speeds_of ~gpus speeds =
  match speeds with
  | None -> None
  | Some l ->
    if List.length l <> gpus then
      die "--speeds needs exactly %d values (got %d)" gpus (List.length l);
    if List.exists (fun v -> not (v > 0.0 && Float.is_finite v)) l then
      die "--speeds values must be finite and positive";
    Some (Array.of_list l)

let print_choices choices =
  List.iter
    (fun (ch : Mekong.Autotune.choice) ->
       Format.printf "kernel %s  grid %a  block %a  (%d raw ranges searched)@."
         ch.Mekong.Autotune.c_kernel Dim3.pp ch.Mekong.Autotune.c_grid Dim3.pp
         ch.Mekong.Autotune.c_block ch.Mekong.Autotune.c_raw_ranges;
       List.iter
         (fun c ->
            Format.printf "  %s %a@."
              (if c == ch.Mekong.Autotune.c_winner then "*" else " ")
              Mekong.Autotune.pp_candidate c)
         ch.Mekong.Autotune.c_candidates)
    choices

let run_cmd =
  let run app gpus faults domains trace mem_cap overlap topology autotune
      explain speeds =
    let device_speeds = device_speeds_of ~gpus speeds in
    set_domains domains;
    if trace <> None then enable_observability ();
    let artifacts = compile_app app in
    let cfg =
      Gpusim.Config.k80_box ~n_devices:gpus ?mem_capacity:mem_cap ~topology
        ?device_speeds ()
    in
    if explain then print_choices (Mekong.Toolchain.explain_plans ~cfg artifacts);
    let machine = Gpusim.Machine.create ~functional:true cfg in
    if trace <> None then begin
      Gpusim.Machine.enable_trace machine;
      (* Causal recording rides along so the exported trace carries
         the critical-path lane. *)
      Gpusim.Machine.enable_causal machine
    end;
    inject_faults machine faults;
    let res =
      Mekong.Multi_gpu.run ~overlap ~autotune ~machine
        artifacts.Mekong.Toolchain.exe
    in
    let stats = Gpusim.Machine.stats machine in
    Printf.printf "%s on %d GPUs: %.3f ms simulated\n" (fst app) gpus
      (res.Mekong.Multi_gpu.time *. 1e3);
    Format.printf "%a@." Gpusim.Machine.pp_stats stats;
    let only cond line = if cond then [ line ] else [] in
    Mekong.Multi_gpu.(
      pp_report
        ([ Plan_cache; Executor; Gate ]
         @ only (Gpusim.Machine.fault_state machine <> None) Faults
         @ only (mem_cap <> None) Memory
         @ only autotune Autotune)
        Format.std_formatter res.metrics);
    match trace with
    | Some file ->
      let critpath =
        Option.map Obs.Causal.analyze (Gpusim.Machine.causal_dag machine)
      in
      Gpusim.Trace_export.write ~spans:(Obs.Span.records ()) ?critpath ~file
        machine;
      Printf.printf "trace written to %s\n" file
    | None -> ()
  in
  Cmd.v (Cmd.info "run" ~doc:"compile and run on simulated GPUs")
    Term.(
      const run $ app_arg $ gpus_arg $ faults_arg $ domains_arg $ trace_arg
      $ mem_cap_arg $ overlap_arg $ topology_arg $ autotune_arg $ explain_arg
      $ speeds_arg)

(* Static race verdicts, one line per kernel.  Exit codes are part of
   the contract (CI scripts assert them): 0 when every kernel is safe
   or reducible, 2 when any kernel is racy (witnesses printed in the
   verdict line), 3 when any verdict is unknown.  Uses pass 1 only:
   racy kernels must still get their witnesses printed, and the full
   pipeline's link step refuses atomic kernels that are neither safe
   nor reducible. *)
let verify_cmd =
  let run (name, mk) =
    let prog = mk () in
    let model =
      match Mekong.Toolchain.pass1 ~instrument_writes:true prog with
      | Ok (m, _) -> m
      | Error e -> die "%s: %s" name (Mekong.Toolchain.error_message e)
    in
    let racy = ref false and unknown = ref false in
    List.iter
      (fun (kernel : Kir.t) ->
         let km = Mekong.Model.find_exn model kernel.Kir.name in
         let verdict = Mekong.Verify.verify ~kernel km in
         Printf.printf "%s: %s\n" kernel.Kir.name
           (Mekong.Verify.verdict_to_string verdict);
         match verdict with
         | Mekong.Verify.Racy _ -> racy := true
         | Mekong.Verify.Unknown _ -> unknown := true
         | Mekong.Verify.Safe | Mekong.Verify.Reducible _ -> ())
      (Host_ir.kernels prog);
    if !racy then exit 2 else if !unknown then exit 3
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"prove kernels race-free or print concrete race witnesses")
    Term.(const run $ app_arg)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"emit the report as JSON")

let plan_cmd =
  let run app gpus topology speeds json =
    let device_speeds = device_speeds_of ~gpus speeds in
    let artifacts = compile_app app in
    let cfg =
      try Gpusim.Config.k80_box ~n_devices:gpus ~topology ?device_speeds ()
      with Invalid_argument m -> die "%s" m
    in
    if json then
      print_endline
        ("["
         ^ String.concat ","
             (List.map Mekong.Autotune.choice_json
                (Mekong.Toolchain.explain_plans ~cfg artifacts))
         ^ "]")
    else begin
      let launches = Mekong.Toolchain.launch_steps ~cfg artifacts in
      Printf.printf "%s: %d launch shape(s) on %d GPUs (%s)\n" (fst app)
        (List.length launches) gpus
        (Gpusim.Config.topology_to_string topology);
      List.iter
        (fun (choice, steps) ->
           print_choices [ choice ];
           print_endline "  steps:";
           String.split_on_char '\n' (Mekong.Plan.to_string steps)
           |> List.iter (Printf.printf "    %s\n"))
        launches
    end
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "print the autotuner's candidate partition plans per kernel launch \
          — predicted compute/transfer/host costs, cross-device bytes and \
          halo depth for each candidate — with the chosen winner marked, \
          then the engine steps the winner runs")
    Term.(
      const run $ app_arg $ gpus_arg $ topology_arg $ speeds_arg $ json_flag)

let serve_cmd =
  let jobs_arg =
    Arg.(value & opt int 40 & info [ "jobs" ] ~docv:"N" ~doc:"jobs in the mix")
  in
  let tenants_arg =
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"N" ~doc:"tenants")
  in
  let poison_arg =
    Arg.(
      value & opt int 0
      & info [ "poison" ] ~docv:"N"
          ~doc:"poison jobs (always-faulting kernels) spread through the mix")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"mix seed")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N" ~doc:"bounded pending-queue limit")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"per-job turnaround deadline in simulated seconds")
  in
  let lose_arg =
    Arg.(
      value
      & opt (list (pair ~sep:'@' int float)) []
      & info [ "lose" ] ~docv:"DEV@TIME[,DEV@TIME...]"
          ~doc:
            "permanently lose fleet device DEV at simulated time TIME; \
             in-flight jobs preempt into a checkpoint handoff, re-queue \
             and re-admit onto the surviving devices")
  in
  let analyze_flag =
    Arg.(
      value & flag
      & info [ "analyze" ]
          ~doc:
            "append a causal critical-path analysis of the scheduler run: \
             time attribution across queue wait, lease occupancy and \
             requeue stalls")
  in
  let run gpus jobs tenants poison seed max_queue mem_cap deadline losses
      domains json trace analyze =
    set_domains domains;
    let built =
      try Serve.Mix.generate ~seed ~tenants ~poison ?deadline ~jobs ()
      with Invalid_argument m -> die "%s" m
    in
    let fleet =
      Gpusim.Config.k80_box ~n_devices:gpus ?mem_capacity:mem_cap ()
    in
    let cfg =
      try Serve.Scheduler.config ~max_queue ~losses fleet
      with Invalid_argument m -> die "%s" m
    in
    let r =
      Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)
    in
    Serve.Scheduler.publish_metrics r;
    if json then
      print_endline (Obs.Json.to_string (Serve.Scheduler.report_to_json r))
    else Format.printf "%a@?" Serve.Scheduler.pp r;
    if analyze then begin
      let an = Obs.Causal.analyze (Serve.Scheduler.causal_dag r) in
      if json then
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ( "makespan_seconds",
                    Obs.Json.Float an.Obs.Causal.an_makespan );
                  ( "by_category",
                    Obs.Json.Obj
                      (List.map
                         (fun (c, s) -> (c, Obs.Json.Float s))
                         an.Obs.Causal.an_by_category) );
                ]))
      else begin
        Printf.printf "\ncritical path (%.6f s makespan)\n"
          an.Obs.Causal.an_makespan;
        List.iter
          (fun (cat, s) ->
             Printf.printf "  %-14s %12.6f s %6.1f%%\n" cat s
               (if an.Obs.Causal.an_makespan > 0.0 then
                  100.0 *. s /. an.Obs.Causal.an_makespan
                else 0.0))
          an.Obs.Causal.an_by_category
      end
    end;
    match trace with
    | Some file ->
      Serve.Strace.write ~file r;
      if not json then Printf.printf "scheduler trace written to %s\n" file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "run a multi-tenant serving campaign: a seeded mix of jobs through \
          the admission-controlled scheduler, with optional deadlines, \
          poison jobs and permanent device losses")
    Term.(
      const run $ gpus_arg $ jobs_arg $ tenants_arg $ poison_arg $ seed_arg
      $ max_queue_arg $ mem_cap_arg $ deadline_arg $ lose_arg $ domains_arg
      $ json_flag $ trace_arg $ analyze_flag)

let profile_cmd =
  let run app gpus faults domains json trace overlap topology =
    set_domains domains;
    enable_observability ();
    let artifacts = compile_app app in
    let machine =
      Gpusim.Machine.create ~functional:true
        (Gpusim.Config.k80_box ~n_devices:gpus ~topology ())
    in
    Gpusim.Machine.enable_trace machine;
    (* The profile always records causally: its report carries the
       critpath.* counters and the obs.dropped.* warning. *)
    Gpusim.Machine.enable_causal machine;
    inject_faults machine faults;
    let res =
      Mekong.Multi_gpu.run ~overlap ~machine
        artifacts.Mekong.Toolchain.exe
    in
    let report = Mekong.Profile.collect ~result:res machine in
    if json then
      print_endline (Obs.Json.to_string (Obs.Report.to_json report))
    else begin
      Printf.printf "%s on %d GPUs\n" (fst app) gpus;
      print_string (Obs.Report.to_string report)
    end;
    match trace with
    | Some file ->
      let critpath =
        Option.map Obs.Causal.analyze (Gpusim.Machine.causal_dag machine)
      in
      Gpusim.Trace_export.write ~spans:(Obs.Span.records ()) ?critpath ~file
        machine;
      if not json then Printf.printf "trace written to %s\n" file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "run with full observability: per-device utilization, the (src, \
          dst) byte matrix, counters and span summary")
    Term.(
      const run $ app_arg $ gpus_arg $ faults_arg $ domains_arg $ json_flag
      $ trace_arg $ overlap_arg $ topology_arg)

(* mekongc analyze: causal critical-path analysis and what-if
   bottleneck modeling.  The positional argument is either a built-in
   app (compile + run with causal recording on) or a path to a DAG
   previously saved with --dump-dag (re-analyze offline, no run). *)
let analyze_cmd =
  let target_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"APP|DAG.json"
          ~doc:"built-in app to run, or a causal DAG file to re-analyze")
  in
  let what_if_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "what-if" ] ~docv:"CAT[:FACTOR]"
          ~doc:
            "predict the makespan with category $(docv)'s cost multiplied \
             by FACTOR (default 0, i.e. removed): bandwidth-like categories \
             (h2d, d2h, p2p, spill, xfer) rescale transfer variable time \
             plus link occupancy, \"link\" rescales only contention, \
             anything else rescales full durations")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dag" ] ~docv:"FILE"
          ~doc:"save the causal DAG as JSON for offline re-analysis")
  in
  let parse_what_if spec =
    match String.index_opt spec ':' with
    | None -> (spec, 0.0)
    | Some i ->
      let cat = String.sub spec 0 i in
      let f = String.sub spec (i + 1) (String.length spec - i - 1) in
      (match float_of_string_opt f with
       | Some factor when factor >= 0.0 -> (cat, factor)
       | _ -> die "--what-if factor must be a non-negative number (got %S)" f)
  in
  let load_dag file =
    let src =
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Obs.Json.parse src with
    | Error e -> die "%s is not valid JSON: %s" file e
    | Ok j -> (
        match Obs.Causal.of_json j with
        | Ok dag -> dag
        | Error e -> die "%s is not a causal DAG dump: %s" file e)
  in
  let run target gpus faults domains trace mem_cap overlap topology autotune
      what_if_opt dump json =
    let dag, machine =
      match List.assoc_opt target apps with
      | Some mk ->
        set_domains domains;
        if trace <> None then enable_observability ();
        let artifacts = compile_app (target, mk) in
        let cfg =
          Gpusim.Config.k80_box ~n_devices:gpus ?mem_capacity:mem_cap
            ~topology ()
        in
        let machine = Gpusim.Machine.create ~functional:true cfg in
        Gpusim.Machine.enable_causal machine;
        if trace <> None then Gpusim.Machine.enable_trace machine;
        inject_faults machine faults;
        ignore
          (Mekong.Multi_gpu.run ~overlap ~autotune ~machine
             artifacts.Mekong.Toolchain.exe);
        (Option.get (Gpusim.Machine.causal_dag machine), Some machine)
      | None ->
        if Sys.file_exists target then (load_dag target, None)
        else
          die "unknown app or missing DAG file %S (apps: %s)" target
            (String.concat ", " (List.map fst apps))
    in
    let an = Obs.Causal.analyze dag in
    let what_if_rows =
      match what_if_opt with
      | Some spec ->
        let cat, factor = parse_what_if spec in
        (* A category neither [what_if] names nor any node carries
           would rescale nothing: reject it rather than report a
           misspelling as "no effect". *)
        let accepted =
          List.sort_uniq compare
            (("spill" :: Obs.Causal.what_if_categories)
             @ Array.to_list
                 (Array.map
                    (fun n -> n.Obs.Causal.n_category)
                    (Obs.Causal.nodes dag)))
        in
        if not (List.mem cat accepted) then
          die "--what-if category %S is unknown (accepted: %s)" cat
            (String.concat ", " accepted);
        [ (cat, factor, Obs.Causal.what_if dag ~category:cat ~factor) ]
      | None ->
        (* The standard sweep: each category removed outright, the
           upper bound of what fixing that bottleneck could buy. *)
        List.filter_map
          (fun cat ->
             if List.mem_assoc cat an.Obs.Causal.an_by_category then
               Some (cat, 0.0, Obs.Causal.what_if dag ~category:cat ~factor:0.0)
             else None)
          Obs.Causal.what_if_categories
    in
    (match dump with
     | Some file ->
       Obs.Json.write ~file (Obs.Causal.to_json dag);
       if not json then Printf.printf "causal DAG written to %s\n" file
     | None -> ());
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("target", Obs.Json.Str target);
                ("makespan_seconds", Obs.Json.Float an.Obs.Causal.an_makespan);
                ( "critical_path_seconds",
                  Obs.Json.Float (Obs.Causal.critical_path_length an) );
                ("replay_drift", Obs.Json.Float an.Obs.Causal.an_replay_drift);
                ("nodes", Obs.Json.Int an.Obs.Causal.an_nodes);
                ("dropped", Obs.Json.Int an.Obs.Causal.an_dropped);
                ( "by_category",
                  Obs.Json.Obj
                    (List.map
                       (fun (c, s) -> (c, Obs.Json.Float s))
                       an.Obs.Causal.an_by_category) );
                ( "what_if",
                  Obs.Json.List
                    (List.map
                       (fun (cat, factor, predicted) ->
                          Obs.Json.Obj
                            [
                              ("category", Obs.Json.Str cat);
                              ("factor", Obs.Json.Float factor);
                              ("predicted_seconds", Obs.Json.Float predicted);
                            ])
                       what_if_rows) );
              ]))
    else begin
      Printf.printf "causal analysis: %s (%d nodes, makespan %.6f s)\n" target
        an.Obs.Causal.an_nodes an.Obs.Causal.an_makespan;
      Printf.printf
        "critical path: %.6f s attributed (identity-replay drift %.2f%%)\n\n"
        (Obs.Causal.critical_path_length an)
        (100.0 *. an.Obs.Causal.an_replay_drift);
      Printf.printf "%-16s %12s %8s\n" "category" "seconds" "share";
      List.iter
        (fun (cat, s) ->
           Printf.printf "%-16s %12.6f %7.1f%%\n" cat s
             (if an.Obs.Causal.an_makespan > 0.0 then
                100.0 *. s /. an.Obs.Causal.an_makespan
              else 0.0))
        an.Obs.Causal.an_by_category;
      if what_if_rows <> [] then begin
        Printf.printf "\nwhat-if (predicted makespan under rescaled cost)\n";
        List.iter
          (fun (cat, factor, predicted) ->
             Printf.printf "  %-12s x%-4g %12.6f s  (%+.1f%%)\n" cat factor
               predicted
               (if an.Obs.Causal.an_makespan > 0.0 then
                  100.0
                  *. (predicted -. an.Obs.Causal.an_makespan)
                  /. an.Obs.Causal.an_makespan
                else 0.0))
          what_if_rows
      end;
      if an.Obs.Causal.an_dropped > 0 then
        Printf.printf
          "\nWARNING: %d node(s) dropped from the causal DAG; the analysis \
           is INCOMPLETE\n"
          an.Obs.Causal.an_dropped
    end;
    match (trace, machine) with
    | Some file, Some m ->
      Gpusim.Trace_export.write ~spans:(Obs.Span.records ()) ~critpath:an
        ~file m;
      if not json then Printf.printf "trace written to %s\n" file
    | Some _, None -> die "--trace needs an app run, not a DAG file"
    | None, _ -> ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "causal critical-path analysis of a run: per-category time \
          attribution that sums exactly to the makespan, plus what-if \
          bottleneck modeling (predicted makespan with one cost category \
          rescaled or removed)")
    Term.(
      const run $ target_arg $ gpus_arg $ faults_arg $ domains_arg $ trace_arg
      $ mem_cap_arg $ overlap_arg $ topology_arg $ autotune_arg $ what_if_arg
      $ dump_arg $ json_flag)

let check_trace_cmd =
  let run file =
    match Obs.Chrome_trace.validate_file ~file with
    | Ok () -> Printf.printf "%s: valid Chrome trace\n" file
    | Error e -> die "%s: %s" file e
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE.json")
  in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:"validate a Chrome trace-event JSON file (schema + per-lane \
             timestamp monotonicity)")
    Term.(const run $ file_arg)

let out_arg =
  Arg.(value & opt string "model.sexp" & info [ "o" ] ~docv:"FILE" ~doc:"output file")

let model_cmd =
  let run app out =
    let artifacts = compile_app app in
    Mekong.Model.save artifacts.Mekong.Toolchain.model ~file:out;
    Printf.printf "model written to %s\n" out
  in
  Cmd.v (Cmd.info "model" ~doc:"save the application model to a file")
    Term.(const run $ app_arg $ out_arg)

let compile_file_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cu")
  in
  let run file gpus =
    let src =
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let kernels, prog =
      try Cuparse.parse_cu ~name:(Filename.remove_extension (Filename.basename file)) src
      with Cuparse.Error m -> die "parse error in %s: %s" file m
    in
    Printf.printf "parsed %d kernel(s) from %s\n" (List.length kernels) file;
    Ppoly.Work.reset ();
    match Mekong.Toolchain.compile prog with
    | Error e -> die "%s" (Mekong.Toolchain.error_message e)
    | Ok artifacts ->
      Printf.printf "polyhedral work: %s\n" (Ppoly.Work.to_string ());
      List.iter
        (fun (km : Mekong.Model.kernel_model) ->
           Printf.printf "kernel %s: partition along %s\n" km.Mekong.Model.kname
             (Dim3.axis_name km.Mekong.Model.strategy))
        artifacts.Mekong.Toolchain.model.Mekong.Model.kernels;
      (* host data is phantom (text carries no values): run in
         performance mode *)
      let machine =
        Gpusim.Machine.create ~functional:false
          (Gpusim.Config.k80_box ~n_devices:gpus ())
      in
      let res = Mekong.Multi_gpu.run ~machine artifacts.Mekong.Toolchain.exe in
      let stats = Gpusim.Machine.stats machine in
      Printf.printf "simulated on %d GPUs: %.3f ms\n" gpus
        (res.Mekong.Multi_gpu.time *. 1e3);
      Format.printf "%a@." Gpusim.Machine.pp_stats stats;
      Mekong.Multi_gpu.pp_report [ Plan_cache ] Format.std_formatter
        res.Mekong.Multi_gpu.metrics
  in
  Cmd.v
    (Cmd.info "compile-file" ~doc:"parse, compile and run a toy .cu file")
    Term.(const run $ file_arg $ gpus_arg)

let () =
  let info = Cmd.info "mekongc" ~doc:"automatic multi-GPU partitioning toolchain" in
  (* catch:false so failures reach our handlers instead of cmdliner's
     backtrace printer; anything not already routed through [die] (IO
     errors, internal invariant failures) gets the same one-line
     treatment here. *)
  try
    exit
      (Cmd.eval ~catch:false
         (Cmd.group info
            [ analyze_cmd; poly_cmd; rewrite_cmd; kernels_cmd; run_cmd;
              verify_cmd; plan_cmd; serve_cmd; profile_cmd; check_trace_cmd;
              model_cmd; compile_file_cmd ]))
  with
  | Sys_error m -> die "%s" m
  | Cuparse.Error m -> die "parse error: %s" m
  | Mekong.Multi_gpu.All_devices_lost ->
    die "all simulated devices were lost; no replica survives to recover from"
  | Failure m -> die "%s" m
  | Invalid_argument m -> die "internal error: %s" m
