(* Sanity net over the performance model: invariants the simulated
   timings must satisfy regardless of calibration — determinism, the
   alpha/beta/gamma ordering of §9.2, speedup bounds, and monotonicity
   properties the figures rely on. *)

let checkb = Alcotest.check Alcotest.bool

let artifacts bench size iters =
  let prog = Apps.Workloads.program ~iterations:iters bench size in
  match Mekong.Toolchain.compile prog with
  | Ok a -> a
  | Error e -> failwith (Mekong.Toolchain.error_message e)

let run ?cfg art g =
  let m =
    Gpusim.Machine.create ~functional:false
      (Gpusim.Config.k80_box ~n_devices:g ())
  in
  (Mekong.Multi_gpu.run ?cfg ~machine:m art.Mekong.Toolchain.exe)
    .Mekong.Multi_gpu.time

let reference bench size iters =
  let prog = Apps.Workloads.program ~iterations:iters bench size in
  let m =
    Gpusim.Machine.create ~functional:false
      (Gpusim.Config.k80_box ~n_devices:1 ())
  in
  (Single_gpu.run ~machine:m prog).Single_gpu.time

let benches =
  [
    (Apps.Workloads.Hotspot_b, 40, "hotspot");
    (Apps.Workloads.Nbody_b, 4, "nbody");
    (Apps.Workloads.Matmul_b, 1, "matmul");
  ]

let test_determinism () =
  List.iter
    (fun (b, iters, name) ->
       let art = artifacts b Apps.Workloads.Small iters in
       let t1 = run art 8 and t2 = run art 8 in
       checkb (name ^ " deterministic") true (t1 = t2))
    benches

let test_alpha_beta_gamma_order () =
  (* Disabling work can only shorten the simulated run:
     gamma <= beta <= alpha. *)
  List.iter
    (fun (b, iters, name) ->
       let art = artifacts b Apps.Workloads.Small iters in
       List.iter
         (fun g ->
            let a = run ~cfg:Gpu_runtime.Rconfig.alpha art g in
            let bt = run ~cfg:Gpu_runtime.Rconfig.beta art g in
            let c = run ~cfg:Gpu_runtime.Rconfig.gamma art g in
            checkb
              (Printf.sprintf "%s g=%d: gamma<=beta<=alpha (%g %g %g)" name g
                 c bt a)
              true
              (c <= bt +. 1e-12 && bt <= a +. 1e-12))
         [ 2; 8; 16 ])
    benches

let test_speedup_bounds () =
  (* Speedup on g devices can exceed neither g (no superlinearity in
     this model modulo boost: 1-active-die boost makes the reference
     FASTER, so the bound holds) nor fall below what a single device
     would give (adding devices to an alpha run never helps the model
     lie below 0). *)
  List.iter
    (fun (b, iters, name) ->
       let art = artifacts b Apps.Workloads.Small iters in
       let t_ref = reference b Apps.Workloads.Small iters in
       List.iter
         (fun g ->
            let t = run art g in
            let sp = t_ref /. t in
            checkb
              (Printf.sprintf "%s g=%d speedup %.2f within (0, %d]" name g sp g)
              true
              (sp > 0.0 && sp <= float_of_int g +. 1e-6))
         [ 1; 2; 4; 8; 16 ])
    benches

let test_partitioned_not_faster_than_reference_on_one () =
  (* On one device the partitioned binary can only add overhead. *)
  List.iter
    (fun (b, iters, name) ->
       let art = artifacts b Apps.Workloads.Small iters in
       let t_ref = reference b Apps.Workloads.Small iters in
       let t1 = run art 1 in
       checkb (name ^ " single-GPU overhead >= 0") true (t1 >= t_ref -. 1e-9))
    benches

let test_more_work_takes_longer () =
  (* Monotonicity in problem size and iteration count. *)
  let t_small = run (artifacts Apps.Workloads.Hotspot_b Apps.Workloads.Small 20) 8 in
  let t_medium = run (artifacts Apps.Workloads.Hotspot_b Apps.Workloads.Medium 20) 8 in
  checkb "medium > small" true (t_medium > t_small);
  let t10 = run (artifacts Apps.Workloads.Hotspot_b Apps.Workloads.Small 10) 8 in
  let t40 = run (artifacts Apps.Workloads.Hotspot_b Apps.Workloads.Small 40) 8 in
  checkb "more iterations take longer" true (t40 > t10)

let test_transfers_grow_with_devices () =
  (* Figure 7's mechanism: the transfer fraction grows with the device
     count. *)
  let art = artifacts Apps.Workloads.Hotspot_b Apps.Workloads.Small 40 in
  let frac g =
    let a = run ~cfg:Gpu_runtime.Rconfig.alpha art g in
    let b = run ~cfg:Gpu_runtime.Rconfig.beta art g in
    (a -. b) /. a
  in
  checkb "transfer fraction grows 2 -> 16" true (frac 16 > frac 2)

let test_stats_consistency () =
  (* Byte counters match what the workloads move. *)
  let n = Apps.Workloads.problem_size Apps.Workloads.Matmul_b Apps.Workloads.Small in
  let art = artifacts Apps.Workloads.Matmul_b Apps.Workloads.Small 1 in
  let m =
    Gpusim.Machine.create ~functional:false
      (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  ignore (Mekong.Multi_gpu.run ~machine:m art.Mekong.Toolchain.exe);
  let s = Gpusim.Machine.stats m in
  (* h2d: A and B fully uploaded once *)
  Alcotest.(check int) "h2d bytes" (2 * n * n * 4) s.Gpusim.Machine.h2d_bytes;
  (* d2h: C fully downloaded once *)
  Alcotest.(check int) "d2h bytes" (n * n * 4) s.Gpusim.Machine.d2h_bytes;
  (* p2p: the B all-gather moves 3/4 of B (n*n*4 bytes) to each of the
     4 devices = 12*n*n bytes; A rows match the linear distribution
     exactly at this size, so nothing else moves. *)
  Alcotest.(check int) "p2p = B all-gather" (3 * n * n * 4)
    s.Gpusim.Machine.p2p_bytes

(* ---------------- Autotuner cost model ---------------- *)

let qtest t = QCheck_alcotest.to_alcotest t

let choices_of ~cfg prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> Mekong.Toolchain.explain_plans ~cfg a
  | Error e -> failwith (Mekong.Toolchain.error_message e)

let candidate (ch : Mekong.Autotune.choice) name =
  match
    List.find_opt
      (fun (c : Mekong.Autotune.candidate) ->
         Mekong.Autotune.shape_name c.Mekong.Autotune.shape = name)
      ch.Mekong.Autotune.c_candidates
  with
  | Some c -> c
  | None ->
    Alcotest.failf "no candidate %s for kernel %s" name
      ch.Mekong.Autotune.c_kernel

(* Hand-computed steady-state cross-device footprints on 4 devices.

   matmul n=64, 1-D over rows: every device reads all of B but homes
   only its linear quarter, so the per-launch exchange is the B
   all-gather: 4 * (3/4 * n^2) elements = 3 n^2 * 4 bytes.  A rows and
   C tiles match the distribution exactly and move nothing.

   hotspot n=128, 1-D over rows: each of the 3 interior cuts exchanges
   one halo row in each direction: 2 * 3 * n elements * 4 bytes. *)
let test_autotune_cost_cases () =
  let cfg = Gpusim.Config.k80_box ~n_devices:4 () in
  (* matmul *)
  let prog, _, _ = Apps.Workloads.functional_matmul ~n:64 in
  (match choices_of ~cfg prog with
   | [ ch ] ->
     let fixed = candidate ch "fixed-1d-y" in
     Alcotest.(check int) "matmul 1-D bytes = B all-gather" (3 * 64 * 64 * 4)
       fixed.Mekong.Autotune.cross_bytes;
     let two_d = candidate ch "2d-yx" in
     checkb "matmul 2-D moves fewer bytes than 1-D" true
       (two_d.Mekong.Autotune.cross_bytes < fixed.Mekong.Autotune.cross_bytes);
     (* ...but per-row range emission makes 2-D lose on this host. *)
     checkb "matmul 2-D host cost dominates" true
       (two_d.Mekong.Autotune.host_s > fixed.Mekong.Autotune.host_s);
     checkb "winner never scores above fixed" true
       (ch.Mekong.Autotune.c_winner.Mekong.Autotune.score
        <= fixed.Mekong.Autotune.score)
   | l -> Alcotest.failf "matmul: expected 1 choice, got %d" (List.length l));
  (* hotspot *)
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:128 ~iterations:4 in
  match choices_of ~cfg prog with
  | [ ch ] ->
    let fixed = candidate ch "fixed-1d-y" in
    Alcotest.(check int) "hotspot 1-D bytes = row halos" (2 * 3 * 128 * 4)
      fixed.Mekong.Autotune.cross_bytes;
    let xsplit = candidate ch "1d-x" in
    checkb "column halos cost more transfer time than row halos" true
      (xsplit.Mekong.Autotune.transfer_s > fixed.Mekong.Autotune.transfer_s);
    checkb "hotspot winner carries a halo plan" true
      (match ch.Mekong.Autotune.c_winner.Mekong.Autotune.halo with
       | Some hp -> hp.Mekong.Autotune.hp_depth >= 2
       | None -> false);
    checkb "winner never scores above fixed" true
      (ch.Mekong.Autotune.c_winner.Mekong.Autotune.score
       <= fixed.Mekong.Autotune.score)
  | l -> Alcotest.failf "hotspot: expected 1 choice, got %d" (List.length l)

(* Uneven splits on a heterogeneous fleet: the rounded cumulative
   prefix gives each device a share proportional to its speed, and the
   scored makespan of the weighted candidate beats the balanced fixed
   split (which is pinned to the slowest device). *)
let test_autotune_weighted_hetero () =
  let parts =
    Mekong.Partition.make_weighted
      ~grid:{ Dim3.x = 1; y = 16; z = 1 }
      ~axis:Dim3.Y
      ~weights:[| 1.0; 1.0; 2.0 |]
  in
  let sizes =
    List.map (fun (p : Mekong.Partition.t) -> Mekong.Partition.n_blocks p) parts
  in
  Alcotest.(check (list int)) "weighted 1:1:2 over 16 rows" [ 4; 4; 8 ] sizes;
  let cfg =
    Gpusim.Config.k80_box ~n_devices:4
      ~device_speeds:[| 1.0; 1.0; 0.5; 0.25 |] ()
  in
  let prog, _, _ = Apps.Workloads.functional_matmul ~n:64 in
  match choices_of ~cfg prog with
  | [ ch ] ->
    let fixed = candidate ch "fixed-1d-y" in
    let weighted = candidate ch "weighted-1d-y" in
    (* Balanced: the 0.25x device runs a full quarter at 4x block time.
       Weighted: it gets ~1/11 of the rows, so the makespan drops. *)
    checkb "weighted compute makespan beats balanced on 1:1:0.5:0.25" true
      (weighted.Mekong.Autotune.compute_s < fixed.Mekong.Autotune.compute_s)
  | l -> Alcotest.failf "expected 1 choice, got %d" (List.length l)

(* The headline safety property: the autotuned engine is a pure
   schedule change.  On random functional instances, fleets and
   speed mixes, its output is bit-identical to the fixed-strategy
   engine (both equal the CPU reference). *)
let prop_autotune_bit_identical =
  QCheck.Test.make ~name:"autotuned = fixed-axis across random apps/fleets"
    ~count:25
    QCheck.(triple (int_range 0 3) (int_range 1 6) bool)
    (fun (app, g, hetero) ->
       let instance () =
         match app with
         | 0 ->
           let n = 17 + (app * 7) + (g * 31) in
           let p, out, cpu = Apps.Workloads.functional_vecadd ~n in
           (p, out, cpu)
         | 1 ->
           let p, out, cpu =
             Apps.Workloads.functional_hotspot ~n:(8 + (4 * g)) ~iterations:(1 + g)
           in
           (p, out, cpu)
         | 2 ->
           let p, out, cpu = Apps.Workloads.functional_matmul ~n:(4 + (3 * g)) in
           (p, out, cpu)
         | _ ->
           let p, out, cpu =
             Apps.Workloads.functional_nbody ~n:(16 + (8 * g)) ~iterations:2
           in
           (p, out, cpu)
       in
       let device_speeds =
         if hetero then
           Some (Array.init g (fun d -> 1.0 /. float_of_int (1 + (d mod 3))))
         else None
       in
       let run_engine ~autotune =
         let prog, out, cpu = instance () in
         let exe =
           match Mekong.Toolchain.compile prog with
           | Ok a -> a.Mekong.Toolchain.exe
           | Error e -> failwith (Mekong.Toolchain.error_message e)
         in
         let m =
           Gpusim.Machine.create ~functional:true
             (Gpusim.Config.test_box ~n_devices:g ?device_speeds ())
         in
         ignore (Mekong.Multi_gpu.run ~autotune ~machine:m exe);
         (out, cpu)
       in
       let fixed_out, cpu = run_engine ~autotune:false in
       let tuned_out, _ = run_engine ~autotune:true in
       fixed_out = tuned_out && tuned_out = cpu ())

(* Halo-tiling regression: with autotuning on, the steady-state
   per-iteration exchanged bytes on the iterated stencil shrink
   against the seed engine.  Differencing two iteration counts
   removes the one-time distribution/consolidation traffic. *)
let test_autotune_halo_bytes_shrink () =
  let p2p ~autotune ~iterations =
    let prog, out, cpu =
      Apps.Workloads.functional_hotspot ~n:128 ~iterations
    in
    let exe =
      match Mekong.Toolchain.compile prog with
      | Ok a -> a.Mekong.Toolchain.exe
      | Error e -> failwith (Mekong.Toolchain.error_message e)
    in
    let m =
      Gpusim.Machine.create ~functional:true
        (Gpusim.Config.k80_box ~n_devices:4 ())
    in
    let r = Mekong.Multi_gpu.run ~autotune ~machine:m exe in
    checkb "bit-identical to CPU" true (out = cpu ());
    if autotune then
      checkb "halo tiling engaged" true
        (Obs.Metrics.get r.Mekong.Multi_gpu.metrics "autotune.halo_steps" > 0.0);
    (Gpusim.Machine.stats m).Gpusim.Machine.p2p_bytes
  in
  let per_iter ~autotune =
    (p2p ~autotune ~iterations:24 - p2p ~autotune ~iterations:8) / (24 - 8)
  in
  let seed = per_iter ~autotune:false in
  let tuned = per_iter ~autotune:true in
  checkb
    (Printf.sprintf "per-iteration p2p bytes shrink (%d < %d)" tuned seed)
    true (tuned < seed)

let () =
  Alcotest.run "perf-model"
    [
      ( "invariants",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "alpha/beta/gamma order" `Quick
            test_alpha_beta_gamma_order;
          Alcotest.test_case "speedup bounds" `Quick test_speedup_bounds;
          Alcotest.test_case "single-GPU overhead sign" `Quick
            test_partitioned_not_faster_than_reference_on_one;
          Alcotest.test_case "work monotonicity" `Quick test_more_work_takes_longer;
          Alcotest.test_case "transfer fraction growth" `Quick
            test_transfers_grow_with_devices;
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "hand-computed cost cases" `Quick
            test_autotune_cost_cases;
          Alcotest.test_case "weighted split on heterogeneous fleet" `Quick
            test_autotune_weighted_hetero;
          Alcotest.test_case "halo tiling shrinks per-iteration bytes" `Quick
            test_autotune_halo_bytes_shrink;
          qtest prop_autotune_bit_identical;
        ] );
    ]
