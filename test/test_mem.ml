(* Tests for the device-memory capacity model end to end: the engine's
   memory-pressure-adaptive launching (spill + chunking), the OOM
   diagnostics, composition with fault injection, and a model-based
   property over random spill/ensure/checkpoint/restore schedules.

   The headline invariant (DESIGN.md §15): for any capacity under
   which the run is feasible, functional results are bit-identical to
   the uncapped run; infeasible runs fail with a one-line diagnostic
   naming the buffer, the device and the shortfall. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

open Gpu_runtime

let compile prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> failwith (Mekong.Toolchain.error_message e)

let run_with ?mem_capacity ?faults ?checkpoint_every ~devices prog =
  let machine =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:devices ?mem_capacity ())
  in
  (match faults with
   | Some spec -> Gpusim.Machine.inject_faults machine (Gpusim.Faults.create spec)
   | None -> ());
  let r = Mekong.Multi_gpu.run ?checkpoint_every ~machine (compile prog) in
  (r, machine)

(* No chunked launch, chunk or live-OOM refinement in the run. *)
let no_mem_machinery (r : Mekong.Multi_gpu.result) =
  List.for_all
    (fun n -> Obs.Metrics.get r.Mekong.Multi_gpu.metrics n = 0.0)
    [ "engine.chunked_launches"; "engine.chunks"; "engine.oom_refinements" ]

let high_water m =
  let hw = ref 0 in
  for d = 0 to Gpusim.Machine.n_devices m - 1 do
    hw := max !hw (Gpusim.Machine.mem_high_water m d)
  done;
  !hw

(* ---------------- Feasible capped runs are bit-identical ----------- *)

(* The acceptance experiment: matmul capped at a quarter of its own
   uncapped per-device high-water mark must still complete, with the
   engine visibly working for it (nonzero spill traffic and chunked
   launches), and produce bit-identical output. *)
let test_matmul_quarter_capacity () =
  (* n must be large enough that a quarter of the high-water clears the
     single-axis chunking floor: the per-chunk footprint cannot drop
     below one partition's full band of A, which is hw/(g+2) plus one
     block-column of B — about 22% of hw at n = 256, g = 4. *)
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:256 in
  let r0, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  checkb "uncapped run uses no mem machinery" true (no_mem_machinery r0);
  checki "uncapped run spills nothing" 0
    (Gpusim.Machine.stats m0).Gpusim.Machine.n_spills;
  let hw = high_water m0 in
  checkb "high water measured" true (hw > 0);
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:256 in
  let r, m = run_with ~devices:4 ~mem_capacity:(hw / 4) prog in
  checkb "quarter-capacity output bit-identical" true (out = baseline);
  let st = Gpusim.Machine.stats m in
  checkb "nonzero spill bytes" true (st.Gpusim.Machine.spill_bytes > 0);
  checkb "nonzero spills" true (st.Gpusim.Machine.n_spills > 0);
  let mem name = Obs.Metrics.get r.Mekong.Multi_gpu.metrics ("engine." ^ name) in
  checkb "chunked launches happened" true (mem "chunked_launches" > 0.0);
  checkb "multiple chunks per launch" true
    (mem "chunks" > mem "chunked_launches");
  checkb "capacity respected" true (high_water m <= hw / 4);
  checkb "capped run is not faster" true
    (r.Mekong.Multi_gpu.time >= r0.Mekong.Multi_gpu.time)

(* The same invariant on a stencil with halo exchanges, at 50% and 25%
   of the uncapped high-water. *)
let test_hotspot_under_pressure () =
  let mk () = Apps.Workloads.functional_hotspot ~n:64 ~iterations:6 in
  let prog, out, _ = mk () in
  let _, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  let hw = high_water m0 in
  List.iter
    (fun denom ->
       let prog, out, _ = mk () in
       let r, m = run_with ~devices:4 ~mem_capacity:(hw / denom) prog in
       checkb
         (Printf.sprintf "1/%d capacity bit-identical" denom)
         true (out = baseline);
       checkb
         (Printf.sprintf "1/%d capacity spilled" denom)
         true
         ((Gpusim.Machine.stats m).Gpusim.Machine.spill_bytes > 0);
       ignore r)
    [ 2; 4 ]

(* A capacity above the uncapped working set must change nothing at
   all: same output, same simulated time, no spills, no chunking. *)
let test_loose_capacity_is_invisible () =
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:64 in
  let r0, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  let hw = high_water m0 in
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:64 in
  let r, m = run_with ~devices:4 ~mem_capacity:hw prog in
  checkb "output identical" true (out = baseline);
  checkb "time identical" true
    (r.Mekong.Multi_gpu.time = r0.Mekong.Multi_gpu.time);
  checki "no spills" 0 (Gpusim.Machine.stats m).Gpusim.Machine.n_spills;
  checkb "no chunking" true (no_mem_machinery r)

(* ---------------- Infeasibility diagnostics ----------------------- *)

let one_line msg = not (String.contains msg '\n')

let test_infeasible_diagnostic () =
  let prog, _, _ = Apps.Workloads.functional_matmul ~n:64 in
  match run_with ~devices:4 ~mem_capacity:2048 prog with
  | _ -> Alcotest.fail "infeasible run completed"
  | exception Failure msg ->
    checkb "one line" true (one_line msg);
    let has s =
      Str.string_match (Str.regexp (".*" ^ Str.quote s)) msg 0
    in
    checkb "names the kernel" true (has "matmul");
    checkb "says infeasible" true (has "infeasible");
    checkb "names a buffer" true (has "buffer");
    checkb "names the device" true (has "device");
    checkb "states the shortfall" true (has "short")

(* Capacities below one element: nothing of the scatter fits, and the
   run still ends at the infeasibility diagnostic. *)
let test_sub_element_capacity () =
  List.iter
    (fun cap ->
       let prog, _, _ = Apps.Workloads.functional_vecadd ~n:4096 in
       match run_with ~devices:2 ~mem_capacity:cap prog with
       | _ -> Alcotest.failf "cap %d: infeasible run completed" cap
       | exception Failure msg ->
         checkb
           (Printf.sprintf "cap %d says infeasible" cap)
           true
           (Str.string_match (Str.regexp ".*infeasible") msg 0)
       | exception Invalid_argument msg ->
         Alcotest.failf "cap %d: Invalid_argument %s" cap msg)
    [ 1; 2; 3 ]

let test_non_launch_oom_diagnostic () =
  (* An Out_of_memory escaping anything but a launch (here: forced
     directly against the machine) is not retryable; the engine turns
     it into a one-line failure rather than leaking the exception. *)
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:2 ~mem_capacity:100 ())
  in
  match Gpusim.Machine.mem_reserve m ~device:1 ~bytes:200 with
  | _ -> Alcotest.fail "over-capacity reserve accepted"
  | exception Gpusim.Machine.Out_of_memory { device; requested; free } ->
    checki "device" 1 device;
    checki "requested" 200 requested;
    checki "free" 100 free

(* ---------------- Composition with fault injection ----------------- *)

(* Memory pressure and self-healing are orthogonal robustness layers;
   the guarantee is their conjunction: under a capped machine AND a PR-2
   fault schedule (transient faults plus one permanent loss, >= 1
   survivor), outputs still match the uncapped fault-free baseline. *)
let test_capped_run_survives_faults () =
  let mk () = Apps.Workloads.functional_hotspot ~n:64 ~iterations:6 in
  let prog, out, _ = mk () in
  let _, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  let hw = high_water m0 in
  let cap = hw / 2 in
  (* capped, fault-free: gives the loss schedule a realistic time *)
  let prog, out, _ = mk () in
  let r1, _ = run_with ~devices:4 ~mem_capacity:cap prog in
  checkb "capped clean run bit-identical" true (out = baseline);
  List.iter
    (fun seed ->
       let prog, out, _ = mk () in
       let spec =
         {
           Gpusim.Faults.null_spec with
           seed;
           (* Spilling multiplies the transfers per statement, so the
              per-transfer rate must stay low enough that a whole
              attempt can pass within the backoff budget. *)
           kernel_fault_rate = 0.01;
           transfer_fault_rate = 0.002;
           scheduled_losses = [ (2, 0.3 *. r1.Mekong.Multi_gpu.time) ];
         }
       in
       let r, _ =
         run_with ~devices:4 ~mem_capacity:cap ~faults:spec
           ~checkpoint_every:3 prog
       in
       checkb
         (Printf.sprintf "seed %d: capped+faulty bit-identical" seed)
         true (out = baseline);
       checki
         (Printf.sprintf "seed %d: loss fired" seed)
         1
         r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost)
    [ 11; 42; 1337 ]

(* ---------------- Model-based residency property ------------------ *)

(* Random schedules of device writes, synced reads, explicit spills,
   ensure_resident calls and checkpoint/restore cycles on a capacity-
   limited machine.  After every operation the segment trackers must
   satisfy their invariants and the residency accounting must be
   consistent (Vbuf.check_residency); every synced read and the final
   gather must agree with a flat reference array. *)
type mop =
  | MWrite of int * int * int (* device, lo, hi *)
  | MRead of int * int * int
  | MSpill of int * int * int
  | MEnsure of int * int * int
  | MCheckpoint
  | MRestore

let gen_mop =
  QCheck.Gen.(
    int_range 0 3 >>= fun dev ->
    int_range 0 79 >>= fun a ->
    int_range 0 23 >>= fun w ->
    let lo = min a 79 and hi = min (a + 1 + w) 80 in
    frequency
      [
        (4, return (MWrite (dev, lo, hi)));
        (4, return (MRead (dev, lo, hi)));
        (2, return (MSpill (dev, lo, hi)));
        (2, return (MEnsure (dev, lo, hi)));
        (1, return MCheckpoint);
        (1, return MRestore);
      ])

let print_mop = function
  | MWrite (d, l, h) -> Printf.sprintf "W%d[%d,%d)" d l h
  | MRead (d, l, h) -> Printf.sprintf "R%d[%d,%d)" d l h
  | MSpill (d, l, h) -> Printf.sprintf "S%d[%d,%d)" d l h
  | MEnsure (d, l, h) -> Printf.sprintf "E%d[%d,%d)" d l h
  | MCheckpoint -> "C"
  | MRestore -> "X"

let prop_residency_model =
  QCheck.Test.make ~name:"capped vbuf matches flat model" ~count:120
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print_mop l))
       QCheck.Gen.(list_size (int_range 1 40) gen_mop))
    (fun ops ->
      let len = 80 in
      let m =
        Gpusim.Machine.create ~functional:true
          (* 32 elements per device: every single op range (<= 24
             elements) fits after eviction, but the whole buffer never
             does, so the schedule constantly spills and faults back. *)
          (Gpusim.Config.test_box ~n_devices:4 ~mem_capacity:256 ())
      in
      let vb = Vbuf.create m ~name:"v" ~len in
      let model = Array.init len float_of_int in
      Vbuf.h2d vb ~src:(Some (Array.copy model));
      let snap = ref None in
      let stamp = ref 100.0 in
      let ok = ref true in
      let validate () =
        Tracker.check_invariants (Vbuf.tracker vb);
        Vbuf.check_residency vb
      in
      validate ();
      List.iter
        (fun op ->
           (match op with
            | MWrite (dev, lo, hi) ->
              stamp := !stamp +. 1.0;
              (* make the range resident first, then store through the
                 instance like a kernel would, then declare the write *)
              Vbuf.ensure_resident vb ~dev ~ranges:[ (lo, hi) ];
              let inst = Gpusim.Buffer.data_exn (Vbuf.instance vb dev) in
              for i = lo to hi - 1 do
                inst.(i) <- !stamp +. float_of_int i;
                model.(i) <- !stamp +. float_of_int i
              done;
              Vbuf.update_for_write vb ~dev ~ranges:[ (lo, hi) ]
            | MRead (dev, lo, hi) ->
              ignore (Vbuf.sync_for_read vb ~dev ~ranges:[ (lo, hi) ]);
              let inst = Gpusim.Buffer.data_exn (Vbuf.instance vb dev) in
              for i = lo to hi - 1 do
                if inst.(i) <> model.(i) then ok := false
              done
            | MSpill (dev, lo, hi) ->
              ignore (Vbuf.spill vb ~dev ~ranges:[ (lo, hi) ])
            | MEnsure (dev, lo, hi) ->
              Vbuf.ensure_resident vb ~dev ~ranges:[ (lo, hi) ]
            | MCheckpoint -> snap := Some (Vbuf.checkpoint vb, Array.copy model)
            | MRestore -> (
                match !snap with
                | Some (s, saved) ->
                  Vbuf.restore vb s;
                  Array.blit saved 0 model 0 len
                | None -> ()));
           validate ())
        ops;
      let out = Array.make len nan in
      Vbuf.d2h vb ~dst:(Some out);
      !ok && out = model)

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "mem"
    [
      ( "engine",
        [
          Alcotest.test_case "matmul @ 25% capacity" `Quick
            test_matmul_quarter_capacity;
          Alcotest.test_case "hotspot under pressure" `Quick
            test_hotspot_under_pressure;
          Alcotest.test_case "loose capacity invisible" `Quick
            test_loose_capacity_is_invisible;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "infeasible one-liner" `Quick
            test_infeasible_diagnostic;
          Alcotest.test_case "typed OOM payload" `Quick
            test_non_launch_oom_diagnostic;
          Alcotest.test_case "capacity below one element" `Quick
            test_sub_element_capacity;
        ] );
      ( "faults",
        [
          Alcotest.test_case "capped + fault schedule" `Quick
            test_capped_run_survives_faults;
        ] );
      ("residency", [ qtest prop_residency_model ]);
    ]
