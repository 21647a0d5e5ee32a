(* Tests for the partitioning compiler: polyhedral access analysis,
   write-injectivity checking, strategy selection, the kernel partition
   transform, model (de)serialization, enumerator generation, the
   source rewriter, and — most importantly — the end-to-end golden
   property: the partitioned multi-GPU execution produces bit-identical
   results to the single-GPU reference engine and the CPU reference,
   for every benchmark and a range of device counts. *)

open Ppoly

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
(* Launch sites ([<<<]) in a host source. *)
let count_launches src = List.length (Str.split_delim (Str.regexp_string "<<<") src) - 1

let find_access (a : Mekong.Access.t) arr = List.find_opt (fun x -> x.Mekong.Access.arr = arr) a.accesses
let bid a = Kir.Special (Kir.Block_idx a)

(* ---------------- Access analysis ---------------- *)

let analyze_exn k =
  match Mekong.Access.analyze k with
  | Ok a -> a
  | Error e -> Alcotest.failf "analysis rejected %s: %s" k.Kir.name
                 (Mekong.Access.error_message e)

let test_analyze_vecadd () =
  let a = analyze_exn Apps.Vecadd.kernel in
  checks "strategy" "x" (Dim3.axis_name a.Mekong.Access.strategy);
  let acc name = Option.get (find_access a name) in
  checkb "a read" true ((acc "a").Mekong.Access.read <> None);
  checkb "a not written" true ((acc "a").Mekong.Access.write = None);
  checkb "c written" true ((acc "c").Mekong.Access.write <> None);
  checkb "c not read" true ((acc "c").Mekong.Access.read = None);
  checkb "reads exact" true (acc "a").Mekong.Access.read_exact

let test_analyze_hotspot () =
  let a = analyze_exn Apps.Hotspot.kernel in
  checks "strategy is y (row bands)" "y" (Dim3.axis_name a.Mekong.Access.strategy);
  let inp = Option.get (find_access a "inp") in
  let out = Option.get (find_access a "out") in
  checkb "inp read only" true
    (inp.Mekong.Access.read <> None && inp.Mekong.Access.write = None);
  checkb "out write only" true
    (out.Mekong.Access.write <> None && out.Mekong.Access.read = None);
  (* The stencil read map has the centre plus four neighbour pieces. *)
  checki "halo pieces" 5
    (List.length (Pset.pieces (Pmap.rel (Option.get inp.Mekong.Access.read))))

let test_analyze_nbody () =
  let a = analyze_exn Apps.Nbody.kernel in
  checks "strategy" "x" (Dim3.axis_name a.Mekong.Access.strategy);
  let pos_in = Option.get (find_access a "pos_in") in
  checkb "pos_in read" true (pos_in.Mekong.Access.read <> None);
  checkb "pos_in never written" true (pos_in.Mekong.Access.write = None)

let test_analyze_matmul () =
  let a = analyze_exn Apps.Matmul.kernel in
  checks "strategy is y" "y" (Dim3.axis_name a.Mekong.Access.strategy)

(* A kernel where two blocks write the same cell must be rejected
   (write-after-write hazard, paper §4.1). *)
let test_reject_non_injective () =
  let open Kir in
  let k =
    Kir.kernel ~name:"broken"
      ~params:
        [ Scalar "n"; Array { name = "o"; dims = [| Dim_param "n" |] } ]
      [
        Local ("gi", global_id Dim3.X);
        If (v "gi" < p "n", [ store "o" [ i 0 ] (f 1.0) ], []);
        (* every thread writes o[0] *)
      ]
  in
  match Mekong.Access.analyze k with
  | Error (Mekong.Access.Non_injective_write "o") -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mekong.Access.error_message e)
  | Ok _ -> Alcotest.fail "expected rejection"

(* Data-dependent (indirect) writes cannot be modeled and must be
   rejected; indirect reads over-approximate instead. *)
let test_reject_indirect_write () =
  let open Kir in
  let k =
    Kir.kernel ~name:"scatter"
      ~params:
        [
          Scalar "n";
          Array { name = "idx"; dims = [| Dim_param "n" |] };
          Array { name = "o"; dims = [| Dim_param "n" |] };
        ]
      [
        Local ("gi", global_id Dim3.X);
        If
          ( v "gi" < p "n",
            [ store "o" [ load "idx" [ v "gi" ] ] (f 1.0) ],
            [] );
      ]
  in
  (match Mekong.Access.analyze k with
   | Error (Mekong.Access.Inexact_write "o") -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Mekong.Access.error_message e)
   | Ok _ -> Alcotest.fail "expected rejection");
  (* The same pattern as a read (gather) is accepted with an
     over-approximated read map. *)
  let gather =
    Kir.kernel ~name:"gather"
      ~params:
        [
          Scalar "n";
          Array { name = "idx"; dims = [| Dim_param "n" |] };
          Array { name = "src"; dims = [| Dim_param "n" |] };
          Array { name = "o"; dims = [| Dim_param "n" |] };
        ]
      [
        Local ("gi", global_id Dim3.X);
        If
          ( v "gi" < p "n",
            [ store "o" [ v "gi" ] (load "src" [ load "idx" [ v "gi" ] ]) ],
            [] );
      ]
  in
  let a = analyze_exn gather in
  let src = Option.get (find_access a "src") in
  checkb "gather read approximated" false src.Mekong.Access.read_exact

(* The hotspot read map must contain the halo: for a partition covering
   block-row 1 (rows 16..31 with 16x16 blocks), the read rows are
   15..32. *)
let test_hotspot_read_halo () =
  let a = analyze_exn Apps.Hotspot.kernel in
  let km = Mekong.Model.find_exn (Mekong.Model.of_analyses [ a ]) a.Mekong.Access.kernel.Kir.name in
  let enum = Option.get (Option.get (Mekong.Codegen.entry (Mekong.Codegen.build km) "inp")).Mekong.Codegen.read in
  let n = 64 in
  let p =
    {
      Mekong.Partition.device = 0;
      min_blocks = { Dim3.x = 0; y = 1; z = 0 };
      max_blocks = { Dim3.x = 4; y = 2; z = 1 };
    }
  in
  let bindings =
    [ ("n", n) ]
    @ List.concat_map
        (fun ax ->
           [
             (Mekong.Access.bdim_name ax, Dim3.get Apps.Hotspot.block ax);
             (Mekong.Access.gdim_name ax, Dim3.get (Apps.Hotspot.grid_for n) ax);
           ])
        Dim3.axes
    @ Mekong.Partition.box_bindings p ~block:Apps.Hotspot.block
  in
  let ranges = Mekong.Codegen.ranges enum ~bindings in
  Alcotest.(check (list (pair int int)))
    "halo band rows 15..32"
    [ (15 * n, 33 * n) ]
    ranges

(* Arrays a kernel indexes alike share one partition image, moved into
   each array's index space: every enumerator prints as if its map had
   been projected on its own. *)
let test_shared_images () =
  let add2 =
    let open Kir in
    let d = [| Dim_param "n"; Dim_param "n" |] in
    let at = [ v "y"; v "x" ] in
    Kir.kernel ~name:"add2"
      ~params:
        [ Scalar "n"; Array { name = "a"; dims = d }; Array { name = "b"; dims = d };
          Array { name = "c"; dims = d } ]
      [ Local ("x", global_id Dim3.X); Local ("y", global_id Dim3.Y);
        If (v "x" < p "n" && v "y" < p "n", [ store "c" at (load "a" at + load "b" at) ], []) ]
  in
  let render e = Format.asprintf "%a" Ppoly.Enumerate.pp e in
  List.iter
    (fun k ->
       let km = Mekong.Model.find_exn (Mekong.Model.of_analyses [ analyze_exn k ]) k.Kir.name in
       let cg = Mekong.Codegen.build km in
       List.iter
         (fun (a : Mekong.Model.array_model) ->
            let e = Option.get (Mekong.Codegen.entry cg a.Mekong.Model.arr) in
            let alone m =
              let sizes =
                Array.map
                  (function Kir.Dim_const n -> Ppoly.Ast.Int n | Kir.Dim_param p -> Ppoly.Ast.Var p)
                  a.Mekong.Model.dims
              in
              render (Ppoly.Enumerate.of_set ~sizes (Mekong.Codegen.partition_image m))
            in
            let name = k.Kir.name ^ " " ^ a.Mekong.Model.arr in
            checkb (name ^ " read") true
              (Option.map render e.Mekong.Codegen.read = Option.map alone a.Mekong.Model.read);
            checkb (name ^ " write") true
              (Option.map render e.Mekong.Codegen.write = Option.map alone a.Mekong.Model.write))
         km.Mekong.Model.arrays;
       if k == add2 then
         List.iter
           (fun arr ->
              let e = Option.get (Mekong.Codegen.entry cg arr) in
              checkb (arr ^ " scans its own index dims") true
                (Str.string_match
                   (Str.regexp (".*" ^ Str.quote (Mekong.Access.out_name arr 0)))
                   (render (Option.get e.Mekong.Codegen.read)) 0))
           [ "a"; "b" ])
    [ add2; Apps.Vecadd.kernel; Apps.Hotspot.kernel; Apps.Matmul.kernel; Apps.Nbody.kernel ]

(* ---------------- Partition transform ---------------- *)

let test_partition_make () =
  let grid = Dim3.make 10 ~y:7 in
  let parts = Mekong.Partition.make ~grid ~axis:Dim3.Y ~n:3 in
  checki "three partitions" 3 (List.length parts);
  let blocks = List.map Mekong.Partition.n_blocks parts in
  Alcotest.(check (list int)) "balanced" [ 30; 20; 20 ] blocks;
  (* partitions tile the grid *)
  let total = List.fold_left ( + ) 0 blocks in
  checki "covers grid" (Dim3.volume grid) total;
  (* more devices than blocks along the axis: empty partitions allowed *)
  let parts16 = Mekong.Partition.make ~grid:(Dim3.make 4) ~axis:Dim3.X ~n:16 in
  checki "empty tail partitions" 12
    (List.length (List.filter Mekong.Partition.is_empty parts16))

let test_partition_transform () =
  let k = Mekong.Partition.transform_kernel Apps.Vecadd.kernel in
  checks "renamed" "vecadd__part" k.Kir.name;
  checki "six extra params" (List.length Apps.Vecadd.kernel.Kir.params + 6)
    (List.length k.Kir.params);
  (* Execute the partitioned kernel over a sub-grid and check the Eq. 8
     offset semantics: with min=(0,0,2) blocks and block 128 wide, the
     first written element is 2*128. *)
  let n = 1024 in
  let a = Array.init n float_of_int and b = Array.make n 1.0 in
  let c = Array.make n nan in
  let args =
    [
      Host_ir.HInt n; Host_ir.HBuf "a"; Host_ir.HBuf "b"; Host_ir.HBuf "c";
    ]
  in
  let p =
    {
      Mekong.Partition.device = 0;
      min_blocks = { Dim3.x = 2; y = 0; z = 0 };
      max_blocks = { Dim3.x = 5; y = 1; z = 1 };
    }
  in
  let all_args = args @ Mekong.Partition.partition_args p in
  let store_count = ref 0 in
  Keval.run k ~grid:(Mekong.Partition.launch_grid p) ~block:Apps.Vecadd.block
    ~args:(Host_ir.scalar_args all_args)
    ~load:(fun arr off -> (if arr = "a" then a else b).(off))
    ~store:(fun _ off v ->
        incr store_count;
        c.(off) <- v);
  checki "stores only partition range" (3 * 128) !store_count;
  checkb "first partition element written" true (not (Float.is_nan c.(2 * 128)));
  checkb "last partition element written" true (not (Float.is_nan c.((5 * 128) - 1)));
  checkb "below partition untouched" true (Float.is_nan c.((2 * 128) - 1));
  checkb "above partition untouched" true (Float.is_nan c.(5 * 128));
  checkb "value correct" true (c.(300) = 301.0)

(* ---------------- Model serialization ---------------- *)

let test_model_roundtrip () =
  let analyses =
    List.map analyze_exn
      [ Apps.Vecadd.kernel; Apps.Hotspot.kernel; Apps.Nbody.kernel;
        Apps.Matmul.kernel ]
  in
  let model = Mekong.Model.of_analyses analyses in
  let text = Mekong.Model.to_string model in
  let model' = Mekong.Model.of_string text in
  checki "kernel count" 4 (List.length model'.Mekong.Model.kernels);
  List.iter2
    (fun (k : Mekong.Model.kernel_model) (k' : Mekong.Model.kernel_model) ->
       checks "name" k.Mekong.Model.kname k'.Mekong.Model.kname;
       checkb "strategy" true (k.Mekong.Model.strategy = k'.Mekong.Model.strategy);
       List.iter2
         (fun (a : Mekong.Model.array_model) (a' : Mekong.Model.array_model) ->
            checks "arr" a.Mekong.Model.arr a'.Mekong.Model.arr;
            checkb "dims" true (a.Mekong.Model.dims = a'.Mekong.Model.dims);
            (* Serialization is exact (same normalized constraints), so
               structural comparison suffices — and semantic equality on
               8-piece unions would be exponential. *)
            let poly_repr p =
              List.sort compare
                (List.map (Format.asprintf "%a" Constr.pp) (Poly.constraints p))
            in
            let map_repr m =
              List.sort compare
                (List.map poly_repr (Pset.pieces (Pmap.rel m)))
            in
            let same_map m m' =
              match (m, m') with
              | None, None -> true
              | Some m, Some m' -> map_repr m = map_repr m'
              | _ -> false
            in
            checkb "read map" true (same_map a.Mekong.Model.read a'.Mekong.Model.read);
            checkb "write map" true
              (same_map a.Mekong.Model.write a'.Mekong.Model.write);
            (* Pass 1 proved every write map, and the proof survives
               the file although only an unproved map is marked. *)
            checkb "write proof" true a.Mekong.Model.write_proved;
            checkb "write proof roundtrips" true a'.Mekong.Model.write_proved)
         k.Mekong.Model.arrays k'.Mekong.Model.arrays)
    model.Mekong.Model.kernels model'.Mekong.Model.kernels;
  checkb "a proved model marks nothing" false
    (try ignore (Str.search_forward (Str.regexp_string "write-proved") text 0); true
     with Not_found -> false)

let test_model_file_roundtrip () =
  let model = Mekong.Model.of_analyses [ analyze_exn Apps.Vecadd.kernel ] in
  let file = Filename.temp_file "mekong_model" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
       Mekong.Model.save model ~file;
       let model' = Mekong.Model.load ~file in
       checki "kernels" 1 (List.length model'.Mekong.Model.kernels))

(* ---------------- Rewriter ---------------- *)

let test_rewriter () =
  let n = 256 in
  let prog, _, _ = Apps.Workloads.functional_vecadd ~n in
  let src = Cusrc.render prog in
  checkb "source has launch" true (count_launches src > 0);
  let out = Mekong.Rewriter.rewrite src in
  checkb "runtime header inserted" true
    (Str.string_match (Str.regexp ".*mekong_runtime\\.h.*") out 0
     || String.length out > 0
        && String.length (Str.global_replace (Str.regexp_string "mekong_runtime.h") "" out)
           < String.length out);
  checkb "launches replaced" true (count_launches out = 0);
  checkb "malloc replaced" true
    (not (String.length (Str.global_replace (Str.regexp_string "mekongMalloc") "" out)
          = String.length out));
  checkb "no cudaMalloc left" true
    (String.length (Str.global_replace (Str.regexp_string "cudaMalloc") "" out)
     = String.length out)

(* ---------------- End-to-end golden property ---------------- *)

let run_single prog =
  let m = Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:1 ()) in
  ignore (Single_gpu.run ~machine:m prog)

let k80_perf g =
  Gpusim.Machine.create ~functional:false (Gpusim.Config.k80_box ~n_devices:g ())

(* A counter of the run's registry. *)
let metric (r : Mekong.Multi_gpu.result) name =
  int_of_float (Obs.Metrics.get r.Mekong.Multi_gpu.metrics name)

let compile_exn prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)

let run_multi ~devices prog =
  let artifacts = compile_exn prog in
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:devices ())
  in
  ignore (Mekong.Multi_gpu.run ~machine:m artifacts.Mekong.Toolchain.exe)

let check_golden name make_instance devices =
  (* CPU reference *)
  let prog_ref, out_ref, cpu = make_instance () in
  run_single prog_ref;
  let cpu_result = cpu () in
  checkb (name ^ ": single-GPU = CPU reference") true (out_ref = cpu_result);
  (* multi-GPU runs *)
  List.iter
    (fun g ->
       let prog, out, _ = make_instance () in
       run_multi ~devices:g prog;
       checkb (Printf.sprintf "%s: %d-GPU = reference" name g) true
         (out = cpu_result))
    devices

let test_golden_vecadd () =
  check_golden "vecadd"
    (fun () -> Apps.Workloads.functional_vecadd ~n:1000)
    [ 1; 2; 3; 4; 7 ]

let test_golden_hotspot () =
  check_golden "hotspot"
    (fun () -> Apps.Workloads.functional_hotspot ~n:64 ~iterations:5)
    [ 1; 2; 3; 4 ]

let test_golden_nbody () =
  check_golden "nbody"
    (fun () -> Apps.Workloads.functional_nbody ~n:192 ~iterations:3)
    [ 1; 2; 4 ]

let test_golden_matmul () =
  check_golden "matmul"
    (fun () -> Apps.Workloads.functional_matmul ~n:48)
    [ 1; 2; 3; 4 ]

(* Random problem sizes (including non-multiples of the block size and
   sizes smaller than the device count). *)
let prop_golden_vecadd_sizes =
  QCheck.Test.make ~name:"vecadd golden across random sizes/devices" ~count:25
    QCheck.(pair (int_range 1 600) (int_range 1 8))
    (fun (n, g) ->
      let prog, out, cpu = Apps.Workloads.functional_vecadd ~n in
      run_multi ~devices:g prog;
      out = cpu ())

let prop_golden_hotspot_sizes =
  QCheck.Test.make ~name:"hotspot golden across random sizes/devices" ~count:10
    QCheck.(pair (int_range 3 48) (int_range 1 6))
    (fun (n, g) ->
      let prog, out, cpu =
        Apps.Workloads.functional_hotspot ~n ~iterations:3
      in
      run_multi ~devices:g prog;
      out = cpu ())

(* ---------------- Fault tolerance (headline guarantee) ----------------

   Under any injected fault schedule that leaves at least one device
   alive, the self-healing engine's functional results are bit-identical
   to the fault-free run. *)

let run_multi_faulty ~devices ~spec prog =
  let artifacts = compile_exn prog in
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:devices ())
  in
  Gpusim.Machine.inject_faults m (Gpusim.Faults.create spec);
  Mekong.Multi_gpu.run ~checkpoint_every:3 ~machine:m
    artifacts.Mekong.Toolchain.exe

(* Deterministic mid-run permanent loss: measure the fault-free runtime
   first, then schedule device 1 to die halfway through, with transient
   kernel/transfer faults injected throughout. *)
let test_fault_midrun_device_loss () =
  let mk () = Apps.Workloads.functional_hotspot ~n:48 ~iterations:6 in
  let prog0, _, _ = mk () in
  let a0 = compile_exn prog0 in
  let m0 =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:3 ())
  in
  let r0 = Mekong.Multi_gpu.run ~machine:m0 a0.Mekong.Toolchain.exe in
  checkb "fault-free run reports no faults" true
    (r0.Mekong.Multi_gpu.faults = Mekong.Multi_gpu.no_faults);
  let prog, out, cpu = mk () in
  let spec =
    {
      Gpusim.Faults.null_spec with
      (* The seed must yield at least one transient fault both before
         and after the scheduled loss; the fault stream is a function of
         the op sequence, so re-pick it if timing-model changes move the
         loss point (any fault-rich seed works — the assertions below
         are what matter). *)
      seed = 1;
      kernel_fault_rate = 0.05;
      transfer_fault_rate = 0.05;
      scheduled_losses = [ (1, r0.Mekong.Multi_gpu.time /. 2.0) ];
    }
  in
  let r = run_multi_faulty ~devices:3 ~spec prog in
  checkb "bit-identical under mid-run device loss" true (out = cpu ());
  let f = r.Mekong.Multi_gpu.faults in
  checki "one device lost" 1 f.Mekong.Multi_gpu.fr_devices_lost;
  checkb "nonzero retries" true (f.Mekong.Multi_gpu.fr_retries > 0);
  checkb "nonzero replays" true (f.Mekong.Multi_gpu.fr_replays > 0);
  checkb "faults observed" true (f.Mekong.Multi_gpu.fr_faults > 0);
  checkb "healing costs time" true
    (r.Mekong.Multi_gpu.time > r0.Mekong.Multi_gpu.time)

(* A device loss starts a new plan-cache generation; the run's registry
   keeps counting across it, so the misses of both generations and the
   replayed launches' lookups all show. *)
let test_fault_plan_cache_counts () =
  let mk () =
    let p, _, _ = Apps.Workloads.functional_hotspot ~n:128 ~iterations:4 in
    p
  in
  let exe = (compile_exn (mk ())).Mekong.Toolchain.exe in
  let machine () =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  let clean = Mekong.Multi_gpu.run ~machine:(machine ()) exe in
  let lookups r = metric r "cache.plan_hits" + metric r "cache.plan_misses" in
  let m = machine () in
  Gpusim.Machine.inject_faults m
    (Gpusim.Faults.create
       {
         Gpusim.Faults.null_spec with
         scheduled_losses = [ (1, clean.Mekong.Multi_gpu.time /. 2.0) ];
       });
  let r = Mekong.Multi_gpu.run ~machine:m exe in
  checki "device 1 lost" 1
    r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost;
  checkb "a miss per cache generation" true (metric r "cache.plan_misses" >= 2);
  checkb "more lookups than the clean run" true (lookups r > lookups clean)

(* Graceful degradation all the way down to one survivor. *)
let test_fault_degrade_to_one () =
  let mk () = Apps.Workloads.functional_hotspot ~n:32 ~iterations:4 in
  let prog0, _, _ = mk () in
  let a0 = compile_exn prog0 in
  let m0 =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:4 ())
  in
  let t0 = (Mekong.Multi_gpu.run ~machine:m0 a0.Mekong.Toolchain.exe).Mekong.Multi_gpu.time in
  let prog, out, cpu = mk () in
  let spec =
    {
      Gpusim.Faults.null_spec with
      seed = 5;
      (* devices 1..3 all die at distinct mid-run times; device 0
         survives and finishes the job alone *)
      scheduled_losses =
        [ (1, 0.2 *. t0); (2, 0.4 *. t0); (3, 0.6 *. t0) ];
    }
  in
  let r = run_multi_faulty ~devices:4 ~spec prog in
  checkb "bit-identical with one survivor" true (out = cpu ());
  checki "three devices lost" 3
    r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost

(* The fault schedule is deterministic: same seed, same program, same
   report, same simulated time. *)
let test_fault_determinism () =
  let spec =
    {
      Gpusim.Faults.null_spec with
      seed = 21;
      kernel_fault_rate = 0.04;
      transfer_fault_rate = 0.04;
      scheduled_losses = [ (2, 0.001) ];
    }
  in
  let go () =
    let prog, out, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:4 in
    let r = run_multi_faulty ~devices:3 ~spec prog in
    (r.Mekong.Multi_gpu.faults, r.Mekong.Multi_gpu.time, Array.copy out)
  in
  let f1, t1, o1 = go () in
  let f2, t2, o2 = go () in
  checkb "same fault report" true (f1 = f2);
  checkb "same simulated time" true (t1 = t2);
  checkb "same output" true (o1 = o2)

(* Randomized fault schedules: random transient rates and random subsets
   of devices 1..g-1 scheduled to die at pseudo-random times (device 0
   always survives).  Bit-identity must hold for every schedule. *)
let prop_fault_bit_identity =
  QCheck.Test.make ~name:"hotspot bit-identical under random fault schedules"
    ~count:12
    QCheck.(triple (int_range 4 32) (int_range 2 4) (int_range 0 1_000_000))
    (fun (n, g, seed) ->
      let prog, out, cpu = Apps.Workloads.functional_hotspot ~n ~iterations:4 in
      let rate = float_of_int (seed mod 8) /. 100.0 in
      let losses =
        List.filter_map
          (fun d ->
            if (seed lsr d) land 1 = 1 then
              Some (d, float_of_int ((seed lsr (2 * d)) land 0xff) *. 2e-5)
            else None)
          (List.init (g - 1) (fun d -> d + 1))
      in
      let spec =
        {
          Gpusim.Faults.null_spec with
          seed;
          kernel_fault_rate = rate;
          transfer_fault_rate = rate;
          scheduled_losses = losses;
        }
      in
      ignore (run_multi_faulty ~devices:g ~spec prog);
      out = cpu ())

(* ---------------- Toolchain ---------------- *)

let test_toolchain_artifacts () =
  let prog, _, _ = Apps.Workloads.functional_vecadd ~n:256 in
  let a = compile_exn prog in
  checkb "model has vecadd" true
    (List.exists (fun k -> k.Mekong.Model.kname = "vecadd") a.Mekong.Toolchain.model.Mekong.Model.kernels);
  checkb "rewritten differs" true
    (a.Mekong.Toolchain.rewritten_source <> a.Mekong.Toolchain.original_source);
  checkb "original has cuda calls" true
    (count_launches a.Mekong.Toolchain.original_source = 1)

let test_toolchain_rejects () =
  let open Kir in
  let bad =
    Kir.kernel ~name:"bad"
      ~params:[ Scalar "n"; Array { name = "o"; dims = [| Dim_param "n" |] } ]
      [ store "o" [ i 0 ] (f 1.0) ]
  in
  let prog =
    Host_ir.program ~name:"badprog"
      [
        Host_ir.Malloc ("o", 16);
        Host_ir.Launch
          {
            kernel = bad;
            grid = Dim3.make 2;
            block = Dim3.make 8;
            args = [ Host_ir.HInt 16; Host_ir.HBuf "o" ];
          };
        Host_ir.Free "o";
      ]
  in
  match Mekong.Toolchain.compile prog with
  | Error { kernel = "bad"; _ } -> ()
  | Error e -> Alcotest.failf "wrong kernel: %s" (Mekong.Toolchain.error_message e)
  | Ok _ -> Alcotest.fail "expected rejection"

(* The single-segment property of 1:1 kernels (paper §8.1): after a
   vecadd, each device owns exactly one contiguous segment of c. *)
let test_tracker_fragmentation () =
  let n = 1024 in
  let prog, _, _ = Apps.Workloads.functional_vecadd ~n in
  let artifacts = compile_exn prog in
  (* re-link against a fresh machine but keep vbufs visible: rerun and
     inspect stats instead *)
  let m =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:4 ())
  in
  let res = Mekong.Multi_gpu.run ~machine:m artifacts.Mekong.Toolchain.exe in
  (* vecadd reads match the linear distribution exactly: no
     inter-device synchronization transfers at all. *)
  checki "no stale-data transfers" 0 (metric res "engine.transfers")

let qtest t = QCheck_alcotest.to_alcotest t

let base_suites =
    [
      ( "access",
        [
          Alcotest.test_case "vecadd" `Quick test_analyze_vecadd;
          Alcotest.test_case "hotspot" `Quick test_analyze_hotspot;
          Alcotest.test_case "nbody" `Quick test_analyze_nbody;
          Alcotest.test_case "matmul" `Quick test_analyze_matmul;
          Alcotest.test_case "reject non-injective" `Quick test_reject_non_injective;
          Alcotest.test_case "reject indirect write" `Quick test_reject_indirect_write;
          Alcotest.test_case "hotspot halo" `Quick test_hotspot_read_halo;
          Alcotest.test_case "arrays indexed alike share one image" `Quick test_shared_images;
        ] );
      ( "partition",
        [
          Alcotest.test_case "make" `Quick test_partition_make;
          Alcotest.test_case "kernel transform" `Quick test_partition_transform;
        ] );
      ( "model",
        [
          Alcotest.test_case "roundtrip" `Quick test_model_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_model_file_roundtrip;
        ] );
      ( "rewriter", [ Alcotest.test_case "substitutions" `Quick test_rewriter ] );
      ( "golden",
        [
          Alcotest.test_case "vecadd" `Quick test_golden_vecadd;
          Alcotest.test_case "hotspot" `Quick test_golden_hotspot;
          Alcotest.test_case "nbody" `Slow test_golden_nbody;
          Alcotest.test_case "matmul" `Quick test_golden_matmul;
          qtest prop_golden_vecadd_sizes;
          qtest prop_golden_hotspot_sizes;
        ] );
      ( "toolchain",
        [
          Alcotest.test_case "artifacts" `Quick test_toolchain_artifacts;
          Alcotest.test_case "rejects bad kernels" `Quick test_toolchain_rejects;
          Alcotest.test_case "tracker fragmentation" `Quick test_tracker_fragmentation;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "mid-run device loss" `Quick
            test_fault_midrun_device_loss;
          Alcotest.test_case "degrade to one device" `Quick
            test_fault_degrade_to_one;
          Alcotest.test_case "plan-cache counts survive a loss" `Quick
            test_fault_plan_cache_counts;
          Alcotest.test_case "deterministic schedules" `Quick
            test_fault_determinism;
          qtest prop_fault_bit_identity;
        ] );
    ]

(* ---------------- Random-kernel golden property ----------------

   Generate random affine stencil-like kernels (identity writes, random
   shifted/looped reads with bounds guards) and check that the
   partitioned execution is bit-identical to the single-GPU engine for
   random device counts and problem sizes.  This exercises the whole
   pipeline: analysis, strategy choice, partition transform, enumerator
   codegen and the runtime. *)

type rand_spec = {
  rs_two_d : bool;
  rs_shifts : (int * int) list;
  rs_row_loop : bool;
  rs_n : int;
  rs_gpus : int;
}

let gen_rand_spec =
  QCheck.Gen.(
    bool >>= fun rs_two_d ->
    list_size (int_range 0 4)
      (pair (int_range (-2) 2) (int_range (-2) 2))
    >>= fun rs_shifts ->
    bool >>= fun rs_row_loop ->
    int_range 6 60 >>= fun rs_n ->
    int_range 1 6 >>= fun rs_gpus ->
    return { rs_two_d; rs_shifts; rs_row_loop; rs_n; rs_gpus })

let print_rand_spec s =
  Printf.sprintf "{2d=%b shifts=[%s] loop=%b n=%d gpus=%d}" s.rs_two_d
    (String.concat ";"
       (List.map (fun (a, b) -> Printf.sprintf "(%d,%d)" a b) s.rs_shifts))
    s.rs_row_loop s.rs_n s.rs_gpus

(* Build the kernel for a spec.  Reads are guarded so Keval never goes
   out of bounds; writes are the identity map. *)
let kernel_of_spec spec =
  let open Kir in
  let n = p "n" in
  let gx = v "gx" and gy = v "gy" in
  let dims =
    if spec.rs_two_d then [| Dim_param "n"; Dim_param "n" |]
    else [| Dim_param "n" |]
  in
  let idx row col = if spec.rs_two_d then [ row; col ] else [ col ] in
  let shift_stmt k (dy, dx) =
    let row = gy + i dy and col = gx + i dx in
    let in_bounds =
      if spec.rs_two_d then
        row >= i 0 && row < n && col >= i 0 && col < n
      else col >= i 0 && col < n
    in
    If
      ( in_bounds,
        [ Assign ("acc", v "acc" + load "a" (idx row col)) ],
        [ Assign ("acc", v "acc" + f (float_of_int k)) ] )
  in
  let row_loop =
    if spec.rs_row_loop then
      [
        For
          {
            var = "k";
            from_ = i 0;
            to_ = n;
            body = [ Assign ("acc", v "acc" + load "a" (idx gy (v "k"))) ];
          };
      ]
    else []
  in
  let guard = if spec.rs_two_d then gx < n && gy < n else gx < n in
  Kir.kernel ~name:"randk"
    ~params:
      [
        Scalar "n";
        Array { name = "a"; dims };
        Array { name = "out"; dims };
      ]
    [
      Local ("gx", global_id Dim3.X);
      Local ("gy", global_id Dim3.Y);
      If
        ( guard,
          [ Local ("acc", load "a" (idx gy gx)) ]
          @ List.mapi shift_stmt spec.rs_shifts
          @ row_loop
          @ [ store "out" (idx gy gx) (v "acc") ],
          [] );
    ]

let program_of_spec ?(repeat = 1) spec ~(result : float array) =
  let n = spec.rs_n in
  let total = if spec.rs_two_d then n * n else n in
  let a = Array.init total (fun i -> float_of_int ((i * 37 mod 101) - 50) /. 7.0) in
  let block = if spec.rs_two_d then Dim3.make 4 ~y:4 else Dim3.make 8 in
  let gdim ext bl = (ext + bl - 1) / bl in
  let grid =
    if spec.rs_two_d then Dim3.make (gdim n 4) ~y:(gdim n 4)
    else Dim3.make (gdim n 8)
  in
  let launch =
    Host_ir.Launch
      {
        kernel = kernel_of_spec spec;
        grid;
        block;
        args = [ Host_ir.HInt n; Host_ir.HBuf "a"; Host_ir.HBuf "out" ];
      }
  in
  Host_ir.program ~name:"randprog"
    [
      Host_ir.Malloc ("a", total);
      Host_ir.Malloc ("out", total);
      Host_ir.Memcpy_h2d { dst = "a"; src = Host_ir.host_data a };
      (if repeat = 1 then launch else Host_ir.Repeat (repeat, [ launch ]));
      Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "out" };
      Host_ir.Free "a";
      Host_ir.Free "out";
    ]

(* ---------------- Launch-plan cache and launch graphs ---------------- *)

(* The cache must be observationally invisible: simulated time, every
   machine statistic, every traced machine op and the functional output
   must be bit-identical with the cache on and off; only the hit/miss
   counters differ.  [cache:false] rebuilds every launch's plan and
   turns launch graphs off, which makes it the oracle for both.  Each
   variant runs one engine mode the cache must compose with, on a
   functional and on a performance machine; graphs replay only on the
   performance machine, and are off under a memory cap and under
   faults. *)
type cache_variant = Plain | Overlap | Autotune | Capped | Transient | Loss

let variant_name = function
  | Plain -> "plain"
  | Overlap -> "overlap"
  | Autotune -> "autotune"
  | Capped -> "50% memory cap"
  | Transient -> "transient faults"
  | Loss -> "device loss"

(* Everything a run shows but its cache counters: time, the engine's
   transfer and tracker-op counts, the machine's stats and its full
   trace. *)
let observed (res : Mekong.Multi_gpu.result) =
  let m = res.Mekong.Multi_gpu.machine in
  let s = Gpusim.Machine.stats m in
  ( res.Mekong.Multi_gpu.time,
    metric res "engine.transfers",
    metric res "engine.tracker_ops",
    ( s.Gpusim.Machine.h2d_bytes,
      s.Gpusim.Machine.d2h_bytes,
      s.Gpusim.Machine.p2p_bytes,
      s.Gpusim.Machine.n_transfers,
      s.Gpusim.Machine.n_launches,
      s.Gpusim.Machine.kernel_seconds,
      s.Gpusim.Machine.pattern_seconds,
      s.Gpusim.Machine.transfer_seconds ),
    List.map
      (fun (e : Gpusim.Machine.event) ->
         ( e.Gpusim.Machine.ev_kind,
           e.Gpusim.Machine.ev_src,
           e.Gpusim.Machine.ev_dst,
           e.Gpusim.Machine.ev_bytes,
           e.Gpusim.Machine.ev_start,
           e.Gpusim.Machine.ev_finish ))
      (Gpusim.Machine.trace m),
    Gpusim.Machine.trace_dropped m )

let plan_counts r = (metric r "cache.plan_hits", metric r "cache.plan_misses")
let graph_counts r = (metric r "cache.graph_hits", metric r "cache.graph_misses")

let run_spec_cached ?(variant = Plain) ~functional spec ~cache ~out =
  let artifacts = compile_exn (program_of_spec ~repeat:3 spec ~result:out) in
  let exe = artifacts.Mekong.Toolchain.exe in
  let machine ?mem_capacity () =
    Gpusim.Machine.create ~functional
      (Gpusim.Config.test_box ~n_devices:spec.rs_gpus ?mem_capacity ())
  in
  (* Capacity and loss time come from a clean run of the same program. *)
  let clean () =
    let m = machine () in
    (m, Mekong.Multi_gpu.run ~machine:m exe)
  in
  let m =
    match variant with
    | Capped ->
      let m0, _ = clean () in
      let high_water =
        List.fold_left max 0
          (List.init spec.rs_gpus (Gpusim.Machine.mem_high_water m0))
      in
      machine ~mem_capacity:(max 8 (high_water / 2)) ()
    | Transient ->
      let m = machine () in
      Gpusim.Machine.inject_faults m
        (Gpusim.Faults.create
           {
             Gpusim.Faults.null_spec with
             seed = spec.rs_n;
             kernel_fault_rate = 0.1;
             transfer_fault_rate = 0.1;
           });
      m
    | Loss ->
      let _, r0 = clean () in
      let m = machine () in
      Gpusim.Machine.inject_faults m
        (Gpusim.Faults.create
           {
             Gpusim.Faults.null_spec with
             scheduled_losses =
               [ (spec.rs_gpus - 1, r0.Mekong.Multi_gpu.time /. 2.0) ];
           });
      m
    | Plain | Overlap | Autotune -> machine ()
  in
  Gpusim.Machine.enable_trace m;
  match
    Mekong.Multi_gpu.run ~cache ~checkpoint_every:2
      ~overlap:(variant = Overlap) ~autotune:(variant = Autotune) ~machine:m exe
  with
  | exception Failure msg -> Error msg
  | res -> Ok (observed res, plan_counts res, graph_counts res)

(* Variant names are stable test identifiers. *)
let cache_equivalence variant =
  QCheck.Test.make
    ~name:
      (match variant with
       | Plain -> "plan cache: cached == uncached, bit for bit"
       | v -> "sync memo, " ^ variant_name v ^ ": cached == uncached, bit for bit")
    ~count:(match variant with Plain -> 40 | Capped -> 25 | _ -> 15)
    (QCheck.make ~print:print_rand_spec gen_rand_spec)
    (fun spec ->
      (* A lost device needs a survivor. *)
      QCheck.assume (variant <> Loss || spec.rs_gpus >= 2);
      let total = if spec.rs_two_d then spec.rs_n * spec.rs_n else spec.rs_n in
      List.for_all
        (fun functional ->
           let out_on = Array.make total nan in
           let out_off = Array.make total nan in
           match
             ( run_spec_cached ~variant ~functional spec ~cache:true ~out:out_on,
               run_spec_cached ~variant ~functional spec ~cache:false ~out:out_off )
           with
           | Error e1, Error e2 -> e1 = e2
           | Ok (r_on, plan_on, graphs_on), Ok (r_off, plan_off, graphs_off) ->
             r_on = r_off
             && ((not functional) || out_on = out_off)
             && plan_off = (0, 0)
             && graphs_off = (0, 0)
             && (match variant with
                 | Plain ->
                   (* three identical launches: one miss, two hits *)
                   plan_on = (2, 1)
                 | _ -> true)
             &&
             if functional then graphs_on = (0, 0)
             else (
               match variant with
               | Plain | Overlap ->
                 (* The first period misses the plan cache, the second
                    is captured and the third replays it. *)
                 graphs_on = (1, 2)
               | Capped | Transient | Loss -> graphs_on = (0, 0)
               | Autotune -> true)
           | _ -> false)
        [ true; false ])

let prop_cache_equivalence = cache_equivalence Plain

(* Untraced, a graph's replayed periods fold (DESIGN.md §4), so the
   trace cannot witness them: compare simulated time, the engine's
   transfer and tracker-op counts, the machine's stats, every engine's
   busy seconds per category and the byte matrix. *)
let observed_untraced (res : Mekong.Multi_gpu.result) =
  let m = res.Mekong.Multi_gpu.machine in
  let busy tl =
    List.map (fun c -> (c, Gpusim.Timeline.busy_in tl c)) (Gpusim.Timeline.categories tl)
  in
  let devices =
    List.concat_map
      (fun d ->
         let c, i, o = Gpusim.Machine.device_timelines m d in
         [ c; i; o ])
      (List.init (Gpusim.Machine.n_devices m) Fun.id)
  in
  ( res.Mekong.Multi_gpu.time,
    metric res "engine.transfers",
    metric res "engine.tracker_ops",
    Gpusim.Machine.stats m,
    List.map busy
      ((Gpusim.Machine.host_timeline m :: devices)
       @ List.map snd (Gpusim.Machine.link_timelines m)),
    Gpusim.Machine.byte_matrix m )

(* Folded runs found by [prop_cache_equivalence_untraced]: its cases
   must fold somewhere, or it compares nothing a traced run does not. *)
let untraced_folds = ref 0

let prop_cache_equivalence_untraced =
  QCheck.Test.make ~name:"launch graphs, untraced: cached == uncached" ~count:40
    (QCheck.make ~print:print_rand_spec gen_rand_spec)
    (fun spec ->
      let total = if spec.rs_two_d then spec.rs_n * spec.rs_n else spec.rs_n in
      let exe =
        (compile_exn (program_of_spec ~repeat:24 spec ~result:(Array.make total nan)))
          .Mekong.Toolchain.exe
      in
      let run ~cache =
        let m =
          Gpusim.Machine.create ~functional:false
            (Gpusim.Config.test_box ~n_devices:spec.rs_gpus ())
        in
        Mekong.Multi_gpu.run ~cache ~machine:m exe
      in
      let on = run ~cache:true and off = run ~cache:false in
      if metric on "cache.graph_folded" > 0 then incr untraced_folds;
      observed_untraced on = observed_untraced off
      && metric off "cache.graph_hits" = 0
      && metric on "cache.graph_hits" > 0)

let test_untraced_folds () = checkb "some case folded" true (!untraced_folds > 0)

(* Launch graphs on a double-buffered stencil: 6 hotspot launches on 4
   devices, so 3 periods of [Launch; Swap; Launch; Swap].  The first
   period builds the plan and moves the buffers into their steady
   state, so it runs without a capture; the second is captured; the
   third replays it. *)
let stencil_run ?(functional = true) ?(cache = true) ?resume ?abort_at prog =
  let exe = (compile_exn prog).Mekong.Toolchain.exe in
  let m =
    Gpusim.Machine.create ~functional (Gpusim.Config.test_box ~n_devices:4 ())
  in
  Gpusim.Machine.enable_trace m;
  match Mekong.Multi_gpu.run_bounded ~cache ?resume ?abort_at ~machine:m exe with
  | Mekong.Multi_gpu.Done r -> (r, None)
  | Mekong.Multi_gpu.Preempted (r, h) -> (r, Some h)

let check_counts = Alcotest.(check (pair int int))

let test_cache_stats () =
  (* Hotspot swaps its buffers every iteration; the plan is keyed by
     buffer *name*, which Swap leaves stable, so all iterations after
     the first hit the cache — and the result stays golden. *)
  let prog, out, cpu = Apps.Workloads.functional_hotspot ~n:32 ~iterations:6 in
  let res, _ = stencil_run prog in
  checki "one miss" 1 (metric res "cache.plan_misses");
  checki "five hits" 5 (metric res "cache.plan_hits");
  checkb "still golden" true (out = cpu ());
  check_counts "no graphs on a functional machine" (0, 0) (graph_counts res);
  let perf, _ = stencil_run ~functional:false prog in
  let live, _ = stencil_run ~functional:false ~cache:false prog in
  check_counts "plan hits, misses" (5, 1) (plan_counts perf);
  check_counts "graph hits, misses" (1, 2) (graph_counts perf);
  checkb "replayed == live" true (observed perf = observed live)

(* A period whose launches build their plans cannot be replayed, so it
   runs live without a capture: the stencil's first period builds the
   plan and only the second is captured, one capture for its one
   site.  Buffer statements and transfers carry engine spans too. *)
let test_graphs_capture_planned () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:6 in
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  let res, _ =
    Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) @@ fun () ->
    stencil_run ~functional:false prog
  in
  let spans name =
    List.length
      (List.filter
         (fun (sp : Obs.Span.record) -> sp.Obs.Span.sp_name = name)
         (Obs.Span.records ()))
  in
  let captures = spans "graph_capture"
  and buffer_ops = List.map spans [ "malloc"; "h2d"; "d2h"; "free" ] in
  Obs.Span.reset ();
  check_counts "graph hits, misses" (1, 2) (graph_counts res);
  checki "one capture" 1 captures;
  Alcotest.(check (list int)) "malloc, h2d, d2h, free spans" [ 2; 1; 1; 2 ] buffer_ops

(* A graph is keyed by the buffers bound at its period's start and
   their tracker versions.  The inner loop runs twice, each time on a
   freshly allocated [t_out]: its second run finds the graph the first
   captured, misses on the new buffer, and captures again. *)
let test_graphs_fresh_buffers () =
  let n = 32 in
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n ~iterations:6 in
  let nest = function
    | Host_ir.Repeat (k, step) ->
      [ Host_ir.Repeat
          (2, [ Host_ir.Repeat (k, step); Host_ir.Free "t_out";
                Host_ir.Malloc ("t_out", n * n) ]) ]
    | s -> [ s ]
  in
  let prog = { prog with Host_ir.body = List.concat_map nest prog.Host_ir.body } in
  let res, _ = stencil_run ~functional:false prog in
  let live, _ = stencil_run ~functional:false ~cache:false prog in
  check_counts "graph hits, misses" (2, 4) (graph_counts res);
  checkb "replayed == live" true (observed res = observed live);
  (* Nothing indexes into the statement stream of a run with graphs:
     a preempted run and its resumption take no graph. *)
  let _, h =
    stencil_run ~functional:false ~abort_at:(res.Mekong.Multi_gpu.time /. 2.0) prog
  in
  let h = Option.get h in
  let resumed, _ = stencil_run ~functional:false ~resume:h prog in
  check_counts "resumed: no graphs" (0, 0) (graph_counts resumed)

(* A 50-iteration hotspot on 4 performance-mode GPUs replays almost
   every period and is bit-identical to the uncached run, trace
   included.  Graphs stay off wherever a graph cannot hold what the run
   does: faults, a memory cap, causal recording, preemption and
   functional machines. *)
let test_graphs_hotspot () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:64 ~iterations:50 in
  let exe = (compile_exn prog).Mekong.Toolchain.exe in
  let run ?(cache = true) ?(setup = ignore) ?mem_capacity ?abort_at () =
    let m =
      Gpusim.Machine.create ~functional:false
        (Gpusim.Config.k80_box ~n_devices:4 ?mem_capacity ())
    in
    Gpusim.Machine.enable_trace m;
    setup m;
    match Mekong.Multi_gpu.run_bounded ~cache ?abort_at ~machine:m exe with
    | Mekong.Multi_gpu.Done r | Mekong.Multi_gpu.Preempted (r, _) -> r
  in
  let replayed = run () and live = run ~cache:false () in
  let hits, misses = graph_counts replayed in
  checkb "graphs replay" true (hits > 0);
  checki "every period is replayed or run live" 25 (hits + misses);
  checkb "replayed == live" true (observed replayed = observed live);
  check_counts "plan counts" (49, 1) (plan_counts replayed);
  let high_water =
    List.fold_left max 0
      (List.init 4
         (Gpusim.Machine.mem_high_water replayed.Mekong.Multi_gpu.machine))
  in
  let off what r = check_counts (what ^ ": no graphs") (0, 0) (graph_counts r) in
  off "faults"
    (run
       ~setup:(fun m ->
           Gpusim.Machine.inject_faults m
             (Gpusim.Faults.create
                { Gpusim.Faults.null_spec with seed = 3; transfer_fault_rate = 0.01 }))
       ());
  off "50% capacity" (run ~mem_capacity:(high_water / 2) ());
  off "causal recording" (run ~setup:(fun m -> Gpusim.Machine.enable_causal m) ());
  off "abort_at" (run ~abort_at:(replayed.Mekong.Multi_gpu.time /. 2.0) ());
  let m =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  off "functional" (Mekong.Multi_gpu.run ~machine:m exe)

(* A loop whose count is not a multiple of its period: 7 hotspot
   launches are 3 periods of 2 plus 1 trailing iteration, which runs
   live after the periods. *)
let test_graphs_trailing_period () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:7 in
  let res, _ = stencil_run ~functional:false prog in
  let live, _ = stencil_run ~functional:false ~cache:false prog in
  checkb "replayed == live" true (observed res = observed live);
  check_counts "graph hits, misses" (1, 2) (graph_counts res);
  check_counts "plan hits, misses" (6, 1) (plan_counts res)

(* An autotuned double-buffered stencil on a performance machine takes
   the halo route with graphs on: the loop runs halo-tiled, not through
   a graph, and matches the uncached run. *)
let test_graphs_autotune_halo () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:128 ~iterations:24 in
  let exe = (compile_exn prog).Mekong.Toolchain.exe in
  let run ~cache =
    let m =
      Gpusim.Machine.create ~functional:false (Gpusim.Config.k80_box ~n_devices:4 ())
    in
    Gpusim.Machine.enable_trace m;
    Mekong.Multi_gpu.run ~cache ~autotune:true ~machine:m exe
  in
  let on = run ~cache:true and off = run ~cache:false in
  checkb "cached == uncached" true (observed on = observed off);
  List.iter
    (fun (name, want) -> checki name want (metric on name))
    [
      ("cache.graph_hits", 0);
      ("cache.graph_misses", 0);
      ("cache.graph_folded", 0);
      ("cache.graph_replayed_ops", 0);
      ("autotune.halo_blocks", 2);
      ("autotune.halo_steps", 24);
      ("cache.plan_hits", 0);
      ("cache.plan_misses", 1);
    ]

(* [run_bounded] rejects a non-positive checkpoint interval or abort
   time, and a handoff past the end of the expanded statement stream
   (a resumed run indexes into it, so its loops are expanded). *)
let test_run_bounded_arguments () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:6 in
  let exe = (compile_exn prog).Mekong.Toolchain.exe in
  let run ?checkpoint_every ?abort_at ?resume () =
    let m =
      Gpusim.Machine.create ~functional:false (Gpusim.Config.test_box ~n_devices:4 ())
    in
    Mekong.Multi_gpu.run_bounded ?checkpoint_every ?abort_at ?resume ~machine:m exe
  in
  Alcotest.check_raises "checkpoint_every 0"
    (Invalid_argument "Multi_gpu.run: checkpoint_every must be positive")
    (fun () -> ignore (run ~checkpoint_every:0 ()));
  Alcotest.check_raises "abort_at 0"
    (Invalid_argument "Multi_gpu.run_bounded: abort_at must be positive")
    (fun () -> ignore (run ~abort_at:0.0 ()));
  let rec expanded = function
    | Host_ir.Repeat (n, body) -> n * List.fold_left (fun acc s -> acc + expanded s) 0 body
    | _ -> 1
  in
  let len = List.fold_left (fun acc s -> acc + expanded s) 0 prog.Host_ir.body in
  checkb "the loop expands" true (len > List.length prog.Host_ir.body);
  let at h_index = { Mekong.Multi_gpu.h_index; h_buffers = [] } in
  (match run ~resume:(at len) () with
   | Mekong.Multi_gpu.Done _ -> ()
   | Mekong.Multi_gpu.Preempted _ -> Alcotest.fail "resume at the end preempted");
  Alcotest.check_raises "h_index past the stream"
    (Invalid_argument "Multi_gpu.run_bounded: resume index out of range")
    (fun () -> ignore (run ~resume:(at (len + 1)) ()))

let prop_random_kernels_golden =
  QCheck.Test.make ~name:"random affine kernels: multi-GPU == single-GPU"
    ~count:60
    (QCheck.make ~print:print_rand_spec gen_rand_spec)
    (fun spec ->
      let total = if spec.rs_two_d then spec.rs_n * spec.rs_n else spec.rs_n in
      let out_single = Array.make total nan in
      let out_multi = Array.make total nan in
      run_single (program_of_spec spec ~result:out_single);
      run_multi ~devices:spec.rs_gpus (program_of_spec spec ~result:out_multi);
      out_single = out_multi)

(* A transposed write: out[gx][gy] = a[gy][gx].  Injective, but reads
   cross the partition direction, forcing heavy synchronization. *)
let test_golden_transpose () =
  let n = 24 in
  let k =
    let open Kir in
    let dims = [| Dim_param "n"; Dim_param "n" |] in
    Kir.kernel ~name:"transpose"
      ~params:[ Scalar "n"; Array { name = "a"; dims }; Array { name = "out"; dims } ]
      [
        Local ("gx", global_id Dim3.X);
        Local ("gy", global_id Dim3.Y);
        If
          ( v "gx" < p "n" && v "gy" < p "n",
            [ store "out" [ v "gx"; v "gy" ] (load "a" [ v "gy"; v "gx" ]) ],
            [] );
      ]
  in
  let a = Array.init (n * n) (fun i -> float_of_int i) in
  let make result =
    Host_ir.program ~name:"transpose"
      [
        Host_ir.Malloc ("a", n * n);
        Host_ir.Malloc ("out", n * n);
        Host_ir.Memcpy_h2d { dst = "a"; src = Host_ir.host_data a };
        Host_ir.Launch
          {
            kernel = k;
            grid = Dim3.make 6 ~y:6;
            block = Dim3.make 4 ~y:4;
            args = [ Host_ir.HInt n; Host_ir.HBuf "a"; Host_ir.HBuf "out" ];
          };
        Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "out" };
        Host_ir.Free "a";
        Host_ir.Free "out";
      ]
  in
  let expected = Array.init (n * n) (fun i -> float_of_int ((i mod n * n) + (i / n))) in
  let out1 = Array.make (n * n) nan in
  run_single (make out1);
  checkb "transpose single correct" true (out1 = expected);
  List.iter
    (fun g ->
       let out = Array.make (n * n) nan in
       run_multi ~devices:g (make out);
       checkb (Printf.sprintf "transpose %d-GPU" g) true (out = expected))
    [ 2; 3; 5 ]

(* A two-kernel program with a dependency through a buffer: the second
   kernel reads what the first wrote, across a different partitioning. *)
let test_golden_two_kernels () =
  let n = 500 in
  let scale =
    let open Kir in
    let dims = [| Dim_param "n" |] in
    Kir.kernel ~name:"scale"
      ~params:[ Scalar "n"; Array { name = "x"; dims }; Array { name = "y"; dims } ]
      [
        Local ("gi", global_id Dim3.X);
        If (v "gi" < p "n", [ store "y" [ v "gi" ] (load "x" [ v "gi" ] * f 3.0) ], []);
      ]
  in
  let reverse_read =
    (* y2[gi] = y[n-1-gi]: reads the opposite end of the array, so the
       second launch must pull data written by other devices. *)
    let open Kir in
    let dims = [| Dim_param "n" |] in
    Kir.kernel ~name:"revread"
      ~params:[ Scalar "n"; Array { name = "y"; dims }; Array { name = "y2"; dims } ]
      [
        Local ("gi", global_id Dim3.X);
        If
          ( v "gi" < p "n",
            [ store "y2" [ v "gi" ] (load "y" [ p "n" - i 1 - v "gi" ]) ],
            [] );
      ]
  in
  let a = Array.init n (fun i -> float_of_int i) in
  let make result =
    let grid = Dim3.make ((n + 63) / 64) and block = Dim3.make 64 in
    Host_ir.program ~name:"two"
      [
        Host_ir.Malloc ("x", n);
        Host_ir.Malloc ("y", n);
        Host_ir.Malloc ("y2", n);
        Host_ir.Memcpy_h2d { dst = "x"; src = Host_ir.host_data a };
        Host_ir.Launch
          { kernel = scale; grid; block;
            args = [ Host_ir.HInt n; Host_ir.HBuf "x"; Host_ir.HBuf "y" ] };
        Host_ir.Launch
          { kernel = reverse_read; grid; block;
            args = [ Host_ir.HInt n; Host_ir.HBuf "y"; Host_ir.HBuf "y2" ] };
        Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "y2" };
        Host_ir.Free "x";
        Host_ir.Free "y";
        Host_ir.Free "y2";
      ]
  in
  let expected = Array.init n (fun i -> float_of_int (n - 1 - i) *. 3.0) in
  List.iter
    (fun g ->
       let out = Array.make n nan in
       run_multi ~devices:g (make out);
       checkb (Printf.sprintf "two kernels %d-GPU" g) true (out = expected))
    [ 1; 2; 4; 6 ]

(* Kernels that read via blockIdx and gridDim directly (no blockOff):
   per-block accesses are still affine in the blockIdx dimensions. *)
let test_golden_blockwise_kernel () =
  let n_blocks = 12 in
  let k =
    let open Kir in
    Kir.kernel ~name:"blockwise"
      ~params:
        [ Scalar "nb"; Array { name = "o"; dims = [| Dim_param "nb" |] } ]
      [
        (* one thread per block writes o[blockIdx.x] = blockIdx.x *)
        If
          ( tid Dim3.X = i 0 && bid Dim3.X < p "nb",
            [ store "o" [ bid Dim3.X ] (bid Dim3.X * f 1.0) ],
            [] );
      ]
  in
  let make result =
    Host_ir.program ~name:"blockwise"
      [
        Host_ir.Malloc ("o", n_blocks);
        Host_ir.Launch
          {
            kernel = k;
            grid = Dim3.make n_blocks;
            block = Dim3.make 4;
            args = [ Host_ir.HInt n_blocks; Host_ir.HBuf "o" ];
          };
        Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "o" };
        Host_ir.Free "o";
      ]
  in
  let expected = Array.init n_blocks float_of_int in
  List.iter
    (fun g ->
       let out = Array.make n_blocks nan in
       run_multi ~devices:g (make out);
       checkb (Printf.sprintf "blockwise %d-GPU" g) true (out = expected))
    [ 1; 3; 4 ]


(* ---------------- Instrumented writes (paper §11 fallback) ----------- *)

(* A scatter kernel: o[idx[gi]] = x[gi] * 2.  The write subscript is
   data-dependent, so the static analysis cannot model it; with
   instrumentation enabled the write sets are collected at run time. *)
let scatter_kernel =
  let open Kir in
  let dims = [| Dim_param "n" |] in
  Kir.kernel ~name:"scatter"
    ~params:
      [
        Scalar "n";
        Array { name = "idx"; dims };
        Array { name = "x"; dims };
        Array { name = "o"; dims };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If
        ( v "gi" < p "n",
          [
            Local ("j", load "idx" [ v "gi" ]);
            store "o" [ v "j" ] (load "x" [ v "gi" ] * f 2.0);
          ],
          [] );
    ]

let scatter_program ~n ~(idx : int array) ~(result : float array) =
  let x = Array.init n (fun i -> float_of_int i +. 0.25) in
  let idxf = Array.map float_of_int idx in
  let grid = Dim3.make ((n + 31) / 32) and block = Dim3.make 32 in
  Host_ir.program ~name:"scatterprog"
    [
      Host_ir.Malloc ("idx", n);
      Host_ir.Malloc ("x", n);
      Host_ir.Malloc ("o", n);
      Host_ir.Memcpy_h2d { dst = "idx"; src = Host_ir.host_data idxf };
      Host_ir.Memcpy_h2d { dst = "x"; src = Host_ir.host_data x };
      Host_ir.Launch
        {
          kernel = scatter_kernel;
          grid;
          block;
          args =
            [ Host_ir.HInt n; Host_ir.HBuf "idx"; Host_ir.HBuf "x";
              Host_ir.HBuf "o" ];
        };
      Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "o" };
      Host_ir.Free "idx";
      Host_ir.Free "x";
      Host_ir.Free "o";
    ]

let test_shadow_kernel () =
  let shadow = Mekong.Instrument.shadow_kernel Apps.Matmul.kernel in
  checks "renamed" "matmul__shadow" shadow.Kir.name;
  (* The k-loop only fed the stored value; the shadow must be smaller. *)
  checkb "value computation stripped" true
    (Kopt.size shadow < Kopt.size Apps.Matmul.kernel);
  (* The scatter shadow must keep the idx load (it feeds the write
     subscript). *)
  let sshadow = Mekong.Instrument.shadow_kernel scatter_kernel in
  let uses_idx =
    try ignore (Str.search_forward (Str.regexp_string "idx[") (Kir.to_string sshadow) 0); true
    with Not_found -> false
  in
  checkb "address loads kept" true uses_idx

let test_instrumented_model () =
  (* Without instrumentation: rejected.  With: accepted and flagged. *)
  (match Mekong.Access.analyze scatter_kernel with
   | Error (Mekong.Access.Inexact_write "o") -> ()
   | _ -> Alcotest.fail "expected static rejection");
  match Mekong.Access.analyze ~on_inexact_write:`Instrument scatter_kernel with
  | Ok a ->
    let o = Option.get (find_access a "o") in
    checkb "flagged" true o.Mekong.Access.write_instrumented;
    checkb "no static write map" true (o.Mekong.Access.write = None);
    (* the flag survives model serialization *)
    let m = Mekong.Model.of_analyses [ a ] in
    let m' = Mekong.Model.of_string (Mekong.Model.to_string m) in
    let km = Mekong.Model.find_exn m' "scatter" in
    let am = List.find (fun (x : Mekong.Model.array_model) -> x.Mekong.Model.arr = "o") km.Mekong.Model.arrays in
    checkb "flag roundtrips" true am.Mekong.Model.write_instrumented;
    (* No write map, so nothing was left unproved. *)
    checkb "vacuous write proof roundtrips" true am.Mekong.Model.write_proved
  | Error e -> Alcotest.failf "unexpected rejection: %s" (Mekong.Access.error_message e)

(* 2-D tiling (extension): partitions tile the grid exactly and the
   golden property holds — then the halo bytes must be smaller than
   with 1-D chunks. *)
let test_make_2d () =
  let grid = Dim3.make 8 ~y:6 in
  let parts = Mekong.Partition.make_2d ~grid ~axis1:Dim3.Y ~axis2:Dim3.X ~n:6 in
  checki "six tiles" 6 (List.length parts);
  checki "tiles cover grid" (Dim3.volume grid)
    (List.fold_left (fun a p -> a + Mekong.Partition.n_blocks p) 0 parts);
  (* tiles are pairwise disjoint: no block belongs to two tiles *)
  let owner = Hashtbl.create 64 in
  List.iter
    (fun p ->
       for y = (p.Mekong.Partition.min_blocks).Dim3.y
         to (p.Mekong.Partition.max_blocks).Dim3.y - 1 do
         for x = (p.Mekong.Partition.min_blocks).Dim3.x
           to (p.Mekong.Partition.max_blocks).Dim3.x - 1 do
           if Hashtbl.mem owner (x, y) then Alcotest.fail "overlapping tiles";
           Hashtbl.replace owner (x, y) p.Mekong.Partition.device
         done
       done)
    parts;
  checki "every block owned" (Dim3.volume grid) (Hashtbl.length owner)

let test_golden_2d_tiling () =
  let cpu_expected = ref [||] in
  (let prog, out, cpu = Apps.Workloads.functional_hotspot ~n:48 ~iterations:4 in
   run_single prog;
   ignore out;
   cpu_expected := cpu ());
  List.iter
    (fun g ->
       let prog, out, _ = Apps.Workloads.functional_hotspot ~n:48 ~iterations:4 in
       let artifacts = compile_exn prog in
       let m =
         Gpusim.Machine.create ~functional:true
           (Gpusim.Config.test_box ~n_devices:g ())
       in
       ignore
         (Mekong.Multi_gpu.run ~tiling:`Two_d ~machine:m
            artifacts.Mekong.Toolchain.exe);
       checkb (Printf.sprintf "2-D tiling golden on %d GPUs" g) true
         (out = !cpu_expected))
    [ 1; 2; 4; 6 ]

let test_2d_tiling_less_halo () =
  (* 2-D tiles pay a one-time redistribution (the linear H2D layout
     matches 1-D bands) but have ~4x smaller per-iteration halos, so
     they win for long-running stencils: at the paper's 1500
     iterations the total bytes must be lower, while at 20 iterations
     the redistribution dominates and 1-D must win. *)
  let bytes ~iterations tiling =
    let n = 1024 in
    let ph = Host_ir.host_phantom (n * n) in
    let prog = Apps.Hotspot.program_h ~n ~iterations ~init:ph ~result:ph in
    let artifacts = compile_exn prog in
    let m = k80_perf 16 in
    ignore
      (Mekong.Multi_gpu.run ~tiling ~machine:m artifacts.Mekong.Toolchain.exe);
    (Gpusim.Machine.stats m).Gpusim.Machine.p2p_bytes
  in
  let b1 = bytes ~iterations:600 `One_d in
  let b2 = bytes ~iterations:600 `Two_d in
  checkb
    (Printf.sprintf "long run: 2-D bytes (%d) < 1-D bytes (%d)" b2 b1)
    true (b2 < b1);
  let s1 = bytes ~iterations:20 `One_d in
  let s2 = bytes ~iterations:20 `Two_d in
  checkb
    (Printf.sprintf "short run: 1-D bytes (%d) < 2-D bytes (%d)" s1 s2)
    true (s1 < s2)

(* Enumerators vs. execution: for random partitions of the real
   benchmark kernels, the offsets a partition actually loads must be
   covered by the read enumerator (over-approximation allowed) and the
   offsets it stores must match the write enumerator exactly. *)
let check_enum_vs_execution kernel ~block ~grid ~args g =
  let a = analyze_exn kernel in
  let km = Mekong.Model.find_exn (Mekong.Model.of_analyses [ a ]) a.Mekong.Access.kernel.Kir.name in
  let enums = Mekong.Codegen.build km in
  let parts =
    List.filter
      (fun p -> not (Mekong.Partition.is_empty p))
      (Mekong.Partition.make ~grid ~axis:km.Mekong.Model.strategy ~n:g)
  in
  let part_kernel = Mekong.Partition.transform_kernel kernel in
  let dims_env =
    Host_ir.scalar_bindings kernel args
    @ List.concat_map
        (fun ax ->
           [ (Mekong.Access.bdim_name ax, Dim3.get block ax);
             (Mekong.Access.gdim_name ax, Dim3.get grid ax) ])
        Dim3.axes
  in
  (* backing store: every array gets a deterministic data array *)
  let arrays = Kir.array_params kernel in
  let scalar_env = Host_ir.scalar_bindings kernel args in
  let size_of dims =
    Array.fold_left
      (fun acc d ->
         acc
         * (match d with
            | Kir.Dim_const c -> c
            | Kir.Dim_param p -> List.assoc p scalar_env))
      1 dims
  in
  let data =
    List.map (fun (nm, dims) -> (nm, Array.init (size_of dims) (fun i -> float_of_int (i mod 97)))) arrays
  in
  List.iter
    (fun p ->
       let bindings = dims_env @ Mekong.Partition.box_bindings p ~block in
       let loads : (string, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
       let stores : (string, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 4 in
       List.iter
         (fun (nm, _) ->
            Hashtbl.replace loads nm (Hashtbl.create 16);
            Hashtbl.replace stores nm (Hashtbl.create 16))
         arrays;
       let part_args = args @ Mekong.Partition.partition_args p in
       Keval.run part_kernel ~grid:(Mekong.Partition.launch_grid p) ~block
         ~args:(Host_ir.scalar_args part_args)
         ~load:(fun nm off ->
             Hashtbl.replace (Hashtbl.find loads nm) off ();
             (List.assoc nm data).(off))
         ~store:(fun nm off _ ->
             Hashtbl.replace (Hashtbl.find stores nm) off ());
       List.iter
         (fun (nm, _) ->
            let in_ranges enum off =
              match enum with
              | None -> false
              | Some e ->
                List.exists
                  (fun (a, b) -> a <= off && off < b)
                  (Mekong.Codegen.ranges e ~bindings)
            in
            let entry = Option.get (Mekong.Codegen.entry enums nm) in
            Hashtbl.iter
              (fun off () ->
                 checkb
                   (Printf.sprintf "%s: load %s[%d] covered" kernel.Kir.name nm off)
                   true
                   (in_ranges entry.Mekong.Codegen.read off))
              (Hashtbl.find loads nm);
            Hashtbl.iter
              (fun off () ->
                 checkb
                   (Printf.sprintf "%s: store %s[%d] covered" kernel.Kir.name nm off)
                   true
                   (in_ranges entry.Mekong.Codegen.write off))
              (Hashtbl.find stores nm);
            (* exactness of writes: every enumerated write offset was
               actually stored *)
            match entry.Mekong.Codegen.write with
            | None -> ()
            | Some e ->
              List.iter
                (fun (a, b) ->
                   for off = a to b - 1 do
                     checkb
                       (Printf.sprintf "%s: enumerated write %s[%d] stored"
                          kernel.Kir.name nm off)
                       true
                       (Hashtbl.mem (Hashtbl.find stores nm) off)
                   done)
                (Mekong.Codegen.ranges e ~bindings))
         arrays)
    parts

let test_enum_vs_execution () =
  check_enum_vs_execution Apps.Hotspot.kernel ~block:Apps.Hotspot.block
    ~grid:(Apps.Hotspot.grid_for 48)
    ~args:[ Host_ir.HInt 48; Host_ir.HBuf "inp"; Host_ir.HBuf "out" ]
    3;
  check_enum_vs_execution Apps.Matmul.kernel ~block:Apps.Matmul.block
    ~grid:(Apps.Matmul.grid_for 32)
    ~args:
      [ Host_ir.HInt 32; Host_ir.HBuf "a"; Host_ir.HBuf "b"; Host_ir.HBuf "c" ]
    2;
  check_enum_vs_execution Apps.Vecadd.kernel ~block:Apps.Vecadd.block
    ~grid:(Apps.Vecadd.grid_for 300)
    ~args:
      [ Host_ir.HInt 300; Host_ir.HBuf "a"; Host_ir.HBuf "b"; Host_ir.HBuf "c" ]
    4

(* Paper-scale workload programs must validate and analyze for every
   benchmark and size (phantom host arrays, no allocation). *)
let test_workloads_wellformed () =
  List.iter
    (fun b ->
       List.iter
         (fun sz ->
            let prog = Apps.Workloads.program b sz in
            Host_ir.validate prog;
            match Mekong.Toolchain.pass1 prog with
            | Ok (model, _) ->
              List.iter
                (fun k ->
                   let km =
                     Mekong.Model.find_exn model k.Kir.name
                   in
                   let expected_axis =
                     match b with
                     | Apps.Workloads.Hotspot_b | Apps.Workloads.Matmul_b -> Dim3.Y
                     | Apps.Workloads.Nbody_b -> Dim3.X
                   in
                   checkb
                     (Printf.sprintf "%s/%s strategy"
                        (Apps.Workloads.benchmark_name b)
                        (Apps.Workloads.size_name sz))
                     true
                     (km.Mekong.Model.strategy = expected_axis))
                (Host_ir.kernels prog)
            | Error e ->
              Alcotest.failf "workload rejected: %s"
                (Mekong.Toolchain.error_message e))
         Apps.Workloads.sizes)
    Apps.Workloads.benchmarks

(* SpMV: data-dependent loop bounds force whole-array read
   over-approximation while the affine injective write keeps the kernel
   partitionable (the degradation path of §4). *)
let test_spmv_analysis () =
  let a = analyze_exn Apps.Spmv.kernel in
  let acc name = Option.get (find_access a name) in
  checkb "x over-approximated" false (acc "x").Mekong.Access.read_exact;
  checkb "vals over-approximated" false (acc "vals").Mekong.Access.read_exact;
  checkb "y write exact" true ((acc "y").Mekong.Access.write <> None);
  checks "strategy" "x" (Dim3.axis_name a.Mekong.Access.strategy)

let test_spmv_golden () =
  let m = Apps.Spmv.banded ~n:300 ~band:6 in
  let x = Array.init 300 (fun i -> 1.0 +. (0.01 *. float_of_int i)) in
  let expected = Apps.Spmv.reference ~m x in
  List.iter
    (fun g ->
       let out = Array.make 300 nan in
       run_multi ~devices:g (Apps.Spmv.program ~m ~x ~result:out);
       checkb (Printf.sprintf "spmv %d-GPU" g) true (out = expected))
    [ 1; 2; 4; 5 ]

(* Communication locality: with the y-split, hotspot's inter-device
   traffic must flow only between adjacent devices (halo exchange). *)
let test_halo_locality () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:64 ~iterations:3 in
  let artifacts = compile_exn prog in
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:4 ())
  in
  Gpusim.Machine.enable_trace m;
  ignore (Mekong.Multi_gpu.run ~machine:m artifacts.Mekong.Toolchain.exe);
  let p2ps =
    List.filter
      (fun e -> e.Gpusim.Machine.ev_kind = `P2p)
      (Gpusim.Machine.trace m)
  in
  checkb "halo transfers exist" true (p2ps <> []);
  checkb "only neighbour traffic" true
    (List.for_all
       (fun e ->
          abs (e.Gpusim.Machine.ev_src - e.Gpusim.Machine.ev_dst) = 1)
       p2ps);
  (* each halo row is one contiguous row of 64 floats = 256 bytes *)
  checkb "halo row sized" true
    (List.for_all (fun e -> e.Gpusim.Machine.ev_bytes = 64 * 4) p2ps)

let run_multi_instrumented ~devices prog =
  match Mekong.Toolchain.compile ~instrument_writes:true prog with
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)
  | Ok artifacts ->
    let m =
      Gpusim.Machine.create ~functional:true
        (Gpusim.Config.test_box ~n_devices:devices ())
    in
    ignore (Mekong.Multi_gpu.run ~machine:m artifacts.Mekong.Toolchain.exe)

let test_instrumented_scatter_golden () =
  let n = 200 in
  (* a permutation: reverse with a twist *)
  let idx = Array.init n (fun i -> (i * 7 + 3) mod n) in
  (* gcd(7, 200) = 1 so this is a permutation *)
  let expected = Array.make n nan in
  Array.iteri (fun i j -> expected.(j) <- (float_of_int i +. 0.25) *. 2.0) idx;
  List.iter
    (fun g ->
       let out = Array.make n nan in
       run_multi_instrumented ~devices:g (scatter_program ~n ~idx ~result:out);
       checkb (Printf.sprintf "scatter %d-GPU" g) true (out = expected))
    [ 1; 2; 3; 5 ]

let test_instrumented_conflict_detected () =
  let n = 96 in
  (* All threads write o[0]: partitions collide and the runtime must
     detect the hazard. *)
  let idx = Array.make n 0 in
  let out = Array.make n nan in
  checkb "conflict raises" true
    (try
       run_multi_instrumented ~devices:3 (scatter_program ~n ~idx ~result:out);
       false
     with Mekong.Instrument.Write_conflict { arr = "o"; _ } -> true)

let test_instrumented_needs_functional () =
  let n = 64 in
  let idx = Array.init n (fun i -> i) in
  let out = Array.make n nan in
  let prog = scatter_program ~n ~idx ~result:out in
  match Mekong.Toolchain.compile ~instrument_writes:true prog with
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)
  | Ok artifacts ->
    let m =
      Gpusim.Machine.create ~functional:false
        (Gpusim.Config.test_box ~n_devices:2 ())
    in
    checkb "perf mode rejected" true
      (try
         ignore (Mekong.Multi_gpu.run ~machine:m artifacts.Mekong.Toolchain.exe);
         false
       with Invalid_argument _ -> true)

(* ---------------- Engine plans ---------------- *)

(* The step list of a program's first launch on an ideal 4-GPU box, as
   the plan printer renders it. *)
let first_steps ?overlap ?(autotune = false) ?mem_capacity
    ?(instrument_writes = false) prog =
  let a =
    match Mekong.Toolchain.compile ~instrument_writes prog with
    | Ok a -> a
    | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)
  in
  let cfg = Gpusim.Config.k80_box ~n_devices:4 ?mem_capacity () in
  match Mekong.Toolchain.launch_steps ?overlap ~autotune ~cfg a with
  | (_, steps) :: _ -> Mekong.Plan.to_string steps
  | [] -> Alcotest.fail "no launch"

let lines l = String.concat "\n" l

let hotspot_prog () =
  let p, _, _ = Apps.Workloads.functional_hotspot ~n:64 ~iterations:3 in
  p

let test_plan_fig4 () =
  (* 64x64 cells in 16x16 blocks: a 4x4 grid split into block rows. *)
  checks "plain" (lines [ "sync_reads d0:4 d1:4 d2:4 d3:4"; "barrier";
                          "launch d0:4 d1:4 d2:4 d3:4";
                          "update_writes d0:4 d1:4 d2:4 d3:4" ])
    (first_steps (hotspot_prog ()));
  checks "overlap drops the barrier"
    (lines [ "sync_reads d0:4 d1:4 d2:4 d3:4"; "launch d0:4 d1:4 d2:4 d3:4";
             "update_writes d0:4 d1:4 d2:4 d3:4" ])
    (first_steps ~overlap:true (hotspot_prog ()))

let test_plan_chunked () =
  let prog () = let p, _, _ = Apps.Workloads.functional_matmul ~n:64 in p in
  let m = Gpusim.Machine.create ~functional:true (Gpusim.Config.k80_box ~n_devices:4 ()) in
  ignore (Mekong.Multi_gpu.run ~machine:m (compile_exn (prog ())).Mekong.Toolchain.exe);
  let high_water = List.fold_left max 0 (List.init 4 (Gpusim.Machine.mem_high_water m)) in
  (* 64x64 in 16x16 blocks: one block row per device, each chunked
     into single blocks along x so B's column band shrinks. *)
  checks "chunk replaces the four phases"
    "chunk d0:1+1+1+1 d1:1+1+1+1 d2:1+1+1+1 d3:1+1+1+1"
    (first_steps ~mem_capacity:(high_water / 2) (prog ()))

let test_plan_reducible () =
  let prog, _, _ = Apps.Workloads.functional_histogram ~n:4096 ~nbins:97 in
  checks "gather before, merge after"
    (lines [ "gather_bases hist:atomicAdd"; "sync_reads d0:8 d1:8 d2:8 d3:8";
             "barrier"; "launch d0:8 d1:8 d2:8 d3:8";
             "update_writes d0:8 d1:8 d2:8 d3:8"; "merge hist:atomicAdd" ])
    (first_steps prog)

let test_plan_halo () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:128 ~iterations:4 in
  (* The winner splits the 8x8 grid over two devices (4 block rows
     each, 5 once widened) with halo depth 4: one exchange of each
     band +- 4 rows of 128 cells, then four unsynchronized steps. *)
  let step =
    [ "  launch d0:40 d1:40"; "  update_writes one-stamp d0:32 d1:32";
      "  swap t_in t_out" ]
  in
  checks "one temporal block"
    (lines
       ([ "measure {"; "  halo_exchange t_in depth=4 d0:[0,8704) d1:[7680,16384)";
          "  barrier" ]
        @ List.concat [ step; step; step; step ] @ [ "}" ]))
    (first_steps ~autotune:true prog)

let test_plan_shadow () =
  let n = 200 in
  let idx = Array.init n (fun i -> (i * 7 + 3) mod n) in
  (* 200 threads in blocks of 32: seven blocks over four devices. *)
  checks "shadow after the tracker update"
    (lines [ "sync_reads d0:2 d1:2 d2:2 d3:1"; "barrier"; "launch d0:2 d1:2 d2:2 d3:1";
             "update_writes d0:2 d1:2 d2:2 d3:1"; "shadow o d0:2 d1:2 d2:2 d3:1" ])
    (first_steps ~instrument_writes:true
       (scatter_program ~n ~idx ~result:(Array.make n nan)))

let () =
  Alcotest.run "mekong"
    (base_suites
     @ [
         ( "random-golden",
           [
             qtest prop_random_kernels_golden;
             Alcotest.test_case "transpose" `Quick test_golden_transpose;
             Alcotest.test_case "two kernels" `Quick test_golden_two_kernels;
             Alcotest.test_case "blockwise" `Quick test_golden_blockwise_kernel;
             Alcotest.test_case "halo locality (trace)" `Quick test_halo_locality;
             Alcotest.test_case "workloads well-formed" `Quick test_workloads_wellformed;
             Alcotest.test_case "enumerators vs execution" `Quick test_enum_vs_execution;
             Alcotest.test_case "2-D tiles" `Quick test_make_2d;
             Alcotest.test_case "2-D tiling golden" `Quick test_golden_2d_tiling;
             Alcotest.test_case "2-D halo reduction" `Quick test_2d_tiling_less_halo;
             Alcotest.test_case "spmv analysis" `Quick test_spmv_analysis;
             Alcotest.test_case "spmv golden" `Quick test_spmv_golden;
           ] );
         ( "plan-cache",
           [
             qtest prop_cache_equivalence;
             qtest prop_cache_equivalence_untraced;
             Alcotest.test_case "untraced cases fold" `Quick test_untraced_folds;
             qtest (cache_equivalence Overlap);
             qtest (cache_equivalence Autotune);
             qtest (cache_equivalence Capped);
             qtest (cache_equivalence Transient);
             qtest (cache_equivalence Loss);
             Alcotest.test_case "hit/miss stats" `Quick test_cache_stats;
             Alcotest.test_case "graphs: capture only planned periods" `Quick
               test_graphs_capture_planned;
             Alcotest.test_case "graphs miss on fresh buffers" `Quick
               test_graphs_fresh_buffers;
             Alcotest.test_case "launch graphs replay hotspot" `Quick
               test_graphs_hotspot;
             Alcotest.test_case "graphs: trailing partial period" `Quick
               test_graphs_trailing_period;
             Alcotest.test_case "graphs: autotuned halo loop keeps its route"
               `Quick test_graphs_autotune_halo;
             Alcotest.test_case "run_bounded argument checks" `Quick
               test_run_bounded_arguments;
           ] );
         ( "instrumentation",
           [
             Alcotest.test_case "shadow kernel" `Quick test_shadow_kernel;
             Alcotest.test_case "model flag" `Quick test_instrumented_model;
             Alcotest.test_case "scatter golden" `Quick test_instrumented_scatter_golden;
             Alcotest.test_case "conflict detection" `Quick test_instrumented_conflict_detected;
             Alcotest.test_case "functional-only" `Quick test_instrumented_needs_functional;
           ] );
         ( "plan",
           [
             Alcotest.test_case "fig4 and overlap" `Quick test_plan_fig4;
             Alcotest.test_case "chunked" `Quick test_plan_chunked;
             Alcotest.test_case "reducible" `Quick test_plan_reducible;
             Alcotest.test_case "halo" `Quick test_plan_halo;
             Alcotest.test_case "shadow" `Quick test_plan_shadow;
           ] );
       ])
