(* Tests for the polyhedral data-race verifier (Verify, DESIGN.md §20):
   atomics through the parser/interpreter/compiler, witness extraction
   on genuinely racy kernels, the differential property against the
   dynamic sanitizer, and partitioned execution of reducible kernels,
   including under injected faults. *)

(* Size the global pool before anything touches it (same reason as
   test_exec: CI machines may recommend a single domain). *)
let () = Gpu_runtime.Dpool.set_default_domains 2

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let atomic_min name idx e = Kir.Atomic (Kir.AMin, name, idx, e)
let atomic_max name idx e = Kir.Atomic (Kir.AMax, name, idx, e)
let qtest = QCheck_alcotest.to_alcotest

let analyze_exn ?(check_writes = true) k =
  match
    Mekong.Access.analyze ~check_writes ~on_inexact_write:`Instrument k
  with
  | Ok a -> a
  | Error e ->
    Alcotest.failf "analysis rejected %s: %s" k.Kir.name
      (Mekong.Access.error_message e)

let model_of ?check_writes k = Mekong.Model.find_exn (Mekong.Model.of_analyses [ analyze_exn ?check_writes k ]) k.Kir.name

let verdict_of ?check_writes k =
  Mekong.Verify.verify ~kernel:k (model_of ?check_writes k)

(* ---------------- Atomics through the stack ---------------- *)

let parse_kernel_str src =
  let kernels, _ =
    Cuparse.parse_cu ~name:"t" (src ^ "\nint main() { return 0; }\n")
  in
  match kernels with [ k ] -> k | _ -> Alcotest.fail "expected one kernel"

let test_cuparse_atomics () =
  let k =
    parse_kernel_str
      {|__global__ void atomics(int n, float *h /* [n] */) {
          auto gi = (threadIdx.x + (blockIdx.x * blockDim.x));
          if ((gi < n)) {
            atomicAdd(&h[0], 1.0f);
            atomicMin(&h[1], gi);
            atomicMax(&h[2], gi);
          }
        }|}
  in
  (match k.Kir.body with
   | [ Kir.Local _;
       Kir.If
         ( _,
           [ Kir.Atomic (Kir.AAdd, "h", [ _ ], _);
             Kir.Atomic (Kir.AMin, "h", [ _ ], _);
             Kir.Atomic (Kir.AMax, "h", [ _ ], _) ],
           [] ) ] -> ()
   | _ -> Alcotest.fail "bad body shape");
  (* renders back to the same source fragment and re-parses equal *)
  let k' = parse_kernel_str (Kir.to_string k) in
  checkb "atomics round-trip through render/parse" true (k = k')

(* Interpreter and compiled executor must agree bit for bit on
   atomics.  Exact-arithmetic inputs so the accumulation order (which
   both engines fix to the same sequential thread order) is not even
   load-bearing for add. *)
let atomic_kernel =
  let open Kir in
  let n = p "n" in
  let gi = v "gi" in
  Kir.kernel ~name:"atomics3"
    ~params:
      [
        Scalar "n";
        Array { name = "a"; dims = [| Dim_param "n" |] };
        Array { name = "h"; dims = [| Dim_const 3 |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If
        ( gi < n,
          [
            atomic_add "h" [ i 0 ] (load "a" [ gi ]);
            atomic_min "h" [ i 1 ] (load "a" [ gi ]);
            atomic_max "h" [ i 2 ] (load "a" [ gi ]);
          ],
          [] );
    ]

let run_atomic_kernel engine =
  let n = 100 in
  let a = Array.init n (fun idx -> float_of_int ((idx * 11 mod 37) - 18)) in
  let h = [| 0.0; infinity; neg_infinity |] in
  let access name =
    let d = match name with "a" -> a | _ -> h in
    { Kcompile.loads = d; stores = d; touched = None }
  in
  let grid = Dim3.make 13 and block = Dim3.make 8 in
  let args = [ Keval.AInt n ] in
  (match engine with
   | `Interp ->
     let load a off = (access a).Kcompile.loads.(off) in
     let store a off v = (access a).Kcompile.stores.(off) <- v in
     Keval.run atomic_kernel ~grid ~block ~args ~load ~store
   | `Compiled -> Kcompile.run (Kcompile.compile atomic_kernel ~grid ~block ~args) ~access);
  Array.map Int64.bits_of_float h

let test_keval_kcompile_atomic_bit_identity () =
  let hi = run_atomic_kernel `Interp in
  let hc = run_atomic_kernel `Compiled in
  checkb "interpreter == compiled on atomics" true (hi = hc);
  (* and both actually reduced something *)
  checkb "add accumulated" true (hi.(0) <> Int64.bits_of_float 0.0);
  checkb "min found" true (hi.(1) <> Int64.bits_of_float infinity)

(* ---------------- Verdicts and witnesses ---------------- *)

let racy_kernel =
  let open Kir in
  let n = p "n" in
  let gi = v "gi" in
  Kir.kernel ~name:"racy"
    ~params:[ Scalar "n"; Array { name = "a"; dims = [| Dim_param "n" |] } ]
    [
      Local ("gi", global_id Dim3.X);
      If (gi < n, [ store "a" [ gi ] (load "a" [ i 0 ] + f 1.0) ], []);
    ]

let test_verify_racy_witness () =
  match verdict_of racy_kernel with
  | Mekong.Verify.Racy (w :: _ as ws) ->
    checkb "at least one witness" true (List.length ws >= 1);
    checks "witness names the array" "a" w.Mekong.Verify.w_arr;
    checkb "blocks are distinct" true
      (w.Mekong.Verify.w_block1 <> w.Mekong.Verify.w_block2);
    (* a write is involved on at least one side *)
    checkb "conflicting pair involves a write" true
      (w.Mekong.Verify.w_kind1 = Mekong.Verify.Write
       || w.Mekong.Verify.w_kind2 = Mekong.Verify.Write);
    (* the printed form is what mekongc verify shows; keep it stable *)
    checkb "witness renders" true
      (String.length (Mekong.Verify.verdict_to_string (Mekong.Verify.Racy [ w ])) > 0)
  | v ->
    Alcotest.failf "expected racy, got %s" (Mekong.Verify.verdict_to_string v)

let test_verify_safe_and_reducible () =
  checks "vecadd safe" "safe"
    (Mekong.Verify.verdict_name (verdict_of Apps.Vecadd.kernel));
  (match verdict_of Apps.Dot.kernel with
   | Mekong.Verify.Reducible [ ("out", Kir.AAdd) ] -> ()
   | v ->
     Alcotest.failf "dot: expected reducible out/add, got %s"
       (Mekong.Verify.verdict_to_string v));
  match verdict_of Apps.Histogram.kernel with
  | Mekong.Verify.Reducible [ ("hist", Kir.AAdd) ] -> ()
  | v ->
    Alcotest.failf "histogram: expected reducible hist/add, got %s"
      (Mekong.Verify.verdict_to_string v)

let test_sanitizer_flags_racy () =
  let confl =
    Mekong.Verify.sanitize racy_kernel ~grid:(Dim3.make 4)
      ~block:(Dim3.make 8) ~args:[ Keval.AInt 32 ]
  in
  checkb "sanitizer sees the race" true (confl <> []);
  (* same-operator atomics are not conflicts *)
  let confl_dot =
    Mekong.Verify.sanitize Apps.Dot.kernel ~grid:(Dim3.make 4)
      ~block:(Dim3.make 8) ~args:[ Keval.AInt 32 ]
  in
  checki "dot's atomics are clean" 0 (List.length confl_dot)

(* ---------------- Differential QCheck property ----------------

   Random one/two-access kernels over out[idx] with idx drawn from a
   pool of affine and non-affine expressions, access kinds spanning
   plain stores, atomics of each operator, and plain reads.  Whatever
   the dynamic sanitizer catches under a concrete launch, the static
   verdict must not be Safe; and every Racy verdict carries validated
   witnesses from distinct blocks. *)

type vspec = { vk : Kir.t; v_n : int; v_bx : int; v_gx : int }

let gen_idx =
  QCheck.Gen.oneofl
    [
      Kir.Var "gi";
      Kir.Iconst 0;
      Kir.Binop (Kir.Idiv, Kir.Var "gi", Kir.Iconst 2);
      Kir.Binop (Kir.Imod, Kir.Var "gi", Kir.Iconst 3);
      Kir.Binop (Kir.Sub, Kir.Binop (Kir.Sub, Kir.Param "n", Kir.Iconst 1),
                 Kir.Var "gi");
    ]

let gen_access =
  let open QCheck.Gen in
  gen_idx >>= fun idx ->
  oneofl
    [
      Kir.store "out" [ idx ] (Kir.load "a" [ Kir.Var "gi" ]);
      Kir.atomic_add "out" [ idx ] (Kir.load "a" [ Kir.Var "gi" ]);
      atomic_min "out" [ idx ] (Kir.load "a" [ Kir.Var "gi" ]);
      atomic_max "out" [ idx ] (Kir.f 2.0);
      Kir.Local ("r", Kir.load "out" [ idx ]);
    ]

let gen_vspec =
  let open QCheck.Gen in
  gen_access >>= fun a1 ->
  opt gen_access >>= fun a2 ->
  int_range 4 24 >>= fun n ->
  int_range 1 4 >>= fun bx ->
  int_range 0 1 >>= fun extra ->
  let gx = ((n + bx - 1) / bx) + extra in
  let open Kir in
  (* locals need distinct names if both accesses read *)
  let rename i = function
    | Local (_, e) -> Local (Printf.sprintf "r%d" i, e)
    | s -> s
  in
  let body = [ rename 1 a1 ] @ (match a2 with Some a -> [ rename 2 a ] | None -> []) in
  let vk =
    Kir.kernel ~name:"rand_verify"
      ~params:
        [
          Scalar "n";
          Array { name = "a"; dims = [| Dim_param "n" |] };
          Array { name = "out"; dims = [| Dim_param "n" |] };
        ]
      [ Local ("gi", global_id Dim3.X); If (v "gi" < p "n", body, []) ]
  in
  return { vk; v_n = n; v_bx = bx; v_gx = gx }

let print_vspec s =
  Printf.sprintf "n=%d block=%d grid=%d\n%s" s.v_n s.v_bx s.v_gx
    (Kir.to_string s.vk)

let prop_sanitizer_vs_verdict =
  QCheck.Test.make
    ~name:"random kernels: sanitizer conflicts imply verdict is not safe"
    ~count:60
    (QCheck.make ~print:print_vspec gen_vspec)
    (fun spec ->
       let confl =
         Mekong.Verify.sanitize spec.vk ~grid:(Dim3.make spec.v_gx)
           ~block:(Dim3.make spec.v_bx)
           ~args:[ Keval.AInt spec.v_n ]
       in
       let verdict = verdict_of ~check_writes:false spec.vk in
       let sound =
         confl = [] || verdict <> Mekong.Verify.Safe
       in
       let witnesses_valid =
         match verdict with
         | Mekong.Verify.Racy ws ->
           ws <> []
           && List.for_all
                (fun w ->
                   w.Mekong.Verify.w_block1 <> w.Mekong.Verify.w_block2)
                ws
         | _ -> true
       in
       if not sound then
         QCheck.Test.fail_reportf
           "sanitizer caught %d conflicts but verdict is safe"
           (List.length confl);
       sound && witnesses_valid)

(* ---------------- Partitioned reducible execution ---------------- *)

let compile_exe prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)

(* Reducible kernels must be bit-identical to the CPU reference and to
   themselves across 1/2/4 devices (exact-arithmetic data, so the
   partition-local accumulation + ordered merge has nothing to hide
   behind). *)
let device_sweep name mk =
  let results =
    List.map
      (fun n_devices ->
         let prog, out, cpu = mk () in
         let m =
           Gpusim.Machine.create ~functional:true
             (Gpusim.Config.test_box ~n_devices ())
         in
         let r = Mekong.Multi_gpu.run ~machine:m (compile_exe prog) in
         checkb
           (Printf.sprintf "%s golden on %d devices" name n_devices)
           true
           (Array.map Int64.bits_of_float out
            = Array.map Int64.bits_of_float (cpu ()));
         checki
           (Printf.sprintf "%s gated reducible on %d devices" name n_devices)
           1
           (int_of_float
              (Obs.Metrics.get r.Mekong.Multi_gpu.metrics "engine.gate.reducible"));
         checkb
           (Printf.sprintf "%s merged on %d devices" name n_devices)
           true
           (Obs.Metrics.get r.Mekong.Multi_gpu.metrics "engine.gate.merges"
            >= 1.0);
         Array.map Int64.bits_of_float out)
      [ 1; 2; 4 ]
  in
  match results with
  | r1 :: rest ->
    checkb (name ^ " bit-identical across device counts") true
      (List.for_all (fun r -> r = r1) rest)
  | [] -> assert false

let test_histogram_partitioned () =
  device_sweep "histogram" (fun () ->
      Apps.Workloads.functional_histogram ~n:2048 ~nbins:53)

let test_dot_partitioned () =
  device_sweep "dot" (fun () -> Apps.Workloads.functional_dot ~n:2048)

let test_link_rejects_racy_atomics () =
  (* An atomic kernel that ALSO plainly writes the reduced array is
     neither safe nor reducible; link must refuse it rather than let
     the merge silently corrupt it. *)
  let k =
    let open Kir in
    Kir.kernel ~name:"mixed"
      ~params:[ Scalar "n"; Array { name = "o"; dims = [| Dim_param "n" |] } ]
      [
        Local ("gi", global_id Dim3.X);
        If
          ( v "gi" < p "n",
            [
              atomic_add "o" [ i 0 ] (f 1.0); store "o" [ v "gi" ] (f 0.0);
            ],
            [] );
      ]
  in
  let prog =
    Host_ir.program ~name:"mixed"
      [
        Host_ir.Malloc ("o", 64);
        Host_ir.Launch
          {
            kernel = k;
            grid = Dim3.make 8;
            block = Dim3.make 8;
            args = [ Host_ir.HInt 64; Host_ir.HBuf "o" ];
          };
        Host_ir.Free "o";
      ]
  in
  match Mekong.Toolchain.compile prog with
  | Error _ -> () (* front-end may already reject; also fine *)
  | Ok _ -> Alcotest.fail "link accepted an unsound atomic kernel"
  | exception Invalid_argument m ->
    checkb "diagnostic names the kernel" true
      (String.length m > 0
       && Str.string_match (Str.regexp ".*mixed.*") m 0)

(* A reducible launch must merge exactly once even when a fault makes
   the engine run its statement again: the retry reuses the pre-launch
   base gathered by the first attempt instead of re-gathering bins that
   were already merged.  Both schedules must actually fire. *)
let faulted_reducible name mk =
  let machine () =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  let clean =
    let prog, _, _ = mk () in
    (Mekong.Multi_gpu.run ~machine:(machine ()) (compile_exe prog))
      .Mekong.Multi_gpu.time
  in
  let run spec =
    let prog, out, cpu = mk () in
    let m = machine () in
    Gpusim.Machine.inject_faults m (Gpusim.Faults.create spec);
    let r = Mekong.Multi_gpu.run ~machine:m (compile_exe prog) in
    checkb (name ^ " bit-identical to reference") true
      (Array.map Int64.bits_of_float out
       = Array.map Int64.bits_of_float (cpu ()));
    r.Mekong.Multi_gpu.faults
  in
  let lost =
    run
      {
        Gpusim.Faults.null_spec with
        seed = 1;
        scheduled_losses = [ (2, 0.5 *. clean) ];
      }
  in
  checki (name ^ " lost device 2") 1 lost.Mekong.Multi_gpu.fr_devices_lost;
  let transient =
    run
      {
        Gpusim.Faults.null_spec with
        seed = 1;
        kernel_fault_rate = 0.02;
        transfer_fault_rate = 0.02;
      }
  in
  checkb (name ^ " retried transient faults") true
    (transient.Mekong.Multi_gpu.fr_retries > 0)

let test_histogram_faults () =
  faulted_reducible "histogram" (fun () ->
      Apps.Workloads.functional_histogram ~n:65_536 ~nbins:97)

(* Histogram under the fault mix of the benchmark suite's [modes]
   workload, on that workload's seeded data: 2% transient kernel and
   transfer faults plus one device lost halfway through the clean run,
   with a checkpoint every 3 launches.  Every seed must lose its device
   and still match the reference bit for bit. *)
let test_histogram_fault_mix () =
  let n = 65_536 and nbins = 97 and gpus = 4 in
  let machine () =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:gpus ())
  in
  List.iter
    (fun seed ->
       let st = Random.State.make [| seed; Hashtbl.hash "histogram" |] in
       let data = Array.init n (fun _ -> float_of_int (Random.State.int st nbins)) in
       let result = Array.make nbins nan in
       let exe = compile_exe (Apps.Histogram.program ~n ~nbins ~data ~result) in
       let clean = (Mekong.Multi_gpu.run ~machine:(machine ()) exe).Mekong.Multi_gpu.time in
       Array.fill result 0 nbins nan;
       let m = machine () in
       Gpusim.Machine.inject_faults m
         (Gpusim.Faults.create
            {
              Gpusim.Faults.null_spec with
              seed;
              kernel_fault_rate = 0.02;
              transfer_fault_rate = 0.02;
              scheduled_losses = [ (1 + (seed mod (gpus - 1)), 0.5 *. clean) ];
            });
       let r = Mekong.Multi_gpu.run ~checkpoint_every:3 ~machine:m exe in
       let name = Printf.sprintf "seed %d" seed in
       checki (name ^ ": one device lost") 1
         r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost;
       checkb (name ^ ": bit-identical to reference") true
         (Array.map Int64.bits_of_float result
          = Array.map Int64.bits_of_float (Apps.Histogram.reference ~nbins data)))
    [ 1; 2; 3; 7 ]

let test_dot_faults () =
  faulted_reducible "dot" (fun () -> Apps.Workloads.functional_dot ~n:65_536)

let () =
  Alcotest.run "verify"
    [
      ( "atomics",
        [
          Alcotest.test_case "cuparse round-trip" `Quick test_cuparse_atomics;
          Alcotest.test_case "keval == kcompile" `Quick
            test_keval_kcompile_atomic_bit_identity;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "racy witness" `Quick test_verify_racy_witness;
          Alcotest.test_case "safe and reducible" `Quick
            test_verify_safe_and_reducible;
          Alcotest.test_case "sanitizer" `Quick test_sanitizer_flags_racy;
          qtest prop_sanitizer_vs_verdict;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "histogram 1/2/4 devices" `Quick
            test_histogram_partitioned;
          Alcotest.test_case "dot 1/2/4 devices" `Quick test_dot_partitioned;
          Alcotest.test_case "link rejects unsound atomics" `Quick
            test_link_rejects_racy_atomics;
          Alcotest.test_case "histogram under faults" `Quick
            test_histogram_faults;
          Alcotest.test_case "histogram under the suite's fault mix" `Quick
            test_histogram_fault_mix;
          Alcotest.test_case "dot under faults" `Quick test_dot_faults;
        ] );
    ]
