(* Tests for the compiled kernel executor (Kcompile), the domain pool
   (Dpool) and the race-freedom gate (a Verify.Safe verdict): the
   compiled path must be bit-identical to the Keval interpreter, both
   sequentially and when a launch is split over several domains, and
   the gate must only admit kernels whose accesses prove distinct
   blocks disjoint. *)

(* Size the global pool before anything touches it, so the Multi_gpu
   integration tests exercise the parallel path even on single-CPU CI
   machines (the recommended domain count there is 1). *)
let () = Gpu_runtime.Dpool.set_default_domains 2

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* Kernel-building forms that only the tests use. *)
let bid a = Kir.Special (Kir.Block_idx a)
let bdim a = Kir.Special (Kir.Block_dim a)
let gdim a = Kir.Special (Kir.Grid_dim a)
let sqrt_ e = Kir.Unop (Kir.Sqrt, e)
let min_ a b = Kir.Binop (Kir.Minb, a, b)
let max_ a b = Kir.Binop (Kir.Maxb, a, b)
let qtest = QCheck_alcotest.to_alcotest

(* Keval's [load]/[store] callbacks over the access records the
   compiled executor reads: each array's record is resolved once,
   stores also set [touched]. *)
let callbacks access =
  let memo = Hashtbl.create 8 in
  let find a =
    match Hashtbl.find_opt memo a with
    | Some r -> r
    | None ->
      let r = access a in
      Hashtbl.add memo a r;
      r
  in
  let load a off = (find a).Kcompile.loads.(off) in
  let store a off v =
    let r = find a in
    r.Kcompile.stores.(off) <- v;
    Option.iter (fun m -> m.(off) <- true) r.Kcompile.touched
  in
  (load, store)

(* ---------------- Dpool ---------------- *)

(* One shared pool for the direct executor tests; three participants so
   chunking, claim capping and the submitter's participation all
   engage.  Its idle workers end with the process. *)
let pool = lazy (Gpu_runtime.Dpool.create ~domains:3 ())

let test_dpool_empty_range () =
  let p = Lazy.force pool in
  let calls = ref 0 in
  checki "n=0 engages nobody" 0
    (Gpu_runtime.Dpool.parallel_for p ~n:0 (fun _ _ -> incr calls));
  checki "n<0 engages nobody" 0
    (Gpu_runtime.Dpool.parallel_for p ~n:(-5) (fun _ _ -> incr calls));
  checki "callback never ran" 0 !calls

let test_dpool_coverage () =
  let p = Lazy.force pool in
  (* n = 1 (inline), n < domains, n barely above, n >> domains: every
     index must be covered exactly once by disjoint chunks. *)
  List.iter
    (fun n ->
       let marks = Array.make n 0 in
       let d =
         Gpu_runtime.Dpool.parallel_for p ~n (fun lo hi ->
             for i = lo to hi - 1 do
               marks.(i) <- marks.(i) + 1
             done)
       in
       checkb
         (Printf.sprintf "n=%d covered exactly once" n)
         true
         (Array.for_all (fun c -> c = 1) marks);
       checkb
         (Printf.sprintf "n=%d participants within bounds" n)
         true
         (d >= 1 && d <= min n 3))
    [ 1; 2; 3; 7; 64; 1000 ]

let test_dpool_single_domain_pool () =
  (* A 1-domain pool spawns nothing and runs inline. *)
  let p1 = Gpu_runtime.Dpool.create ~domains:1 () in
  checki "size clamps to 1" 1 (Gpu_runtime.Dpool.size p1);
  let covered = ref 0 in
  checki "inline execution" 1
    (Gpu_runtime.Dpool.parallel_for p1 ~n:5 (fun lo hi ->
         covered := !covered + (hi - lo)));
  checki "full coverage" 5 !covered

let test_dpool_exception () =
  let p = Lazy.force pool in
  checkb "chunk exception reaches the submitter" true
    (try
       ignore
         (Gpu_runtime.Dpool.parallel_for p ~n:100 (fun lo _ ->
              if lo = 0 then failwith "boom"));
       false
     with Failure m -> m = "boom");
  (* the pool survives a failed job *)
  let covered = ref (Atomic.make 0) in
  ignore
    (Gpu_runtime.Dpool.parallel_for p ~n:50 (fun lo hi ->
         ignore (Atomic.fetch_and_add !covered (hi - lo))));
  checki "usable after failure" 50 (Atomic.get !covered)

(* ---------------- The race-freedom gate ---------------- *)

let model_of k =
  match Mekong.Access.analyze k with
  | Ok a -> Mekong.Model.find_exn (Mekong.Model.of_analyses [ a ]) a.Mekong.Access.kernel.Kir.name
  | Error e -> Alcotest.failf "analysis failed: %s" (Mekong.Access.error_message e)

let verdict k km = Mekong.Verify.verdict_name (Mekong.Verify.verify ~kernel:k km)

let test_gate_admits_injective () =
  List.iter
    (fun k -> checks (k.Kir.name ^ " is safe") "safe" (verdict k (model_of k)))
    [ Apps.Matmul.kernel; Apps.Hotspot.kernel; Apps.Vecadd.kernel ]

(* In-place update reading a cell every block shares: the write map is
   injective, but block b1 reads a[0] while block 0 writes it. *)
let read_write_overlap_kernel =
  let open Kir in
  Kir.kernel ~name:"rw_overlap"
    ~params:[ Scalar "n"; Array { name = "a"; dims = [| Dim_param "n" |] } ]
    [
      Local ("gi", global_id Dim3.X);
      If
        ( v "gi" < p "n",
          [ store "a" [ v "gi" ] (load "a" [ i 0 ] + f 1.0) ],
          [] );
    ]

let test_gate_rejects_races () =
  checks "cross-block read/write overlap rejected" "racy"
    (verdict read_write_overlap_kernel (model_of read_write_overlap_kernel));
  (* an instrumented write (run-time-collected pattern, paper §11) has
     no static injectivity proof: a statically-safe model flips to
     unsafe the moment one array's writes become instrumented *)
  let km = model_of Apps.Matmul.kernel in
  let km_instr =
    {
      km with
      Mekong.Model.arrays =
        List.map
          (fun (am : Mekong.Model.array_model) ->
             if am.Mekong.Model.write <> None then
               { am with Mekong.Model.write_instrumented = true }
             else am)
          km.Mekong.Model.arrays;
    }
  in
  checks "instrumented writes rejected" "unknown"
    (verdict Apps.Matmul.kernel km_instr)

(* ---------------- Kcompile unit tests ---------------- *)

(* Run a kernel under both engines with identical inputs; return the
   outcome (normal or the Invalid_argument message) and the output bit
   pattern. *)
let both_engines k ~grid ~block ~args ~n_out =
  let run exec =
    let out = Array.make n_out nan in
    let access _ = { Kcompile.loads = out; stores = out; touched = None } in
    let outcome =
      try
        (match exec with
         | `Interp ->
           let load, store = callbacks access in
           Keval.run k ~grid ~block ~args ~load ~store
         | `Compiled ->
           let c = Kcompile.compile k ~grid ~block ~args in
           Kcompile.run c ~access);
        Ok ()
      with Invalid_argument m -> Error m
    in
    (outcome, Array.map Int64.bits_of_float out)
  in
  (run `Interp, run `Compiled)

let ops_kernel =
  let open Kir in
  let k =
    Kir.kernel ~name:"ops"
      ~params:[ Array { name = "out"; dims = [| Dim_const 10 |] } ]
      [
        If
          ( global_id Dim3.X = i 0,
            [
              store "out" [ i 0 ] (Binop (Idiv, i (-7), i 2));
              store "out" [ i 1 ] (Binop (Imod, i (-7), i 2));
              store "out" [ i 2 ] (i 7 / i 2);
              store "out" [ i 3 ] (min_ (i 3) (i 5));
              store "out" [ i 4 ] (max_ (f 3.5) (f 1.5));
              store "out" [ i 5 ] (sqrt_ (f 16.0));
              store "out" [ i 6 ] (rsqrt (f 4.0));
              store "out" [ i 7 ] (Unop (Abs, f (-2.5)));
              (* ties must follow Stdlib min/max exactly *)
              store "out" [ i 8 ] (min_ (f 0.0) (f (-0.0)));
              store "out" [ i 9 ] (max_ (f (-0.0)) (f 0.0));
            ],
            [] );
      ]
  in
  k

let test_kcompile_ops_bit_identity () =
  let (ri, bi), (rc, bc) =
    both_engines ops_kernel ~grid:Dim3.one ~block:Dim3.one ~args:[] ~n_out:10
  in
  checkb "both complete" true (ri = Ok () && rc = Ok ());
  checkb "bit-identical" true (bi = bc)

let oob_kernel =
  let open Kir in
  Kir.kernel ~name:"oob"
    ~params:[ Array { name = "out"; dims = [| Dim_const 2 |] } ]
    [ store "out" [ i 5 ] (f 1.0) ]

let test_kcompile_oob_names_array () =
  let (ri, _), (rc, _) =
    both_engines oob_kernel ~grid:Dim3.one ~block:Dim3.one ~args:[] ~n_out:2
  in
  match (ri, rc) with
  | Error mi, Error mc ->
    checkb "same diagnostic" true (mi = mc);
    checkb "names the array" true
      (try
         ignore (Str.search_forward (Str.regexp_string "array out") mi 0);
         true
       with Not_found -> false);
    checkb "mentions the bound" true
      (try
         ignore (Str.search_forward (Str.regexp_string "[0,2)") mi 0);
         true
       with Not_found -> false)
  | _ -> Alcotest.fail "both engines must reject the out-of-bounds store"

let arity_kernel =
  let open Kir in
  Kir.kernel ~name:"arity"
    ~params:[ Array { name = "a"; dims = [| Dim_const 4 |] } ]
    [ store "a" [ i 0; i 1 ] (f 1.0) ]

let test_kcompile_arity_names_array () =
  let (ri, _), (rc, _) =
    both_engines arity_kernel ~grid:Dim3.one ~block:Dim3.one ~args:[] ~n_out:4
  in
  match (ri, rc) with
  | Error mi, Error mc ->
    checkb "same diagnostic" true (mi = mc);
    checkb "names array and arity" true
      (try
         ignore
           (Str.search_forward
              (Str.regexp_string "array a has 1 dimension(s), got 2") mi 0);
         true
       with Not_found -> false)
  | _ -> Alcotest.fail "both engines must reject the arity mismatch"

(* Both operands of [&&] fail their bounds check.  The interpreter
   evaluates a binary operator's right operand first, so the compiled
   executor must also name b[9], not a[7]. *)
let and_order_kernel =
  let open Kir in
  let v4 = [| Dim_const 4 |] in
  Kir.kernel ~name:"and_order"
    ~params:
      [
        Array { name = "a"; dims = v4 };
        Array { name = "b"; dims = v4 };
        Array { name = "out"; dims = v4 };
      ]
    [
      If
        ( (load "a" [ i 7 ] < f 1.0) && (load "b" [ i 9 ] < f 1.0),
          [ store "out" [ i 0 ] (f 1.0) ],
          [] );
    ]

let test_kcompile_operand_order () =
  let (ri, _), (rc, _) =
    both_engines and_order_kernel ~grid:Dim3.one ~block:Dim3.one ~args:[]
      ~n_out:4
  in
  match (ri, rc) with
  | Error mi, Error mc ->
    checks "same diagnostic" mi mc;
    checkb "names the right operand's access" true
      (try
         ignore (Str.search_forward (Str.regexp_string "9 out of bounds") mi 0);
         ignore (Str.search_forward (Str.regexp_string "array b") mi 0);
         true
       with Not_found -> false)
  | _ -> Alcotest.fail "both engines must reject the out-of-bounds loads"

(* a local bound only under a condition is not definitely bound *)
let maybe_unbound_kernel =
  let open Kir in
  Kir.kernel ~name:"maybe"
    ~params:[ Scalar "n"; Array { name = "out"; dims = [| Dim_param "n" |] } ]
    [
      Local ("gi", global_id Dim3.X);
      If (v "gi" < p "n", [ Local ("t", f 1.0) ], []);
      If (v "gi" < p "n", [ store "out" [ v "gi" ] (v "t") ], []);
    ]

(* a float condition is ill-typed *)
let float_cond_kernel =
  let open Kir in
  Kir.kernel ~name:"fcond"
    ~params:[ Array { name = "out"; dims = [| Dim_const 1 |] } ]
    [ If (f 1.0, [ store "out" [ i 0 ] (f 1.0) ], []) ]

let contains s sub =
  try ignore (Str.search_forward (Str.regexp_string sub) s 0); true with Not_found -> false

(* A local bound on one path only and a float condition: the check
   names each. *)
let test_check_rejections () =
  let rejects what k needle =
    match Kir.check k with
    | Ok () -> Alcotest.failf "%s: accepted" what
    | Error m -> checkb (what ^ ": " ^ m) true (contains m needle)
  in
  rejects "possibly-unbound local" maybe_unbound_kernel "local t may be unbound";
  rejects "float condition" float_cond_kernel "float used as a condition"

let missing_arg_kernel =
  let open Kir in
  Kir.kernel ~name:"args"
    ~params:[ Scalar "n"; Array { name = "out"; dims = [| Dim_param "n" |] } ]
    [ store "out" [ i 0 ] (f 1.0) ]

let test_kcompile_arg_mismatch_raises () =
  (* Like Keval, a scalar-argument count mismatch raises before any
     thread runs — compile time for the compiled engine. *)
  checkb "arg-count mismatch raises" true
    (try
       ignore
         (Kcompile.compile missing_arg_kernel ~grid:Dim3.one ~block:Dim3.one
            ~args:[]);
       false
     with Invalid_argument _ -> true)

(* A kernel the check rejects: [t] is bound under one guard and used
   under another. *)
let unbound_dbl_kernel =
  let open Kir in
  Kir.kernel ~name:"maybe"
    ~params:
      [
        Scalar "n";
        Array { name = "a"; dims = [| Dim_param "n" |] };
        Array { name = "out"; dims = [| Dim_param "n" |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If (v "gi" < p "n", [ Local ("t", load "a" [ v "gi" ]) ], []);
      If (v "gi" < p "n", [ store "out" [ v "gi" ] (v "t" * f 2.0) ], []);
    ]

let compiled_dbl_kernel =
  let open Kir in
  Kir.kernel ~name:"dbl"
    ~params:
      [
        Scalar "n";
        Array { name = "a"; dims = [| Dim_param "n" |] };
        Array { name = "out"; dims = [| Dim_param "n" |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If
        ( v "gi" < p "n",
          [ store "out" [ v "gi" ] (load "a" [ v "gi" ] * f 2.0) ],
          [] );
    ]

(* out[idx[gi]] = a[gi] * 2: a data-dependent write subscript, which
   the engine can only instrument (a shadow launch per partition).  The
   [unbound] variant binds [j] under one guard and uses it under
   another, which the check rejects. *)
let scatter_kernel ~unbound =
  let open Kir in
  let dims = [| Dim_param "n" |] in
  let guarded body = If (v "gi" < p "n", body, []) in
  let j = Local ("j", load "idx" [ v "gi" ]) in
  let st = store "out" [ v "j" ] (load "a" [ v "gi" ] * f 2.0) in
  Kir.kernel
    ~name:(if unbound then "scatter_maybe" else "scatter")
    ~params:
      [
        Scalar "n";
        Array { name = "idx"; dims };
        Array { name = "a"; dims };
        Array { name = "out"; dims };
      ]
    (Local ("gi", global_id Dim3.X)
     :: (if unbound then [ guarded [ j ]; guarded [ st ] ] else [ guarded [ j; st ] ]))

(* Three launches of [kernel] over n = 16 (4 blocks of 4 threads); the
   inputs are the kernel's array parameters before "out". *)
let repeat_program kernel inputs result =
  let n = Array.length result in
  let bufs = List.map fst inputs @ [ "out" ] in
  Host_ir.program ~name:"p"
    (List.map (fun b -> Host_ir.Malloc (b, n)) bufs
     @ List.map
       (fun (b, d) -> Host_ir.Memcpy_h2d { dst = b; src = Host_ir.host_data d })
       inputs
     @ [
       Host_ir.Repeat
         ( 3,
           [
             Host_ir.Launch
               {
                 kernel;
                 grid = Dim3.make 4;
                 block = Dim3.make 4;
                 args = Host_ir.HInt n :: List.map (fun b -> Host_ir.HBuf b) bufs;
               };
           ] );
       Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "out" };
     ]
     @ List.map (fun b -> Host_ir.Free b) bufs)

(* A run's exec.* series: compiles, cache hits, sequential, parallel
   and interpreted launches, max domains. *)
let exec_counts reg =
  List.map
    (fun n -> int_of_float (Obs.Metrics.get reg ("exec." ^ n)))
    [ "compiles"; "cache_hits"; "seq_launches"; "par_launches"; "interpreted";
      "max_domains" ]

(* Every engine launches through Kcompile.launch: a kernel runs
   through Single_gpu, Multi_gpu on 2 devices and instrumented shadow
   launches, with identical output bits and the exact launch counts
   each path reports; a compile is paid once per launch shape.  Every
   engine validates its program first, so a kernel the check rejects
   raises [Invalid_argument] before any launch. *)
let test_engine_launches_and_rejection () =
  let n = 16 in
  let a = Array.init n (fun i -> float_of_int i +. 0.25) in
  let perm = Array.init n (fun i -> ((i * 5) + 3) mod n) in
  let idx = Array.map float_of_int perm in
  (* scatter input permuted so every path computes out = 2a *)
  let a_perm = Array.map (fun j -> a.(j)) perm in
  let want = Array.map (fun x -> Int64.bits_of_float (x *. 2.0)) a in
  let single prog = (Single_gpu.run prog).Single_gpu.exec in
  let multi ?(instrument_writes = false) prog =
    match Mekong.Toolchain.compile ~instrument_writes prog with
    | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)
    | Ok art ->
      let m =
        Gpusim.Machine.create ~functional:true
          (Gpusim.Config.test_box ~n_devices:2 ())
      in
      (Mekong.Multi_gpu.run ~machine:m art.Mekong.Toolchain.exe).Mekong.Multi_gpu.metrics
  in
  let check label kernel inputs run counts =
    let result = Array.make n nan in
    let reg = run (repeat_program kernel inputs result) in
    checkb (label ^ ": output bits") true (Array.map Int64.bits_of_float result = want);
    Alcotest.(check (list int)) (label ^ ": exec counts") counts (exec_counts reg)
  in
  let rejected label kernel inputs run =
    match run (repeat_program kernel inputs (Array.make n nan)) with
    | _ -> Alcotest.failf "%s: ran an ill-typed kernel" label
    | exception Invalid_argument m ->
      checkb (label ^ ": " ^ m) true
        (contains m (Printf.sprintf "kernel %s: local " kernel.Kir.name) && contains m "may be unbound")
  in
  (* [launches] compiled, parallel when the gate and the pool allow;
     [exec.interpreted] stays registered at 0 *)
  let counts ~compiles ~hits ~launches ~par =
    if par then [ compiles; hits; 0; launches; 0; 2 ] else [ compiles; hits; launches; 0; 0; 1 ]
  in
  let dbl = compiled_dbl_kernel and scatter = scatter_kernel ~unbound:false in
  check "single GPU" dbl [ ("a", a) ] single (counts ~compiles:1 ~hits:2 ~launches:3 ~par:false);
  (* one shape per partition; a partition's two blocks split over the
     2-domain pool *)
  check "2 GPUs" dbl [ ("a", a) ] multi (counts ~compiles:2 ~hits:4 ~launches:6 ~par:true);
  check "single GPU scatter" scatter [ ("idx", idx); ("a", a_perm) ] single
    (counts ~compiles:1 ~hits:2 ~launches:3 ~par:false);
  (* a shadow launch before every partition launch, and no race proof
     for instrumented writes: all sequential *)
  check "2 GPUs instrumented" scatter [ ("idx", idx); ("a", a_perm) ] (multi ~instrument_writes:true)
    (counts ~compiles:4 ~hits:8 ~launches:12 ~par:false);
  let scatter = scatter_kernel ~unbound:true in
  rejected "single GPU" unbound_dbl_kernel [ ("a", a) ] single;
  rejected "2 GPUs" unbound_dbl_kernel [ ("a", a) ] multi;
  rejected "single GPU scatter" scatter [ ("idx", idx); ("a", a_perm) ] single;
  rejected "2 GPUs instrumented" scatter [ ("idx", idx); ("a", a_perm) ] (multi ~instrument_writes:true)

(* ---------------- Kernel stores ----------------

   One store serves many runs: a kernel is identified by itself, not
   by its name, and a stored kernel keeps no launch's arrays. *)

(* out[gi] = a[1][gi] * scale over n = 8 (2 blocks of 4 threads), with
   [a] a 2 x [width] array: the row offset comes from the extent. *)
let row_kernel ~scale ~width =
  let open Kir in
  Kir.kernel ~name:"row"
    ~params:
      [
        Scalar "n";
        Array { name = "a"; dims = [| Dim_const 2; Dim_const width |] };
        Array { name = "out"; dims = [| Dim_param "n" |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If (v "gi" < p "n", [ store "out" [ v "gi" ] (load "a" [ i 1; v "gi" ] * f scale) ], []);
    ]

let row_program kernel ~width result =
  let n = Array.length result in
  let a = Array.init (2 * width) (fun i -> float_of_int i +. 0.5) in
  Host_ir.program ~name:"p"
    [
      Host_ir.Malloc ("a", 2 * width);
      Host_ir.Malloc ("out", n);
      Host_ir.Memcpy_h2d { dst = "a"; src = Host_ir.host_data a };
      Host_ir.Launch
        {
          kernel;
          grid = Dim3.make 2;
          block = Dim3.make 4;
          args = [ Host_ir.HInt n; Host_ir.HBuf "a"; Host_ir.HBuf "out" ];
        };
      Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "out" };
      Host_ir.Free "a";
      Host_ir.Free "out";
    ]

(* Link [kernel]'s program afresh and run it on 2 functional devices
   through [kernels] (a private store when absent): output bits and the
   run's exec.* series. *)
let run_linked ?kernels kernel ~width =
  let result = Array.make 8 nan in
  match Mekong.Toolchain.compile (row_program kernel ~width result) with
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)
  | Ok art -> (
      let m = Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:2 ()) in
      match Mekong.Multi_gpu.run_bounded ?kernels ~machine:m art.Mekong.Toolchain.exe with
      | Mekong.Multi_gpu.Done r ->
        (Array.map Int64.bits_of_float result, exec_counts r.Mekong.Multi_gpu.metrics)
      | Mekong.Multi_gpu.Preempted _ -> Alcotest.fail "preempted without abort_at")

let keval_row kernel ~width =
  let result = Array.make 8 nan in
  ignore (Single_gpu.run ~executor:`Interpreter (row_program kernel ~width result));
  Array.map Int64.bits_of_float result

let bits = Alcotest.(array int64)

(* A second, separately linked instance of one program compiles
   nothing through a shared store, with the same output bits as a
   private store and as Keval. *)
let test_store_relinked_program () =
  let k = row_kernel ~scale:2.0 ~width:16 in
  let kernels = Kcompile.kernels () in
  let out1, c1 = run_linked ~kernels k ~width:16 in
  let out2, c2 = run_linked ~kernels k ~width:16 in
  let own, c_own = run_linked k ~width:16 in
  Alcotest.check bits "first run == Keval" (keval_row k ~width:16) out1;
  Alcotest.check bits "second run == first" out1 out2;
  Alcotest.check bits "private store == shared" own out2;
  checkb "first run compiles" true (List.hd c1 > 0);
  Alcotest.(check (list int)) "first run counts as a private store" c_own c1;
  checki "second run compiles nothing" 0 (List.hd c2);
  checki "second run hits every launch" (List.nth c_own 0 + List.nth c_own 1) (List.nth c2 1)

(* Kernels sharing a name but not a body or an extent compile
   separately in one store, each matching Keval. *)
let test_store_same_name () =
  let kernels = Kcompile.kernels () in
  List.iter
    (fun (what, scale, width) ->
       let k = row_kernel ~scale ~width in
       let out, counts = run_linked ~kernels k ~width in
       let _, c_own = run_linked k ~width in
       Alcotest.check bits (what ^ ": Keval") (keval_row k ~width) out;
       Alcotest.(check (list int)) (what ^ ": compiled separately") c_own counts)
    [ ("base", 2.0, 16); ("other body", 3.0, 16); ("other extent", 2.0, 8);
      ("negative zero", -0.0, 8); ("positive zero", 0.0, 8) ]

(* Float scalar arguments are part of the shape bit for bit: a kernel
   compiled for s = 0.0 must not serve s = -0.0. *)
let test_store_float_args () =
  let open Kir in
  let k =
    Kir.kernel ~name:"scale"
      ~params:[ Fscalar "s"; Array { name = "out"; dims = [| Dim_const 4 |] } ]
      [ store "out" [ tid Dim3.X ] (f 1.0 * p "s") ]
  in
  let ex = Kcompile.executor (Obs.Metrics.create ()) in
  List.iter
    (fun s ->
       let out = Array.make 4 nan in
       Kcompile.launch ex k ~grid:Dim3.one ~block:(Dim3.make 4) ~args:[ Keval.AFloat s ]
         ~access:(fun _ -> { Kcompile.loads = out; stores = out; touched = None });
       Alcotest.check bits (Printf.sprintf "s = %g" s)
         (Array.make 4 (Int64.bits_of_float s)) (Array.map Int64.bits_of_float out))
    [ 0.0; -0.0; 0.0 ]

(* After a launch returns or raises, a store still holding its kernel
   holds none of the launch's arrays. *)
let test_store_drops_arrays () =
  let kernels = Kcompile.kernels () in
  let k = compiled_dbl_kernel in
  let launch ~parallel ~len =
    let weak = Weak.create 2 in
    (fun () ->
       let a = Array.init 16 float_of_int and out = Array.make len 0.0 in
       Weak.set weak 0 (Some a);
       Weak.set weak 1 (Some out);
       let access = function
         | "a" -> { Kcompile.loads = a; stores = a; touched = None }
         | _ -> { Kcompile.loads = out; stores = out; touched = None }
       in
       try
         Kcompile.launch (Kcompile.executor ~kernels (Obs.Metrics.create ())) ~parallel k
           ~grid:(Dim3.make 4) ~block:(Dim3.make 4) ~args:[ Keval.AInt 16 ] ~access
       with Invalid_argument _ -> ())
      ();
    weak
  in
  List.iter
    (fun (what, parallel, len) ->
       let weak = Sys.opaque_identity (launch ~parallel ~len) in
       Gc.full_major ();
       checkb (what ^ ": arrays collected") true
         (Weak.get weak 0 = None && Weak.get weak 1 = None))
    [ ("sequential", false, 16); ("parallel", true, 16); ("raising", false, 8) ];
  ignore (Sys.opaque_identity kernels)

(* ---------------- Differential QCheck property ----------------

   Random guarded kernels out[gi] = f(a[gi], b[gi], gi, scalars ...),
   optionally with a reduction loop over a, run through the Keval
   interpreter, the compiled executor, and the compiled executor with
   the launch split over a 3-domain pool.  All three must agree bit
   for bit (the kernels write out[gi] under a gi < n guard, so blocks
   are disjoint by construction and parallel execution is admissible). *)

let gen_leaf_i =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map (fun k -> Kir.Iconst k) (QCheck.Gen.int_range (-3) 9);
      QCheck.Gen.return (Kir.Param "n");
      QCheck.Gen.return (Kir.Var "gi");
      QCheck.Gen.return (Kir.Special (Kir.Thread_idx Dim3.X));
      QCheck.Gen.return (Kir.Special (Kir.Block_idx Dim3.X));
      QCheck.Gen.return (Kir.Special (Kir.Block_dim Dim3.X));
      QCheck.Gen.return (Kir.Special (Kir.Grid_dim Dim3.X));
    ]

let rec gen_iexp fuel =
  if fuel <= 0 then gen_leaf_i
  else
    QCheck.Gen.frequency
      [
        (2, gen_leaf_i);
        ( 3,
          QCheck.Gen.map3
            (fun op a b -> Kir.Binop (op, a, b))
            (QCheck.Gen.oneofl [ Kir.Add; Kir.Sub; Kir.Mul; Kir.Minb; Kir.Maxb ])
            (gen_iexp (fuel - 1)) (gen_iexp (fuel - 1)) );
        (* integer division/modulo with a constant positive divisor:
           both engines must agree on truncation of negatives *)
        ( 1,
          QCheck.Gen.map3
            (fun op a d -> Kir.Binop (op, a, Kir.Iconst d))
            (QCheck.Gen.oneofl [ Kir.Idiv; Kir.Imod ])
            (gen_iexp (fuel - 1))
            (QCheck.Gen.int_range 1 5) );
        (1, QCheck.Gen.map (fun a -> Kir.Unop (Kir.Neg, a)) (gen_iexp (fuel - 1)));
      ]

(* [gi + k], k in [-3, 3], spelled each way the compiler folds: near
   either end of the arrays it leaves bounds, so the engines must also
   agree on which access they report. *)
let gen_sub =
  let open QCheck.Gen in
  frequency [ (3, return 0); (2, int_range (-3) 3) ] >>= fun k ->
  let gi = Kir.Var "gi" in
  if k = 0 then return gi
  else
    oneofl
      [
        Kir.Binop (Kir.Add, gi, Kir.Iconst k);
        Kir.Binop (Kir.Sub, gi, Kir.Iconst (-k));
        Kir.Binop (Kir.Add, Kir.Iconst k, gi);
      ]

let gen_load =
  QCheck.Gen.map2
    (fun a sub -> Kir.Load (a, [ sub ]))
    (QCheck.Gen.oneofl [ "a"; "b" ])
    gen_sub

let gen_leaf_f =
  QCheck.Gen.frequency
    [
      ( 1,
        QCheck.Gen.map
          (fun k -> Kir.Fconst (float_of_int k /. 4.0))
          (QCheck.Gen.int_range (-20) 20) );
      (1, QCheck.Gen.return (Kir.Param "s"));
      (2, gen_load);
    ]

let rec gen_fexp fuel =
  if fuel <= 0 then gen_leaf_f
  else
    QCheck.Gen.frequency
      [
        (2, gen_leaf_f);
        ( 3,
          QCheck.Gen.map3
            (fun op a b -> Kir.Binop (op, a, b))
            (QCheck.Gen.oneofl
               [ Kir.Add; Kir.Sub; Kir.Mul; Kir.Div; Kir.Minb; Kir.Maxb ])
            (gen_fexp (fuel - 1)) (gen_fexp (fuel - 1)) );
        (* mixed int/float arithmetic promotes to float *)
        ( 1,
          QCheck.Gen.map3
            (fun op a b -> Kir.Binop (op, a, b))
            (QCheck.Gen.oneofl [ Kir.Add; Kir.Mul ])
            (gen_iexp (fuel - 1)) (gen_fexp (fuel - 1)) );
        (1, QCheck.Gen.map (fun a -> Kir.Unop (Kir.Neg, a)) (gen_fexp (fuel - 1)));
        (1, QCheck.Gen.map (fun a -> Kir.Unop (Kir.Abs, a)) (gen_fexp (fuel - 1)));
        ( 1,
          QCheck.Gen.map
            (fun a -> Kir.Unop (Kir.Sqrt, Kir.Unop (Kir.Abs, a)))
            (gen_fexp (fuel - 1)) );
        ( 1,
          QCheck.Gen.map
            (fun a -> Kir.Unop (Kir.Rsqrt, Kir.Unop (Kir.Abs, a)))
            (gen_fexp (fuel - 1)) );
      ]

let gen_cmp_op =
  QCheck.Gen.oneofl [ Kir.Lt; Kir.Le; Kir.Gt; Kir.Ge; Kir.Eq; Kir.Ne ]

let gen_cmp fuel =
  QCheck.Gen.oneof
    [
      (* two array reads, both possibly out of bounds *)
      QCheck.Gen.map3
        (fun op a b -> Kir.Binop (op, a, b))
        gen_cmp_op gen_load gen_load;
      QCheck.Gen.map3
        (fun op a b -> Kir.Binop (op, a, b))
        gen_cmp_op (gen_fexp fuel) (gen_fexp fuel);
      QCheck.Gen.map3
        (fun op a b -> Kir.Binop (op, a, b))
        gen_cmp_op (gen_iexp fuel) (gen_iexp fuel);
    ]

let gen_bexp fuel =
  QCheck.Gen.frequency
    [
      (3, gen_cmp fuel);
      ( 1,
        QCheck.Gen.map3
          (fun op a b -> Kir.Binop (op, a, b))
          (QCheck.Gen.oneofl [ Kir.And; Kir.Or ])
          (gen_cmp (fuel - 1)) (gen_cmp (fuel - 1)) );
      (1, QCheck.Gen.map (fun a -> Kir.Unop (Kir.Not, a)) (gen_cmp (fuel - 1)));
    ]

(* [acc ± y*z] with independently int- or float-typed factors: the
   float product fuses into one step, the int product must not. *)
let gen_madd fuel =
  let open QCheck.Gen in
  let factor = oneof [ gen_iexp fuel; gen_fexp fuel ] in
  map3
    (fun op y z -> Kir.Binop (op, Kir.Var "acc", Kir.Binop (Kir.Mul, y, z)))
    (oneofl [ Kir.Add; Kir.Sub ])
    factor factor

(* [d_shared_stores]: some store leaves [out[gi]], so blocks may write
   each other's elements and a parallel run is not admissible. *)
type dspec = {
  dk : Kir.t;
  d_n : int;
  d_bx : int;
  d_gx : int;
  d_s : float;
  d_shared_stores : bool;
}

let gen_dspec =
  let open QCheck.Gen in
  gen_fexp 3 >>= fun init ->
  opt (gen_fexp 2) >>= fun loop ->
  opt (gen_madd 2) >>= fun madd ->
  gen_bexp 2 >>= fun cond ->
  gen_fexp 3 >>= fun e_then ->
  gen_fexp 3 >>= fun e_else ->
  gen_sub >>= fun sub_then ->
  gen_sub >>= fun sub_else ->
  int_range 3 40 >>= fun n ->
  int_range 1 8 >>= fun bx ->
  int_range 0 2 >>= fun extra_blocks ->
  int_range (-12) 12 >>= fun s4 ->
  let gx = ((n + bx - 1) / bx) + extra_blocks in
  let open Kir in
  let body =
    [ Local ("acc", init) ]
    @ (match loop with
       | Some factor ->
         [
           For
             {
               var = "k";
               from_ = i 0;
               to_ = p "n";
               body = [ Assign ("acc", v "acc" + (load "a" [ v "k" ] * factor)) ];
             };
         ]
       | None -> [])
    @ (match madd with Some e -> [ Assign ("acc", e) ] | None -> [])
    @ [
        If
          ( cond,
            [ store "out" [ sub_then ] (v "acc" + e_then) ],
            [ store "out" [ sub_else ] (v "acc" - e_else) ] );
      ]
  in
  let dk =
    Kir.kernel ~name:"rand_exec"
      ~params:
        [
          Scalar "n";
          Fscalar "s";
          Array { name = "a"; dims = [| Dim_param "n" |] };
          Array { name = "b"; dims = [| Dim_param "n" |] };
          Array { name = "out"; dims = [| Dim_param "n" |] };
        ]
      [
        Local ("gi", global_id Dim3.X);
        If (v "gi" < p "n", body, []);
      ]
  in
  return
    {
      dk;
      d_n = n;
      d_bx = bx;
      d_gx = gx;
      d_s = float_of_int s4 /. 4.0;
      d_shared_stores =
        Stdlib.( || )
          (Stdlib.( <> ) sub_then (Kir.Var "gi"))
          (Stdlib.( <> ) sub_else (Kir.Var "gi"));
    }

let print_dspec s =
  Printf.sprintf "n=%d block=%d grid=%d s=%g\n%s" s.d_n s.d_bx s.d_gx s.d_s
    (Kir.to_string s.dk)

let run_dspec spec engine =
  let n = spec.d_n in
  let a = Array.init n (fun i -> float_of_int ((i * 13 mod 23) - 11) /. 8.0) in
  let b = Array.init n (fun i -> float_of_int ((i * 7 mod 17) - 8) /. 4.0) in
  let out = Array.make n nan in
  let access name =
    let d = match name with "a" -> a | "b" -> b | _ -> out in
    { Kcompile.loads = d; stores = d; touched = None }
  in
  let grid = Dim3.make spec.d_gx and block = Dim3.make spec.d_bx in
  let args = [ Keval.AInt n; Keval.AFloat spec.d_s ] in
  let outcome =
    try
      (match engine with
       | `Interp ->
         let load, store = callbacks access in
         Keval.run spec.dk ~grid ~block ~args ~load ~store
       | `Seq | `Par ->
         let ck = Kcompile.compile spec.dk ~grid ~block ~args in
         let pool = match engine with `Par -> Some (Lazy.force pool) | _ -> None in
         Kcompile.run ?pool ck ~access);
      `Completed
    with Invalid_argument m -> `Raised m
  in
  (outcome, Array.map Int64.bits_of_float out)

(* Sequential runs must agree on the outputs and on the diagnostic
   (outputs written before a failing thread included).  A parallel run
   is only admissible when blocks write disjoint elements; it must then
   match a completed run exactly, and fail when the sequential run
   fails (which block fails first is then up to the schedule). *)
(* The engines run only kernels that pass [Kir.check]: a property over
   generated kernels skips the others and counts them, and its test
   prints the count. *)
let well_typed rejected k holds =
  match Kir.check k with
  | Ok () -> holds ()
  | Error _ ->
    incr rejected;
    true

let counting_rejections rejected (name, speed, run) =
  ( name,
    speed,
    fun () ->
      rejected := 0;
      run ();
      Printf.printf "%s: Kir.check rejected %d generated kernels\n%!" name !rejected )

let differential_rejected = ref 0

let prop_differential =
  QCheck.Test.make
    ~name:"random kernels: interpreter == compiled == compiled-parallel" ~count:1000
    (QCheck.make ~print:print_dspec gen_dspec)
    (fun spec ->
       well_typed differential_rejected spec.dk @@ fun () ->
       let ri = run_dspec spec `Interp in
       let rs = run_dspec spec `Seq in
       ri = rs
       && (spec.d_shared_stores
           ||
           let rp = run_dspec spec `Par in
           match fst ri with
           | `Completed -> rp = ri
           | `Raised _ -> ( match fst rp with `Raised _ -> true | `Completed -> false)))

(* The same comparison on shapes that running a block as lane sweeps
   could get wrong if it broke thread order: 2-D blocks, loops whose
   bounds differ per thread, atomics (float combines depend on their
   order), stores from different threads to one element (the last in
   thread order must win), a written array that also backs a load
   slot (the launch must then run thread by thread), conditions whose
   runs of agreeing lanes are one or two lanes long, and a branch that
   reassigns the int local its [If] tests (each lane must still take
   one branch only).  Outputs, atomic accumulators, aliased inputs and
   diagnostics must all match. *)
type lspec = {
  lk : Kir.t;
  l_n : int;
  l_block : Dim3.t;
  l_grid : Dim3.t;
  l_s : float;
  l_alias : bool;  (* "a" is backed by the array "out" writes *)
}

let print_lspec s =
  Printf.sprintf "n=%d block=%dx%d grid=%dx%d s=%g alias=%b\n%s" s.l_n
    s.l_block.Dim3.x s.l_block.Dim3.y s.l_grid.Dim3.x s.l_grid.Dim3.y s.l_s
    s.l_alias (Kir.to_string s.lk)

let gen_lspec =
  let open QCheck.Gen in
  gen_fexp 2 >>= fun init ->
  oneofl [ `None; `Per_lane; `Uniform ] >>= fun loop ->
  gen_fexp 1 >>= fun factor ->
  (* [gi mod 2] alternates branches lane by lane *)
  let parity = Kir.Binop (Kir.Imod, Kir.Var "gi", Kir.Iconst 2) in
  frequency [ (3, gen_bexp 1); (1, return parity) ] >>= fun cond ->
  gen_fexp 2 >>= fun e_then ->
  gen_fexp 2 >>= fun e_else ->
  gen_sub >>= fun sub_then ->
  gen_sub >>= fun sub_else ->
  opt (oneofl [ 2; 3 ]) >>= fun stripe ->
  opt (oneofl [ Kir.AAdd; Kir.AMin; Kir.AMax ]) >>= fun atomic ->
  bool >>= fun collide ->
  bool >>= fun alias ->
  opt (gen_bexp 1) >>= fun diverge ->
  int_range 3 40 >>= fun n ->
  int_range 1 4 >>= fun bx ->
  int_range 1 4 >>= fun by ->
  int_range 1 3 >>= fun gx ->
  int_range 1 3 >>= fun gy ->
  int_range (-12) 12 >>= fun s4 ->
  let open Kir in
  let gi = v "gi" in
  let accumulate to_ =
    [
      For
        {
          var = "k";
          from_ = i 0;
          to_;
          body = [ Assign ("acc", v "acc" + (load "a" [ v "k" ] * factor)) ];
        };
    ]
  in
  let body =
    [ Local ("acc", init) ]
    (* a launch constant assigned on some threads only *)
    @ (match diverge with
       | Some c ->
         [
           Local ("u", f 1.5);
           If (c, [ Assign ("u", p "s") ], []);
           Assign ("acc", v "acc" + v "u");
         ]
       | None -> [])
    (* lanes taking the then-branch clear the condition they tested *)
    @ (match stripe with
       | Some m ->
         [
           Local ("c", Binop (Imod, gi, i m));
           If
             ( v "c",
               [ Assign ("c", i 0); Assign ("acc", v "acc" + p "s") ],
               [ Assign ("acc", v "acc" * f 0.5) ] );
         ]
       | None -> [])
    @ (match loop with
       | `None -> []
       | `Per_lane -> accumulate (Binop (Imod, gi, i 4))
       | `Uniform -> accumulate (p "n"))
    @ [
      If
        ( cond,
          [ store "out" [ sub_then ] (v "acc" + e_then) ],
          [ store "out" [ sub_else ] (v "acc" - e_else) ] );
    ]
    @ (if collide then [ store "out" [ Binop (Idiv, gi, i 2) ] (v "acc" * f 0.5) ]
       else [])
    @ (match atomic with
       | Some op -> [ Atomic (op, "h", [ Binop (Imod, gi, i 3) ], v "acc") ]
       | None -> [])
  in
  let dims = [| Dim_param "n" |] in
  let lk =
    Kir.kernel ~name:"rand_lanes"
      ~params:
        [
          Scalar "n";
          Fscalar "s";
          Array { name = "a"; dims };
          Array { name = "b"; dims };
          Array { name = "out"; dims };
          Array { name = "h"; dims };
        ]
      [
        Local
          ( "gi",
            (global_id Dim3.Y * (gdim Dim3.X * bdim Dim3.X)) + global_id Dim3.X );
        If (gi < p "n", body, []);
      ]
  in
  return
    {
      lk;
      l_n = n;
      l_block = Dim3.make bx ~y:by;
      l_grid = Dim3.make gx ~y:gy;
      l_s = float_of_int s4 /. 4.0;
      l_alias = alias;
    }

let run_lspec spec engine =
  let n = spec.l_n in
  let out = Array.init n (fun i -> float_of_int (i mod 5) -. 2.0) in
  let a = if spec.l_alias then out else Array.init n (fun i -> float_of_int ((i * 13 mod 23) - 11) /. 8.0) in
  let b = Array.init n (fun i -> float_of_int ((i * 7 mod 17) - 8) /. 4.0) in
  let h = Array.init n (fun i -> float_of_int i /. 3.0) in
  let access name =
    let d = match name with "a" -> a | "b" -> b | "h" -> h | _ -> out in
    { Kcompile.loads = d; stores = d; touched = None }
  in
  let args = [ Keval.AInt n; Keval.AFloat spec.l_s ] in
  let grid = spec.l_grid and block = spec.l_block in
  let outcome =
    try
      (match engine with
       | `Interp ->
         let load, store = callbacks access in
         Keval.run spec.lk ~grid ~block ~args ~load ~store
       | `Compiled -> Kcompile.run (Kcompile.compile spec.lk ~grid ~block ~args) ~access);
      `Completed
    with Invalid_argument m | Failure m -> `Raised m
  in
  let bits = Array.map Int64.bits_of_float in
  (outcome, bits a, bits b, bits out, bits h)

let lane_order_rejected = ref 0

let prop_lane_order =
  QCheck.Test.make ~name:"lane-order kernels: interpreter == compiled" ~count:1000
    (QCheck.make ~print:print_lspec gen_lspec)
    (fun spec ->
       well_typed lane_order_rejected spec.lk @@ fun () ->
       run_lspec spec `Interp = run_lspec spec `Compiled)

(* ---------------- Checked kernels stay checked ----------------

   The engines launch partition clones ([Partition.transform_kernel]),
   their optimized forms and instrumentation shadows of a kernel that
   passed [Kir.check], and [Kcompile] assumes every kernel it compiles
   passed it.  Random kernels over locals of fixed types ([i*] int,
   [f*] float, [b*] bool) bind and use them on random paths, with the
   forms the optimizer folds: constant compares, [!!x], [x + 0.0],
   [x * 1], [0 * blockIdx.x], dead loads. *)
let gen_typed_kernel =
  let open QCheck.Gen in
  let name ty = map (fun k -> Printf.sprintf "%c%d" ty k) (int_range 0 1) in
  let rec exp ty fuel =
    let leaf =
      match ty with
      | 'i' ->
        oneof
          [ map (fun k -> Kir.Iconst k) (int_range 0 3); return (Kir.Param "n");
            return (Kir.Special (Kir.Block_idx Dim3.X)); map (fun v -> Kir.Var v) (name 'i') ]
      | 'f' ->
        oneof
          [ map (fun k -> Kir.Fconst (float_of_int k)) (int_range 0 2); return (Kir.Param "s");
            map (fun v -> Kir.Var v) (name 'f') ]
      | _ ->
        oneof
          [ map2 (fun a b -> Kir.Binop (Kir.Lt, Kir.Iconst a, Kir.Iconst b)) (int_range 0 2) (int_range 0 2);
            map (fun v -> Kir.Var v) (name 'b') ]
    in
    if fuel <= 0 then leaf
    else
      let sub t = exp t (fuel - 1) in
      match ty with
      | 'i' ->
        frequency
          [ (2, leaf);
            (2, map3 (fun op a b -> Kir.Binop (op, a, b)) (oneofl [ Kir.Add; Kir.Mul; Kir.Maxb; Kir.Idiv ]) (sub 'i') (sub 'i'));
            (1, map (fun a -> Kir.Binop (Kir.Add, a, Kir.Iconst 0)) (sub 'i'));
            (1, map (fun a -> Kir.Binop (Kir.Mul, Kir.Iconst 1, a)) (sub 'i'));
            (1, return (Kir.Binop (Kir.Mul, Kir.Iconst 0, Kir.Special (Kir.Block_idx Dim3.X)))) ]
      | 'f' ->
        frequency
          [ (2, leaf);
            (2, map3 (fun op a b -> Kir.Binop (op, a, b)) (oneofl [ Kir.Add; Kir.Sub; Kir.Div ]) (sub 'f') (sub 'i'));
            (1, map (fun a -> Kir.Binop (Kir.Add, a, Kir.Fconst 0.0)) (sub 'i'));
            (1, map (fun a -> Kir.Binop (Kir.Mul, a, Kir.Fconst 1.0)) (oneof [ sub 'i'; sub 'f' ]));
            (1, map (fun a -> Kir.Binop (Kir.Mul, Kir.Iconst 0, a)) (return (Kir.Param "s")));
            (1, map (fun i -> Kir.Load ("a", [ i ])) (sub 'i')) ]
      | _ ->
        frequency
          [ (2, leaf);
            (2, map3 (fun op a b -> Kir.Binop (op, a, b)) (oneofl [ Kir.Lt; Kir.Eq; Kir.Ge ]) (sub 'f') (sub 'i'));
            (1, map2 (fun a b -> Kir.Binop (Kir.And, a, b)) (sub 'b') (sub 'i'));
            (1, map (fun a -> Kir.Unop (Kir.Not, Kir.Unop (Kir.Not, a))) (oneof [ sub 'i'; sub 'b' ])) ]
  in
  let rec stmt fuel =
    let bind = oneofl [ 'i'; 'f'; 'b' ] >>= fun ty ->
      map3 (fun local v e -> if local then Kir.Local (v, e) else Kir.Assign (v, e)) bool (name ty) (exp ty 2)
    in
    let store = map2 (fun i e -> Kir.Store ("out", [ i ], e)) (exp 'i' 1) (exp 'f' 2) in
    if fuel <= 0 then oneof [ bind; store ]
    else
      frequency
        [ (4, bind); (2, store);
          (1, map3 (fun c t e -> Kir.If (c, t, e)) (oneof [ exp 'b' 2; exp 'i' 1 ]) (stmts (fuel - 1)) (stmts (fuel - 1)));
          (1, map2 (fun hi body -> Kir.For { var = "i1"; from_ = Kir.Iconst 0; to_ = hi; body }) (exp 'i' 1) (stmts (fuel - 1))) ]
  and stmts fuel = list_size (int_range 0 3) (stmt fuel) in
  map
    (fun body ->
       Kir.kernel ~name:"typed"
         ~params:
           [ Kir.Scalar "n"; Kir.Fscalar "s"; Kir.Array { name = "a"; dims = [| Kir.Dim_param "n" |] };
             Kir.Array { name = "out"; dims = [| Kir.Dim_param "n" |] } ]
         (Kir.Local ("i0", Kir.global_id Dim3.X)
          :: Kir.Local ("f0", Kir.Param "s")
          :: Kir.Local ("b0", Kir.Binop (Kir.Lt, Kir.Iconst 0, Kir.Param "n"))
          :: body))
    (list_size (int_range 1 6) (stmt 2))

let typed_rejected = ref 0

let prop_check_preserved =
  QCheck.Test.make ~name:"checked kernels: partitioned, optimized and shadow stay checked"
    ~count:1000
    (QCheck.make ~print:Kir.to_string gen_typed_kernel)
    (fun k ->
       well_typed typed_rejected k @@ fun () ->
       let part = Mekong.Partition.transform_kernel k in
       let derived = [ part; Kopt.optimize part; Kopt.optimize k; Mekong.Instrument.shadow_kernel k ] in
       List.iter
         (fun k' ->
            match Kir.check k' with
            | Ok () -> ()
            | Error m -> QCheck.Test.fail_reportf "%s: %s\n%s" k'.Kir.name m (Kir.to_string k'))
         derived;
       (* and [Kcompile] compiles the optimized clone without tripping
          an assertion *)
       ignore
         (Kcompile.compile (Kopt.optimize k) ~grid:(Dim3.make 2) ~block:(Dim3.make 3)
            ~args:[ Keval.AInt 5; Keval.AFloat 0.5 ]);
       true)

(* A dead load that faults: [x = a[gi + 100]] feeds nothing, but Keval
   raises on it, so the optimizer keeps it and the partitioned engine
   reports the diagnostic the single-GPU engine does. *)
let dead_load_kernel =
  let open Kir in
  Kir.kernel ~name:"dead_load"
    ~params:
      [
        Scalar "n";
        Array { name = "a"; dims = [| Dim_param "n" |] };
        Array { name = "out"; dims = [| Dim_param "n" |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If
        ( v "gi" < p "n",
          [ Local ("x", load "a" [ v "gi" + i 100 ]); store "out" [ v "gi" ] (load "a" [ v "gi" ] * f 2.0) ],
          [] );
    ]

(* The same load in the condition of an [If] whose branch folds away:
   the optimizer keeps the [If]. *)
let dead_cond_kernel =
  let open Kir in
  { dead_load_kernel with
    Kir.name = "dead_cond";
    body =
      [
        Local ("gi", global_id Dim3.X);
        If (load "a" [ v "gi" + i 100 ] > f 0.0, [ Local ("x", f 1.0) ], []);
      ] }

let run_2gpu p =
  match Mekong.Toolchain.compile p with
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)
  | Ok art ->
    let m = Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:2 ()) in
    ignore (Mekong.Multi_gpu.run ~machine:m art.Mekong.Toolchain.exe)

let test_dead_load_faults () =
  let n = 16 in
  let a = Array.init n float_of_int in
  let want = "Keval: index 100 out of bounds [0,16) in dim 0 of array a" in
  List.iter
    (fun k ->
       let diagnostic run =
         match run (repeat_program k [ ("a", a) ] (Array.make n nan)) with
         | () -> Alcotest.failf "%s: a faulting dead load completed" k.Kir.name
         | exception Invalid_argument m -> m
       in
       checks (k.Kir.name ^ " single GPU") want (diagnostic (fun p -> ignore (Single_gpu.run p)));
       checks (k.Kir.name ^ " 2 GPUs") want (diagnostic run_2gpu))
    [ dead_load_kernel; dead_cond_kernel ];
  checkb "the optimizer keeps it" true (Kopt.optimize dead_load_kernel = dead_load_kernel)

(* [a[gi] + 0.0f] over [-0.0] is [+0.0]: the partitioned engine runs
   the optimized kernel, which must not fold the sum to [a[gi]]. *)
let test_signed_zero_sum () =
  let n = 16 in
  let k =
    let open Kir in
    { dead_load_kernel with
      Kir.name = "plus_zero";
      body =
        [
          Local ("gi", global_id Dim3.X);
          If (v "gi" < p "n", [ store "out" [ v "gi" ] (load "a" [ v "gi" ] + f 0.0) ], []);
        ] }
  in
  let run engine =
    let out = Array.make n nan in
    engine (repeat_program k [ ("a", Array.make n (-0.0)) ] out);
    Array.map Int64.bits_of_float out
  in
  let single = run (fun p -> ignore (Single_gpu.run p)) in
  checkb "single GPU writes +0.0" true (Array.for_all (Int64.equal 0L) single);
  checkb "2 GPUs write the same bits" true (single = run run_2gpu)

(* ---------------- Lane faults and aliasing ---------------- *)

let scalar_blocks reg = int_of_float (Obs.Metrics.get reg "kcompile.scalar_blocks")

(* Run [k] through one executor and through Keval over fresh copies of
   [inputs]; both outcomes, both final arrays, and the executor's
   registry. *)
let executor_vs_keval k ~grid ~block ~args inputs =
  let run engine =
    let arrays = List.map (fun (name, d) -> (name, Array.copy d)) inputs in
    let access name =
      let d = List.assoc name arrays in
      { Kcompile.loads = d; stores = d; touched = None }
    in
    let reg = Obs.Metrics.create () in
    let outcome =
      try
        (match engine with
         | `Interp ->
           let load, store = callbacks access in
           Keval.run k ~grid ~block ~args ~load ~store
         | `Compiled ->
           Kcompile.launch (Kcompile.executor reg) k ~grid ~block ~args ~access);
        Ok ()
      with Invalid_argument m -> Error m
    in
    (outcome, List.map (fun (_, d) -> Array.map Int64.bits_of_float d) arrays, reg)
  in
  let ri, ai, _ = run `Interp and rc, ac, reg = run `Compiled in
  (ri, ai, rc, ac, reg)

(* Lane 5 of block 1 (gi = 13) stores out of bounds after lanes 0–4
   of its block stored: the lane run must be dropped and the block
   re-run thread by thread, leaving exactly Keval's partial outputs. *)
let lane_fault_kernel =
  let open Kir in
  Kir.kernel ~name:"lane_fault"
    ~params:
      [
        Array { name = "a"; dims = [| Dim_const 16 |] };
        Array { name = "out"; dims = [| Dim_const 16 |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      store "out" [ v "gi" ] (load "a" [ v "gi" ] * f 2.0);
      If (v "gi" = i 13, [ store "out" [ v "gi" + i 100 ] (f 1.0) ], []);
    ]

let test_kcompile_lane_fault_rerun () =
  let ri, ai, rc, ac, reg =
    executor_vs_keval lane_fault_kernel ~grid:(Dim3.make 2) ~block:(Dim3.make 8)
      ~args:[]
      [ ("a", Array.init 16 float_of_int); ("out", Array.make 16 (-1.0)) ]
  in
  (match (ri, rc) with
   | Error mi, Error mc -> checks "same diagnostic" mi mc
   | _ -> Alcotest.fail "both engines must reject the out-of-bounds store");
  checkb "same partial outputs" true (ai = ac);
  checki "the faulting block re-ran at width 1" 1 (scalar_blocks reg)

(* y[i] = y[i] * 2 reads the array it writes: not lane-safe, so every
   block runs thread by thread. *)
let in_place_kernel =
  let open Kir in
  Kir.kernel ~name:"in_place"
    ~params:[ Scalar "n"; Array { name = "y"; dims = [| Dim_param "n" |] } ]
    [
      Local ("gi", global_id Dim3.X);
      If (v "gi" < p "n", [ store "y" [ v "gi" ] (load "y" [ v "gi" ] * f 2.0) ], []);
    ]

let test_kcompile_in_place_width1 () =
  let ri, ai, rc, ac, reg =
    executor_vs_keval in_place_kernel ~grid:(Dim3.make 3) ~block:(Dim3.make 8)
      ~args:[ Keval.AInt 20 ]
      [ ("y", Array.init 20 (fun i -> float_of_int i /. 4.0)) ]
  in
  checkb "both complete" true (ri = Ok () && rc = Ok ());
  checkb "bit-identical" true (ai = ac);
  checki "every block ran at width 1" 3 (scalar_blocks reg)

(* Each thread stores 1,100 times, so a 256-thread block would log
   281,600 entries, over the log's cap of 2^18: the block runs at width
   1 instead, with the same results. *)
let long_log_kernel =
  let open Kir in
  Kir.kernel ~name:"long_log"
    ~params:[ Array { name = "out"; dims = [| Dim_const 256 |] } ]
    [
      For
        {
          var = "k";
          from_ = i 0;
          to_ = i 1100;
          body = [ store "out" [ tid Dim3.X ] (v "k" * f 0.5) ];
        };
    ]

let test_kcompile_log_cap () =
  let ri, ai, rc, ac, reg =
    executor_vs_keval long_log_kernel ~grid:Dim3.one ~block:(Dim3.make 256) ~args:[]
      [ ("out", Array.make 256 0.0) ]
  in
  checkb "both complete" true (ri = Ok () && rc = Ok ());
  checkb "bit-identical" true (ai = ac);
  checki "the block ran at width 1" 1 (scalar_blocks reg)

(* One compiled kernel launched through one executor, alternating
   launches that run thread by thread (["a"] aliases ["out"]) with
   lane-mode ones, one of which faults and re-runs its second block
   thread by thread.  Four threads store each element of ["out"] and
   the first of them stores it twice, so a lane-mode block whose stores
   went straight to the arrays, as a thread-by-thread block's do, would
   leave that thread's second value instead of the fourth thread's. *)
let mixed_modes_kernel =
  let open Kir in
  let quarter = Binop (Idiv, v "gi", i 4) in
  Kir.kernel ~name:"mixed_modes"
    ~params:
      [
        Array { name = "a"; dims = [| Dim_const 16 |] };
        Array { name = "out"; dims = [| Dim_const 16 |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      Local ("x", load "a" [ i 15 - v "gi" ]);
      store "out" [ quarter ] (v "x" + f 1.0);
      If (Binop (Imod, v "gi", i 4) = i 0, [ store "out" [ quarter ] (v "x" * f 2.0) ], []);
      If (v "x" > f 100.0, [ store "out" [ v "gi" + i 100 ] (f 0.0) ], []);
    ]

let test_kcompile_mixed_block_modes () =
  let reg = Obs.Metrics.create () in
  let ex = Kcompile.executor reg in
  let k = mixed_modes_kernel and grid = Dim3.make 2 and block = Dim3.make 8 in
  let run ~alias ~fault f =
    let out = Array.init 16 (fun i -> float_of_int i -. 0.5) in
    let a =
      if alias then out
      else Array.init 16 (fun i -> if fault && i = 2 then 200.0 else float_of_int i /. 4.0)
    in
    let access name =
      let d = if name = "a" then a else out in
      { Kcompile.loads = d; stores = d; touched = None }
    in
    let outcome = try f access; Ok () with Invalid_argument m -> Error m in
    (outcome, Array.map Int64.bits_of_float out)
  in
  List.iteri
    (fun n (alias, fault, narrow) ->
       let before = scalar_blocks reg in
       let compiled =
         run ~alias ~fault (fun access -> Kcompile.launch ex k ~grid ~block ~args:[] ~access)
       in
       let interpreted =
         run ~alias ~fault (fun access ->
             let load, store = callbacks access in
             Keval.run k ~grid ~block ~args:[] ~load ~store)
       in
       let what = Printf.sprintf "launch %d (alias=%b fault=%b)" n alias fault in
       checkb (what ^ ": outputs and diagnostic match Keval") true (compiled = interpreted);
       checkb (what ^ ": raises exactly when faulting") fault (Result.is_error (fst compiled));
       checki (what ^ ": blocks run thread by thread") narrow (scalar_blocks reg - before))
    [
      (false, false, 0); (true, false, 2); (false, false, 0); (false, true, 1);
      (false, false, 0); (true, false, 2); (false, false, 0);
    ];
  checki "compiled once" 1 (int_of_float (Obs.Metrics.get reg "exec.compiles"))

(* ---------------- Block-class guards ----------------

   Random affine guards over random 1-, 2- and 3-D launches: each
   compare side is [k + Σ ct·tid + Σ cg·gid + cn·n], coefficients in
   [-3, 3], where [gid.a] is a local bound once to
   [tid.a + (off.a + bid.a) * bdim.a] (the partitioned kernel's global
   index, [off] a partition's block offset).  The grid is [n] over the
   block rounded up, so the last blocks straddle [n].  For every block
   the classifier must match brute force over the block's threads and
   the polyhedral oracle ([Poly.is_empty] over the block's thread box,
   exact here: the box is integral and each compare one inequality). *)

type gside = { g_k : int; g_ct : int array; g_cg : int array; g_cn : int }
type gspec = {
  gs_dims : int;  (* axes in use, x first *)
  gs_block : Dim3.t;
  gs_grid : Dim3.t;
  gs_off : int array;
  gs_n : int;
  gs_cmps : (Kir.binop * gside * gside) list;
}

let axes3 = [| Dim3.X; Dim3.Y; Dim3.Z |]
let gid_name a = "g" ^ Dim3.axis_name a

let guard_kernel spec =
  let open Kir in
  let side s =
    let terms = ref (i s.g_k) in
    Array.iteri
      (fun a c ->
         if Stdlib.( <> ) c 0 then terms := !terms + (i c * tid axes3.(a));
         if Stdlib.( <> ) s.g_cg.(a) 0 then terms := !terms + (i s.g_cg.(a) * v (gid_name axes3.(a))))
      s.g_ct;
    if Stdlib.( <> ) s.g_cn 0 then !terms + (i s.g_cn * p "n") else !terms
  in
  let cond =
    match List.map (fun (op, a, b) -> Binop (op, side a, side b)) spec.gs_cmps with
    | c :: rest -> List.fold_left ( && ) c rest
    | [] -> assert false
  in
  let off a = p ("off" ^ Dim3.axis_name a) in
  let k =
    Kir.kernel ~name:"guard"
      ~params:
        ([ Scalar "n" ]
         @ List.map (fun a -> Scalar ("off" ^ Dim3.axis_name a)) [ Dim3.X; Dim3.Y; Dim3.Z ]
         @ [ Array { name = "out"; dims = [| Dim_const 1 |] } ])
      (List.map
         (fun a -> Local (gid_name a, tid a + ((off a + bid a) * bdim a)))
         [ Dim3.X; Dim3.Y; Dim3.Z ]
       @ [ If (cond, [ store "out" [ i 0 ] (f 1.0) ], []) ])
  in
  (k, cond)

let gen_gspec =
  let open QCheck.Gen in
  let coef = int_range (-3) 3 in
  int_range 1 3 >>= fun dims ->
  let ext a = if a < dims then int_range 1 5 else return 1 in
  ext 0 >>= fun bx ->
  ext 1 >>= fun by ->
  ext 2 >>= fun bz ->
  int_range 1 13 >>= fun n ->
  array_size (return 3) (int_range 0 4) >>= fun off ->
  let used arr = Array.mapi (fun i c -> if i < dims then c else 0) arr in
  let gen_side =
    int_range (-8) 8 >>= fun k ->
    array_size (return 3) coef >>= fun ct ->
    array_size (return 3) coef >>= fun cg ->
    coef >>= fun cn -> return { g_k = k; g_ct = used ct; g_cg = used cg; g_cn = cn }
  in
  list_size (int_range 1 3)
    (triple (oneofl [ Kir.Lt; Kir.Le; Kir.Gt; Kir.Ge ]) gen_side gen_side)
  >>= fun cmps ->
  let block = Dim3.make bx ~y:by ~z:bz in
  let cover e = (n + e - 1) / e in
  let grid =
    Dim3.make (cover bx) ~y:(if dims > 1 then cover by else 1) ~z:(if dims > 2 then cover bz else 1)
  in
  return { gs_dims = dims; gs_block = block; gs_grid = grid; gs_off = off; gs_n = n; gs_cmps = cmps }

let print_gspec s =
  Printf.sprintf "n=%d block=%s grid=%s off=%d,%d,%d\n%s" s.gs_n (Dim3.to_string s.gs_block)
    (Dim3.to_string s.gs_grid) s.gs_off.(0) s.gs_off.(1) s.gs_off.(2)
    (Kir.to_string (fst (guard_kernel s)))

let gargs s = List.map (fun v -> Keval.AInt v) (s.gs_n :: Array.to_list s.gs_off)

(* A side's value at one thread of one block. *)
let side_at s b t side =
  let v = ref (side.g_k + (side.g_cn * s.gs_n)) in
  for a = 0 to 2 do
    let bd = Dim3.get s.gs_block axes3.(a) in
    let gid = t.(a) + ((s.gs_off.(a) + b.(a)) * bd) in
    v := !v + (side.g_ct.(a) * t.(a)) + (side.g_cg.(a) * gid)
  done;
  !v

let holds op x y =
  match op with Kir.Lt -> x < y | Kir.Le -> x <= y | Kir.Gt -> x > y | _ -> x >= y

let threads s =
  let out = ref [] in
  Dim3.iter s.gs_block (fun t -> out := [| t.Dim3.x; t.Dim3.y; t.Dim3.z |] :: !out);
  !out

(* One compare over a block's threads, as (all true, all false). *)
let brute s b (op, x, y) =
  let vals = List.map (fun t -> holds op (side_at s b t x) (side_at s b t y)) (threads s) in
  (List.for_all Fun.id vals, not (List.exists Fun.id vals))

(* The same compare as a constraint over the thread box, block fixed:
   [op] or its integer negation. *)
let poly_empty s b (op, x, y) ~negated =
  let sp = Ppoly.Space.make ~params:[||] ~dims:[| "tx"; "ty"; "tz" |] in
  let aff side =
    let at0 = side_at s b [| 0; 0; 0 |] side in
    (* [gid.a] moves with [tid.a] one for one. *)
    let terms = List.init 3 (fun a -> (side.g_ct.(a) + side.g_cg.(a), [| "tx"; "ty"; "tz" |].(a))) in
    Ppoly.Aff.of_terms sp terms ~const:at0
  in
  let op = if negated then match op with Kir.Lt -> Kir.Ge | Kir.Le -> Kir.Gt | Kir.Gt -> Kir.Le | _ -> Kir.Lt else op in
  let c =
    (match op with
     | Kir.Lt -> Ppoly.Constr.lt2
     | Kir.Le -> Ppoly.Constr.le2
     | Kir.Gt -> Ppoly.Constr.gt2
     | _ -> Ppoly.Constr.ge2)
      (aff x) (aff y)
  in
  let box =
    List.concat_map
      (fun a ->
         let name = [| "tx"; "ty"; "tz" |].(a) in
         let t = Ppoly.Aff.var sp name in
         [ Ppoly.Constr.ge2 t (Ppoly.Aff.const sp 0);
           Ppoly.Constr.le2 t (Ppoly.Aff.const sp (Dim3.get s.gs_block axes3.(a) - 1)) ])
      [ 0; 1; 2 ]
  in
  Ppoly.Poly.is_empty (Ppoly.Poly.make sp (c :: box))

let prop_guard_classifier =
  QCheck.Test.make ~name:"block classifier == brute force == Poly over the thread box" ~count:500
    (QCheck.make ~print:print_gspec gen_gspec)
    (fun s ->
       let k, cond = guard_kernel s in
       match
         Kcompile.guard_classifier k ~grid:s.gs_grid ~block:s.gs_block ~args:(gargs s) cond
       with
       | None -> QCheck.Test.fail_report "an affine guard did not fold"
       | Some classify ->
         let ok = ref true in
         Dim3.iter s.gs_grid (fun bi ->
             let b = [| bi.Dim3.x; bi.Dim3.y; bi.Dim3.z |] in
             let per = List.map (brute s b) s.gs_cmps in
             let all_true = List.for_all fst per and some_false = List.exists snd per in
             let poly_true = List.for_all (poly_empty s b ~negated:true) s.gs_cmps in
             let poly_false = List.exists (poly_empty s b ~negated:false) s.gs_cmps in
             let want =
               if all_true then Kcompile.All_true
               else if some_false then Kcompile.All_false
               else Kcompile.Mixed
             in
             (* A whole-guard check: the classifier never claims a class
                some thread contradicts. *)
             let lanes =
               List.map
                 (fun t -> List.for_all (fun (op, x, y) -> holds op (side_at s b t x) (side_at s b t y)) s.gs_cmps)
                 (threads s)
             in
             let got = classify bi in
             let sound =
               match got with
               | Kcompile.All_true -> List.for_all Fun.id lanes
               | Kcompile.All_false -> not (List.exists Fun.id lanes)
               | Kcompile.Mixed -> true
             in
             if not (got = want && sound && poly_true = all_true && poly_false = some_false) then
               ok := false);
         !ok)

(* Guards that must not fold: a local a branch reassigns, a loop
   counter, and a guard that reads an array. *)
let unfoldable =
  let open Kir in
  let params =
    [ Scalar "n"; Array { name = "a"; dims = [| Dim_param "n" |] };
      Array { name = "out"; dims = [| Dim_param "n" |] } ]
  in
  let gi = global_id Dim3.X in
  [
    ( "reassigned local",
      Kir.kernel ~name:"reassigned" ~params
        [
          Local ("x", gi);
          If (load "a" [ i 0 ] > f 0.0, [ Assign ("x", gi - i 1) ], []);
          If (v "x" < p "n", [ store "out" [ v "x" ] (f 1.0) ], []);
        ],
      v "x" < p "n" );
    ( "loop counter",
      Kir.kernel ~name:"counter" ~params
        [
          Local ("gi", gi);
          For
            {
              var = "k";
              from_ = i 0;
              to_ = i 3;
              body = [ If (v "k" < v "gi", [ store "out" [ v "gi" ] (f 2.0) ], []) ];
            };
        ],
      v "k" < v "gi" );
    ( "load in guard",
      Kir.kernel ~name:"loaded" ~params
        [
          Local ("gi", gi);
          If (v "gi" < p "n" && load "a" [ v "gi" ] < f 0.5, [ store "out" [ v "gi" ] (f 3.0) ], []);
        ],
      v "gi" < p "n" && load "a" [ v "gi" ] < f 0.5 );
  ]

let guards reg name = int_of_float (Obs.Metrics.get reg ("kcompile.guards_" ^ name))

(* Folded guards run the executor bit-identically to Keval, diagnostics
   included; unfoldable ones are classified by nobody. *)
let test_folded_guards_match_keval () =
  let n = 37 in
  let a = Array.init n (fun i -> float_of_int ((i * 7) mod 11) /. 8.0 -. 0.25) in
  let inputs = [ ("a", a); ("out", Array.make n nan) ] in
  let grid = Dim3.make ((n + 7) / 8) and block = Dim3.make 8 in
  let args = [ Keval.AInt n ] in
  let same what (ri, ai, rc, ac, _) = checkb (what ^ ": outputs and diagnostic match Keval") true (ri = rc && ai = ac) in
  (* The hotspot stencil, 2-D, partitioned: interior blocks fold every
     guard. *)
  let part = Kopt.optimize (Mekong.Partition.transform_kernel Apps.Hotspot.kernel) in
  let hn = 40 in
  let hg = Apps.Hotspot.grid_for hn in
  let hargs =
    Keval.AInt hn
    :: List.concat_map (fun ax -> [ Keval.AInt 0; Keval.AInt (Dim3.get hg ax - 1) ]) Dim3.axes
  in
  let data = Array.init (hn * hn) (fun i -> float_of_int ((i * 13) mod 29) /. 4.0) in
  let ((_, _, _, _, reg) as r) =
    executor_vs_keval part ~grid:hg ~block:Apps.Hotspot.block ~args:hargs
      [ ("inp", data); ("out", Array.make (hn * hn) nan) ]
  in
  same "hotspot" r;
  checkb "hotspot folds guards" true (guards reg "folded" > 0);
  checkb "hotspot scans its boundary blocks" true (guards reg "scanned" > 0);
  (* A folded branch that faults: the diagnostic and partial outputs
     are Keval's. *)
  let faulting =
    let open Kir in
    Kir.kernel ~name:"folded_fault"
      ~params:[ Scalar "n"; Array { name = "a"; dims = [| Dim_param "n" |] };
                Array { name = "out"; dims = [| Dim_param "n" |] } ]
      [
        Local ("gi", global_id Dim3.X);
        If (v "gi" < i 30, [ store "out" [ v "gi" ] (load "a" [ v "gi" ]) ],
            [ store "out" [ v "gi" + i 5 ] (f 9.0) ]);
      ]
  in
  let ((ri, _, _, _, reg) as r) = executor_vs_keval faulting ~grid ~block ~args inputs in
  same "faulting folded branch" r;
  checkb "the else branch faults" true (Result.is_error ri);
  checkb "faulting kernel folds guards" true (guards reg "folded" > 0);
  (* An initial value the folded branch overwrites is sunk into the
     other branch; the guard's edge blocks read it, the last block's
     load leaves bounds.  Variants whose condition or new value reads
     the local keep the initialization where it is. *)
  let sunk guard value =
    let open Kir in
    Kir.kernel ~name:"sunk"
      ~params:[ Scalar "n"; Array { name = "a"; dims = [| Dim_param "n" |] };
                Array { name = "out"; dims = [| Dim_param "n" |] } ]
      [
        Local ("gi", global_id Dim3.X);
        Local ("x", f 0.5);
        If (guard, [ Assign ("x", value) ], []);
        If (v "gi" < p "n", [ store "out" [ v "gi" ] (v "x" * f 3.0) ], []);
      ]
  in
  List.iter
    (fun (what, k) ->
       let ((ri, _, _, _, reg) as r) = executor_vs_keval k ~grid ~block ~args inputs in
       same what r;
       checkb (what ^ ": completes") true (Result.is_ok ri);
       checkb (what ^ ": folds guards") true (guards reg "folded" > 0))
    (let open Kir in
     [
       ("sunk initial value", sunk (v "gi" < i 20) (load "a" [ v "gi" + i 1 ]));
       ("condition reads the local", sunk (v "gi" < i 20 && v "x" > f 0.0) (load "a" [ v "gi" ]));
       ("new value reads the local", sunk (v "gi" < i 20) (v "x" + load "a" [ v "gi" ]));
     ]);
  let ((ri, _, _, _, _) as r) =
    executor_vs_keval (sunk Kir.(v "gi" < i 37) Kir.(load "a" [ v "gi" + i 1 ])) ~grid ~block ~args inputs
  in
  same "sunk value that leaves bounds" r;
  checkb "the sunk load faults" true (Result.is_error ri);
  List.iter
    (fun (what, k, cond) ->
       checkb (what ^ ": not foldable") true
         (Kcompile.guard_classifier k ~grid ~block ~args cond = None);
       let ((_, _, _, _, reg) as r) = executor_vs_keval k ~grid ~block ~args inputs in
       same what r;
       checki (what ^ ": no folded pairs") 0 (guards reg "folded"))
    unfoldable

(* ---------------- Affine accesses ----------------

   Random kernels whose loads, stores and atomics have subscripts
   affine in the thread and block indices (coefficients in [-2, 2],
   [±const] shifts, the global indices of a partitioned kernel with
   its [__part_min_*] block offsets), a uniform loop counter times 1
   or 2 plus a constant, or a counter plus a global index (which must
   stay per lane), on 1-, 2- and 3-D blocks behind an edge guard.  Loads may sit
   behind their own range guard or a stripe of lanes (partial sweeps
   that start and end anywhere in a row) or leave bounds below 0 or at
   the extent, and the loaded array may be backed by an array shorter
   than its extents.  The executor must match Keval in lane
   mode, thread by thread and on the 2-domain pool: outputs, touched
   mask and diagnostic. *)

type asub =
  | Aff of int * int array * int array  (* k + ct·tid + cg·gid *)
  | Ctr of int * int  (* m·k + c *)
  | Ctr_gid of int  (* k + gid.(axis): not affine *)

type aspec = {
  a_kernel : Kir.t;  (* partitioned (and maybe optimized) *)
  a_dead : Kir.t;  (* the same with a load of [out] that never runs *)
  a_block : Dim3.t;
  a_grid : Dim3.t;
  a_args : Keval.arg list;
  a_ext : int array;  (* extents of [a] *)
  a_short : int;  (* [a]'s backing array is this much shorter *)
  a_out : int;  (* elements of [out] and [h] *)
  a_injective : bool;  (* every write is a shifted global index *)
  a_expect : int;  (* accesses that must compile to the affine step *)
}

let asub_exp s =
  let open Kir in
  match s with
  | Ctr (1, c) -> v "k" + i c
  | Ctr (m, c) -> (i m * v "k") + i c
  | Ctr_gid a -> v "k" + v (gid_name axes3.(a))
  | Aff (k, ct, cg) ->
    let e = ref (i k) in
    for a = 0 to 2 do
      if Stdlib.( <> ) ct.(a) 0 then e := !e + (i ct.(a) * tid axes3.(a));
      if Stdlib.( <> ) cg.(a) 0 then e := !e + (i cg.(a) * v (gid_name axes3.(a)))
    done;
    !e

(* The access takes the affine step: no counter mixed with an index,
   and some subscript moves with the thread index. *)
let affine_subs subs =
  List.for_all (function Ctr_gid _ -> false | _ -> true) subs
  && List.exists
       (function
         | Aff (_, ct, cg) -> Array.exists (fun x -> x <> 0) (Array.map2 ( + ) ct cg)
         | _ -> false)
       subs

(* [gid.(a) + c]. *)
let shift a c = Aff (c, [| 0; 0; 0 |], Array.init 3 (fun x -> if x = a then 1 else 0))

let gen_aspec =
  let open QCheck.Gen in
  int_range 1 3 >>= fun dims ->
  let used a = a < dims in
  let ext a = if used a then int_range 1 4 else return 1 in
  ext 0 >>= fun bx ->
  ext 1 >>= fun by ->
  ext 2 >>= fun bz ->
  int_range 1 9 >>= fun n ->
  array_size (return 3) (int_range 0 2) >>= fun off ->
  let off = Array.mapi (fun a o -> if used a then o else 0) off in
  let bdims = [| bx; by; bz |] in
  (* One block past those that cover [n]. *)
  let cover a = if used a then ((n + bdims.(a) - 1) / bdims.(a)) + 1 else 1 in
  int_range 1 3 >>= fun rank ->
  array_size (return rank) (int_range 1 (n + 2)) >>= fun a_ext ->
  bool >>= fun looped ->
  let coef a = if used a then int_range (-2) 2 else return 0 in
  let gen_aff =
    int_range (-2) (n + 1) >>= fun k ->
    coef 0 >>= fun t0 -> coef 1 >>= fun t1 -> coef 2 >>= fun t2 ->
    coef 0 >>= fun g0 -> coef 1 >>= fun g1 -> coef 2 >>= fun g2 ->
    return (Aff (k, [| t0; t1; t2 |], [| g0; g1; g2 |]))
  in
  let gen_shift =
    int_range 0 (dims - 1) >>= fun a ->
    int_range (-1) 1 >>= fun c -> return (shift a c)
  in
  let gen_sub =
    if looped then
      frequency
        [
          (4, gen_shift); (3, gen_aff); (2, map2 (fun m c -> Ctr (m, c)) (int_range 1 2) (int_range (-1) 2));
          (1, map (fun a -> Ctr_gid a) (int_range 0 (dims - 1)));
        ]
    else frequency [ (4, gen_shift); (3, gen_aff) ]
  in
  (* A load runs on every lane, behind its own range guard, or on the
     lanes whose number in the block is below [r] modulo [m]: runs
     that start and end anywhere in a row, or a z plane. *)
  let gen_guard =
    frequency
      [ (2, return `Plain); (2, return `Range);
        (3, map2 (fun m r -> `Stripe (m, r)) (int_range 2 7) (int_range 1 5)) ]
  in
  list_size (int_range 1 3) (pair (list_repeat rank gen_sub) gen_guard) >>= fun loads ->
  (* [out] and [h] are indexed by the global indices, slowest axis
     first, shifted by [-1, 1] or replaced by a random form. *)
  let gen_write =
    let w = frequency [ (5, int_range (-1) 1 >|= fun c -> `Shift c); (1, gen_aff >|= fun s -> `Sub s) ] in
    list_repeat dims w
    >|= List.mapi (fun d -> function
        | `Shift c -> (true, shift (dims - 1 - d) c)
        | `Sub s -> (false, s))
  in
  gen_write >>= fun stored ->
  opt gen_write >>= fun atomic ->
  frequency [ (3, return 0); (1, int_range 1 3) ] >>= fun short ->
  bool >>= fun optimize ->
  let open Kir in
  let in_range subs =
    List.mapi (fun d s -> (i 0 <= asub_exp s) && (asub_exp s < i a_ext.(d))) subs
    |> List.fold_left (fun c x -> match c with None -> Some x | Some c -> Some (c && x)) None
    |> Option.get
  in
  let lane = tid Dim3.X + (bdim Dim3.X * (tid Dim3.Y + (bdim Dim3.Y * tid Dim3.Z))) in
  let load_stmts =
    List.map
      (fun (subs, guard) ->
         let add = Assign ("acc", v "acc" + (load "a" (List.map asub_exp subs) * f 0.5)) in
         match guard with
         | `Plain -> add
         | `Range -> If (in_range subs, [ add ], [])
         | `Stripe (m, r) -> If (Binop (Imod, lane, i m) < i r, [ add ], []))
      loads
  in
  let loads_block =
    if looped then [ For { var = "k"; from_ = i 0; to_ = i 3; body = load_stmts } ]
    else load_stmts
  in
  let out_dims = Array.make dims (Dim_param "m") in
  let writes = List.map snd in
  let body =
    [ Local ("acc", f 0.25) ] @ loads_block
    @ [ store "out" (List.map asub_exp (writes stored)) (v "acc") ]
    @ (match atomic with
       | Some w -> [ atomic_add "h" (List.map asub_exp (writes w)) (v "acc") ]
       | None -> [])
  in
  let guard =
    List.init dims (fun a -> v (gid_name axes3.(a)) < p "n")
    |> List.fold_left (fun c x -> match c with None -> Some x | Some c -> Some (c && x)) None
    |> Option.get
  in
  let kernel prefix =
    let k =
      Kir.kernel ~name:"affine"
        ~params:
          [
            Scalar "n"; Scalar "m";
            Array { name = "a"; dims = Array.map (fun e -> Dim_const e) a_ext };
            Array { name = "out"; dims = out_dims }; Array { name = "h"; dims = out_dims };
          ]
        (prefix
         @ List.map (fun a -> Local (gid_name a, global_id a)) (Array.to_list axes3)
         @ [ If (guard, body, []) ])
    in
    let k = Mekong.Partition.transform_kernel k in
    if optimize then Kopt.optimize k else k
  in
  let dead =
    let zeros = List.init dims (fun _ -> i 0) in
    [ If (tid Dim3.X < i 0, [ store "out" zeros (load "out" zeros) ], []) ]
  in
  let grid = Dim3.make (cover 0) ~y:(cover 1) ~z:(cover 2) in
  let m = Stdlib.( + ) n 2 in
  let part_args =
    List.concat_map
      (fun a -> [ Keval.AInt off.(a); Keval.AInt (Stdlib.( + ) off.(a) (Dim3.get grid axes3.(a))) ])
      [ 0; 1; 2 ]
  in
  let writes_all = writes stored :: Option.to_list (Option.map writes atomic) in
  return
    {
      a_kernel = kernel [];
      a_dead = kernel dead;
      a_block = Dim3.make bx ~y:by ~z:bz;
      a_grid = grid;
      a_args = Keval.AInt n :: Keval.AInt m :: part_args;
      a_ext;
      a_short = short;
      a_out = Array.fold_left Stdlib.( * ) 1 (Array.make dims m);
      a_injective =
        Stdlib.( && ) (List.for_all fst stored)
          (match atomic with Some w -> List.for_all fst w | None -> true);
      a_expect = List.length (List.filter affine_subs (List.map fst loads @ writes_all));
    }

let print_aspec s =
  Printf.sprintf "block=%s grid=%s ext=%s short=%d expect=%d\n%s" (Dim3.to_string s.a_block)
    (Dim3.to_string s.a_grid)
    (String.concat "x" (Array.to_list (Array.map string_of_int s.a_ext)))
    s.a_short s.a_expect (Kir.to_string s.a_kernel)

(* One run: the outcome, [out], [h] and [out]'s touched mask, and the
   executor's registry.  [block] restricts Keval to one block. *)
let run_aspec ?block s engine =
  let len = Array.fold_left ( * ) 1 s.a_ext - s.a_short in
  let a = Array.init (max 0 len) (fun i -> float_of_int ((i * 5 mod 13) - 6) /. 4.0) in
  let out = Array.make s.a_out nan and h = Array.init s.a_out (fun i -> float_of_int i) in
  let mask = Array.make s.a_out false in
  let access = function
    | "a" -> { Kcompile.loads = a; stores = a; touched = None }
    | "h" -> { Kcompile.loads = h; stores = h; touched = None }
    | _ -> { Kcompile.loads = out; stores = out; touched = Some mask }
  in
  let reg = Obs.Metrics.create () in
  let ex = Kcompile.executor reg in
  let outcome =
    try
      (match engine with
       | `Interp ->
         let load, store = callbacks access in
         let block_range = Option.map (fun b -> (b, b)) block in
         Keval.run ?block_range s.a_kernel ~grid:s.a_grid ~block:s.a_block ~args:s.a_args ~load ~store
       | `Lanes -> Kcompile.launch ex s.a_kernel ~grid:s.a_grid ~block:s.a_block ~args:s.a_args ~access
       | `Threads -> Kcompile.launch ex s.a_dead ~grid:s.a_grid ~block:s.a_block ~args:s.a_args ~access
       | `Par ->
         Kcompile.launch ex ~parallel:true s.a_kernel ~grid:s.a_grid ~block:s.a_block ~args:s.a_args
           ~access);
      Ok ()
    with Invalid_argument m -> Error m
  in
  let bits = Array.map Int64.bits_of_float in
  ((outcome, bits out, bits h, mask), reg)

let prop_affine_differential =
  QCheck.Test.make ~name:"affine accesses: Keval == lanes == threads == 2 domains" ~count:600
    (QCheck.make ~print:print_aspec gen_aspec)
    (fun s ->
       let count reg name = int_of_float (Obs.Metrics.get reg name) in
       let ri, _ = run_aspec s `Interp in
       let rl, regl = run_aspec s `Lanes in
       let rt, regt = run_aspec s `Threads in
       let width = Dim3.volume s.a_block and blocks = Dim3.volume s.a_grid in
       if count regl "exec.interpreted" + count regt "exec.interpreted" > 0 then
         QCheck.Test.fail_report "fell back to the interpreter";
       if count regl "kcompile.affine_accesses" <> s.a_expect then
         QCheck.Test.fail_reportf "%d affine accesses, expected %d"
           (count regl "kcompile.affine_accesses") s.a_expect;
       if width > 1 && count regt "kcompile.scalar_blocks" = 0 then
         QCheck.Test.fail_report "the aliased launch did not run thread by thread";
       if rl <> ri then QCheck.Test.fail_report "lane mode differs from Keval";
       if rt <> ri then QCheck.Test.fail_report "thread by thread differs from Keval";
       (not s.a_injective)
       ||
       let rp, regp = run_aspec s `Par in
       let (oi, _, _, _), (op, _, _, _) = (ri, rp) in
       if blocks > 1 && op = Ok () && count regp "exec.par_launches" <> 1 then
         QCheck.Test.fail_report "no parallel launch";
       match (oi, op) with
       | Ok (), _ -> rp = ri
       | Error _, Ok () -> false
       | Error _, Error m ->
         (* Blocks are independent; which failing block the pool
            reports first is the schedule's choice. *)
         let found = ref false in
         Dim3.iter s.a_grid (fun b ->
             match run_aspec ~block:b s `Interp with
             | ((Error m', _, _, _), _) when m' = m -> found := true
             | _ -> ());
         !found)

(* Every run of lanes [lo, hi) of a 3×2×2 block, as an affine guard
   selects it, loads through subscripts that leave bounds on some
   lanes: a run inside a row, across rows and across z planes, whose
   box of thread indices the step must neither miss lanes of nor
   trust when a lane is out of range.  Lane mode and Keval must agree
   on the outputs and the diagnostic. *)
let test_affine_every_range () =
  let block = Dim3.make 3 ~y:2 ~z:2 and grid = Dim3.make 2 in
  let lane, forms =
    let open Kir in
    let x = tid Dim3.X and y = tid Dim3.Y and z = tid Dim3.Z in
    ( x + (i 3 * (y + (i 2 * z))),
      [
        ([| 3; 2 |], [ x - i 1; y ]);
        ([| 3; 2 |], [ x + i 1; z ]);
        ([| 2; 2 |], [ y; z - y ]);
        ([| 3; 2 |], [ i 2 - x; y + z ]);
        ([| 4; 3 |], [ (i 2 * x) - y; z + bid Dim3.X ]);
        ([| 3; 3 |], [ x; (i 2 * z) - y ]);
        ([| 2; 1 |], [ z; y - i 1 ]);
      ] )
  in
  List.iteri
    (fun fi (ext, subs) ->
       let k =
         let open Kir in
         Kir.kernel ~name:"ranges"
           ~params:
             [
               Scalar "lo"; Scalar "hi";
               Array { name = "a"; dims = Array.map (fun e -> Dim_const e) ext };
               Array { name = "out"; dims = [| Dim_const 24 |] };
             ]
           [
             If
               ( p "lo" <= lane && lane < p "hi",
                 [ store "out" [ lane + (i 12 * bid Dim3.X) ] (load "a" subs) ],
                 [ store "out" [ lane + (i 12 * bid Dim3.X) ] (f (-1.0)) ] );
           ]
       in
       let a = Array.init (ext.(0) * ext.(1)) (fun i -> float_of_int (i + 1)) in
       for lo = 0 to 11 do
         for hi = lo + 1 to 12 do
           let ri, ai, rc, ac, reg =
             executor_vs_keval k ~grid ~block
               ~args:[ Keval.AInt lo; Keval.AInt hi ]
               [ ("a", a); ("out", Array.make 24 nan) ]
           in
           if not (ri = rc && ai = ac) then
             Alcotest.failf "form %d, lanes [%d, %d): lane mode differs from Keval" fi lo hi;
           checkb "an affine access" true
             (Obs.Metrics.get reg "kcompile.affine_accesses" > 0.0)
         done
       done)
    forms

(* Lanes 40–89 of each 16×16 block copy row [b] of [a]: their run is
   not a box of thread indices (its box reaches lanes 32–95, outside
   [a]'s rows), so the affine step checks it row by row. *)
let rows_kernel =
  let open Kir in
  let b = v "b" and l = v "l" in
  Kir.kernel ~name:"rows"
    ~params:
      [
        Scalar "g";
        Array { name = "a"; dims = [| Dim_param "g"; Dim_const 50 |] };
        Array { name = "out"; dims = [| Dim_param "g"; Dim_const 256 |] };
      ]
    [
      Local ("l", tid Dim3.X + (tid Dim3.Y * bdim Dim3.X));
      Local ("b", bid Dim3.X + (bid Dim3.Y * gdim Dim3.X));
      If
        ( l >= i 40 && l < i 90,
          [ store "out" [ b; l ] (load "a" [ b; l - i 40 ]) ],
          [ store "out" [ b; l ] (f (-1.0)) ] );
    ]

(* Two domains run blocks of one compiled kernel at once, each on its
   own environment, so nothing an affine step computes for one block
   may be visible to another: matmul and hotspot sweep whole boxes,
   [rows_kernel] sweeps row by row. *)
let test_affine_two_domains () =
  let n = 256 in
  let bits = Array.map Int64.bits_of_float in
  let run k ~grid ~block ~args arrays =
    let reg = Obs.Metrics.create () in
    let access name =
      let d = List.assoc name arrays in
      { Kcompile.loads = d; stores = d; touched = None }
    in
    Kcompile.launch (Kcompile.executor reg) ~parallel:true k ~grid ~block ~args ~access;
    let count name = int_of_float (Obs.Metrics.get reg name) in
    checki "two domains" 2 (count "exec.max_domains");
    checkb "affine accesses" true (count "kcompile.affine_accesses" > 0);
    checki "no scalar blocks" 0 (count "kcompile.scalar_blocks")
  in
  let a, b = Apps.Matmul.initial ~n in
  let c = Array.make (n * n) nan in
  run Apps.Matmul.kernel ~grid:(Apps.Matmul.grid_for n) ~block:Apps.Matmul.block
    ~args:[ Keval.AInt n ] [ ("a", a); ("b", b); ("c", c) ];
  checkb "matmul 256 matches the CPU reference" true (bits c = bits (Apps.Matmul.reference ~n a b));
  let inp = Apps.Hotspot.initial ~n in
  let out = Array.make (n * n) nan in
  run Apps.Hotspot.kernel ~grid:(Apps.Hotspot.grid_for n) ~block:Apps.Hotspot.block
    ~args:[ Keval.AInt n ] [ ("inp", inp); ("out", out) ];
  checkb "hotspot 256 matches the CPU reference" true
    (bits out = bits (Apps.Hotspot.reference ~n ~iterations:1 inp));
  let g = 256 in
  let a = Array.init (g * 50) (fun i -> float_of_int i) in
  let out = Array.make (g * 256) nan in
  run rows_kernel ~grid:(Dim3.make 16 ~y:16) ~block:(Dim3.make 16 ~y:16) ~args:[ Keval.AInt g ]
    [ ("a", a); ("out", out) ];
  let want =
    Array.init (g * 256) (fun i ->
        let b = i / 256 and l = i mod 256 in
        if l >= 40 && l < 90 then a.((b * 50) + l - 40) else -1.0)
  in
  checkb "row-by-row copies match" true (bits out = bits want)

(* ---------------- Operand shapes ----------------

   Kcompile compiles each two-operand sweep for its operands' shape:
   both varying (which also serves both uniform, on one lane), or one
   uniform operand read once before the loop.  Every operator is run
   here in each shape against Keval, bit for bit, in lane mode, thread
   by thread and on the 2-domain pool.  Varying operands are loads at
   the thread's index; uniform ones are loads at the loop counter [k]
   inside a [For], or [k] itself.  Every float array holds NaNs with
   its own payload at the same indices, so both operands are NaN with
   different payloads in every shape; the integer runs also take every
   operand across 2^53, where the interpreter's float compare and the
   integer one part. *)

let shape_n = 24 (* two blocks of 12 *)
let shape_m = 11 (* loop trips, and the float table's length *)

(* The float table of operand [a]'s varying or uniform array: a NaN at
   index 0 whose payload is the array's own, and for [a] = 1 and 2 a
   negative NaN at index [2a + 1], so that lane or trip 1 meets
   [x = 1.5] with both factors of [y*z] NaN. *)
let shape_floats a ~uni =
  let nan_bits sign k =
    Int64.float_of_bits (Int64.logor sign (Int64.of_int (0x10 + (8 * a) + (if uni then 2 else 0) + k)))
  in
  let t = [| 0.0; 1.5; -0.0; 0.0; -2.25; infinity; neg_infinity; 3.0; 0.5; -7.0; 1e308 |] in
  t.(0) <- nan_bits 0x7ff8000000000000L 0;
  if a > 0 then t.((2 * a) + 1) <- nan_bits 0xfff8000000000000L 1;
  t

let shape_ints = [| -3.0; 5.0; -1.0; 2.0; 4.0; -6.0; 1.0 |]

(* Operand [a] (0, 1 or 2) of a float, int or boolean operator, varying
   or uniform. *)
let shape_operand ty a ~uni =
  let arr prefix a = Printf.sprintf "%s%c%d" prefix (if uni then 'u' else 'v') a in
  let counter = uni && a = 0 and next = (a + 1) mod 3 in
  let open Kir in
  let at = if uni then v "k" - p "klo" else v "gi" in
  match ty with
  | `Float -> load (arr "f" a) [ at ]
  | `Int when counter -> v "k"
  | `Int -> p "big" + Binop (Idiv, load (arr "i" a) [ at ], i 1)
  | `Bool -> load (arr "f" a) [ at ] < load (arr "f" next) [ at ]

(* The operands' arrays, by name: operand [a]'s varying ("v") and
   uniform ("u") float and int arrays. *)
let shape_inputs () =
  List.concat_map
    (fun a ->
       let at g = g * ((2 * a) + 1) in
       let floats ~uni n =
         let t = shape_floats a ~uni in
         Array.init n (fun g -> t.(at g mod shape_m))
       in
       let ints n = Array.init n (fun g -> shape_ints.((at g + a) mod 7)) in
       List.map
         (fun (kind, d) -> (Printf.sprintf "%s%d" kind a, d))
         [ ("fv", floats ~uni:false shape_n); ("fu", floats ~uni:true shape_m);
           ("iv", ints shape_n); ("iu", ints shape_m) ])
    [ 0; 1; 2 ]

(* [r] takes [e]'s value through a varying local, so a uniform result
   is broadcast into it; the result is then stored per (thread, trip),
   a boolean as 1.0/0.0.  The trips run under a varying branch, so the
   sweeps are runs of lanes that do not start at lane 0.  With [dead],
   a never-taken load of [out] makes the launch run thread by thread. *)
let shape_kernel ~name ty ~dead e =
  let out_len = shape_n * shape_m in
  let open Kir in
  let j = (v "gi" * i shape_m) + (v "k" - p "klo") in
  let init = match ty with `Float -> load "fv2" [ v "gi" ] | `Int -> v "gi" | `Bool -> v "gi" < i 5 in
  let put =
    match ty with
    | `Bool -> If (v "r", [ store "out" [ j ] (f 1.0) ], [ store "out" [ j ] (f 0.0) ])
    | _ -> store "out" [ j ] (v "r")
  in
  let trip = [ Local ("r", init); Assign ("r", e); put ] in
  Kir.kernel ~name
    ~params:
      (Scalar "big" :: Scalar "klo"
       :: List.map
            (fun (a, d) -> Array { name = a; dims = [| Dim_const (Array.length d) |] })
            (shape_inputs ())
       @ [ Array { name = "out"; dims = [| Dim_const out_len |] } ])
    ([
      Local ("gi", global_id Dim3.X);
      For
        {
          var = "k";
          from_ = p "klo";
          to_ = p "klo" + i shape_m;
          body = [ If (Binop (Imod, v "gi", i 3) = i 1, trip, trip) ];
        };
    ]
     @ if dead then [ If (tid Dim3.X < i 0, [ store "out" [ i 0 ] (load "out" [ i 0 ]) ], []) ] else [])

(* Every specialized operator: its result type, operand type, arity,
   and its expression over the operands. *)
let shape_ops =
  let open Kir in
  let bin op xs = Binop (op, List.nth xs 0, List.nth xs 1) in
  let b2 ty rty ops = List.map (fun op -> (rty, ty, 2, bin op)) ops in
  let u1 ty op = (ty, ty, 1, fun xs -> Unop (op, List.hd xs)) in
  let arith = [ Add; Sub; Mul; Minb; Maxb ] and cmp = [ Lt; Le; Gt; Ge; Eq; Ne ] in
  b2 `Float `Float (Div :: arith)
  @ b2 `Int `Int (Idiv :: Imod :: arith)
  @ b2 `Float `Bool cmp @ b2 `Int `Bool cmp @ b2 `Bool `Bool [ And; Or ]
  @ List.map
    (fun op -> (`Float, `Float, 3, fun xs -> Binop (op, List.nth xs 0, List.nth xs 1 * List.nth xs 2)))
    [ Add; Sub ]
  @ List.map (u1 `Float) [ Neg; Abs; Sqrt; Rsqrt ]
  @ [ u1 `Int Neg; u1 `Int Abs; u1 `Bool Not; (`Float, `Int, 1, fun xs -> List.hd xs + f 0.5) ]

let test_operand_shapes () =
  let bits = Array.map Int64.bits_of_float in
  let run k ~args engine =
    let arrays = ("out", Array.make (shape_n * shape_m) nan) :: shape_inputs () in
    let access name =
      let d = List.assoc name arrays in
      { Kcompile.loads = d; stores = d; touched = None }
    in
    let reg = Obs.Metrics.create () in
    let grid = Dim3.make (shape_n / 12) and block = Dim3.make 12 in
    let outcome =
      try
        (match engine with
         | `Interp ->
           let load, store = callbacks access in
           Keval.run k ~grid ~block ~args ~load ~store
         | `Lanes | `Threads -> Kcompile.launch (Kcompile.executor reg) k ~grid ~block ~args ~access
         | `Par -> Kcompile.launch (Kcompile.executor reg) ~parallel:true k ~grid ~block ~args ~access);
        Ok ()
      with Invalid_argument m -> Error m
    in
    let count name = int_of_float (Obs.Metrics.get reg name) in
    ((outcome, bits (List.assoc "out" arrays)), count)
  in
  List.iter
    (fun (rty, ty, arity, build) ->
       for s = 0 to (1 lsl arity) - 1 do
         let xs = List.init arity (fun a -> shape_operand ty a ~uni:(s land (1 lsl a) <> 0)) in
         let e = build xs in
         let k = shape_kernel ~name:"shapes" rty ~dead:false e in
         let kd = shape_kernel ~name:"shapes_dead" rty ~dead:true e in
         List.iter
           (fun (big, klo) ->
              let args = [ Keval.AInt big; Keval.AInt klo ] in
              let what = Printf.sprintf "%s (big=%d)" (Kir.to_string k) big in
              let want, _ = run k ~args `Interp in
              if fst want <> Ok () then Alcotest.failf "%s: Keval raised" what;
              List.iter
                (fun (mode, kernel, engine, check) ->
                   let got, count = run kernel ~args engine in
                   if count "exec.interpreted" <> 0 then Alcotest.failf "%s %s: fell back" what mode;
                   if not (check count) then Alcotest.failf "%s %s: wrong block mode" what mode;
                   if got <> want then Alcotest.failf "%s %s differs from Keval" what mode)
                [
                  ("lanes", k, `Lanes, fun count -> count "kcompile.scalar_blocks" = 0);
                  ("threads", kd, `Threads, fun count -> count "kcompile.scalar_blocks" > 0);
                  ("2 domains", k, `Par, fun count ->
                      count "exec.par_launches" = 1 && count "kcompile.scalar_blocks" = 0);
                ])
           (if ty = `Int then [ (0, 1); ((1 lsl 53) - 3, (1 lsl 53) - 5) ] else [ (0, 1) ])
       done)
    shape_ops

(* A float subscript converts to an int per lane ([to_int_step] for a
   register, a raising step for a non-integral constant).  Integral on
   every lane, the outputs equal Keval's.  Integral on some lanes and
   not on others (a varying [gi * 0.5]), or on no trip after the first
   (a uniform [k * 0.5]), the launch raises Keval's diagnostic in lane
   mode, thread by thread and on the 2-domain pool, and the sequential
   modes leave Keval's partial outputs. *)
let test_float_subscripts () =
  let n = 24 in
  let kernel ~dead sub =
    let open Kir in
    let arr name = Array { name; dims = [| Dim_const n |] } in
    let body = [ store "out" [ v "gi" ] (load "src" [ sub ]) ] in
    Kir.kernel
      ~name:(if dead then "float_sub_dead" else "float_sub")
      ~params:[ arr "src"; arr "out" ]
      ([ Local ("gi", global_id Dim3.X); For { var = "k"; from_ = i 0; to_ = i 3; body } ]
       @
       if dead then [ If (tid Dim3.X < i 0, [ store "out" [ i 0 ] (load "out" [ i 0 ]) ], []) ]
       else [])
  in
  let run k engine =
    let src = Array.init n (fun g -> float_of_int ((g * 7) mod 11) +. 0.25) in
    let out = Array.make n nan in
    let access = function
      | "src" -> { Kcompile.loads = src; stores = src; touched = None }
      | _ -> { Kcompile.loads = out; stores = out; touched = None }
    in
    let reg = Obs.Metrics.create () and grid = Dim3.make 2 and block = Dim3.make 12 in
    let outcome =
      try
        (match engine with
         | `Interp ->
           let load, store = callbacks access in
           Keval.run k ~grid ~block ~args:[] ~load ~store
         | (`Seq | `Par) as e ->
           Kcompile.launch (Kcompile.executor reg) ~parallel:(e = `Par) k ~grid ~block ~args:[]
             ~access);
        Ok ()
      with Invalid_argument m -> Error m
    in
    let count name = int_of_float (Obs.Metrics.get reg name) in
    (outcome, Array.map Int64.bits_of_float out, count)
  in
  List.iter
    (fun (what, sub, raises) ->
       let want, want_out, _ = run (kernel ~dead:false sub) `Interp in
       if (want <> Ok ()) <> raises then Alcotest.failf "%s: Keval gave the wrong outcome" what;
       if raises && want <> Error "Keval: non-integer index" then
         Alcotest.failf "%s: Keval's diagnostic" what;
       List.iter
         (fun (mode, dead, engine) ->
            let got, got_out, count = run (kernel ~dead sub) engine in
            if count "exec.interpreted" <> 0 then Alcotest.failf "%s %s: fell back" what mode;
            if got <> want then Alcotest.failf "%s %s: outcome differs from Keval" what mode;
            if (engine = `Seq || not raises) && got_out <> want_out then
              Alcotest.failf "%s %s: outputs differ from Keval" what mode;
            let narrow = count "kcompile.scalar_blocks" > 0 in
            if narrow <> (dead || raises) then
              Alcotest.failf "%s %s: wrong block mode" what mode)
         [ ("lanes", false, `Seq); ("threads", true, `Seq); ("2 domains", false, `Par) ])
    (let open Kir in
     [
       ("varying, integral", v "gi" * f 0.5 * f 2.0, false);
       ("uniform, integral", v "k" * f 2.0 * f 0.5, false);
       ("varying, mixed", v "gi" * f 0.5, true);
       ("uniform, mixed", v "k" * f 0.5, true);
       ("constant", f 1.5, true);
     ])

(* ---------------- Allocation guard ----------------

   The compiled executor keeps every value in its register files and
   its stores in the block log, both allocated on a domain's first
   block of a compiled kernel, so a later launch allocates at most one
   minor word per thread on average, on the engine's partitioned
   kernels. *)

let test_kcompile_allocation () =
  let part k = Kopt.optimize (Mekong.Partition.transform_kernel k) in
  let whole (g : Dim3.t) =
    List.concat_map
      (fun a -> [ Keval.AInt 0; Keval.AInt (Dim3.get g a - 1) ])
      Dim3.axes
  in
  let data n = Array.init n (fun i -> float_of_int ((i * 7) mod 19) /. 8.0) in
  List.iter
    (fun (name, k, grid, block, args, arrays) ->
       let ck = Kcompile.compile (part k) ~grid ~block ~args:(args @ whole grid) in
       let access a =
         let d = List.assoc a arrays in
         { Kcompile.loads = d; stores = d; touched = None }
       in
       let launch () = Kcompile.run ck ~access in
       launch ();
       let before = Gc.minor_words () in
       launch ();
       launch ();
       let words = Gc.minor_words () -. before in
       let per_thread = words /. float_of_int (2 * Dim3.volume grid * Dim3.volume block) in
       checkb
         (Printf.sprintf "%s: %.3f minor words per thread <= 1" name per_thread)
         true (per_thread <= 1.0))
    [
      ( "hotspot 64^2", Apps.Hotspot.kernel, Apps.Hotspot.grid_for 64,
        Apps.Hotspot.block, [ Keval.AInt 64 ],
        [ ("inp", data (64 * 64)); ("out", data (64 * 64)) ] );
      ( "matmul 64", Apps.Matmul.kernel, Apps.Matmul.grid_for 64,
        Apps.Matmul.block, [ Keval.AInt 64 ],
        [ ("a", data (64 * 64)); ("b", data (64 * 64)); ("c", data (64 * 64)) ] );
      ( "nbody 512", Apps.Nbody.kernel, Apps.Nbody.grid_for 512, Apps.Nbody.block,
        [ Keval.AInt 512; Keval.AFloat 0.01 ],
        [
          ("pos_in", data 2048); ("vel_in", data 2048);
          ("pos_out", data 2048); ("vel_out", data 2048);
        ] );
      ( "histogram 4096", Apps.Histogram.kernel, Apps.Histogram.grid_for 4096,
        Apps.Histogram.block, [ Keval.AInt 4096; Keval.AInt 64 ],
        [ ("data", Apps.Histogram.initial ~n:4096 ~nbins:64); ("hist", data 64) ] );
      ( "dot 4096", Apps.Dot.kernel, Apps.Dot.grid_for 4096, Apps.Dot.block,
        [ Keval.AInt 4096 ],
        [ ("a", data 4096); ("b", data 4096); ("out", data 1) ] );
    ]

(* ---------------- Multi_gpu integration ---------------- *)

let compile_exe prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)

let exec (r : Mekong.Multi_gpu.result) name =
  int_of_float (Obs.Metrics.get r.Mekong.Multi_gpu.metrics ("exec." ^ name))

let test_multi_gpu_parallel_golden () =
  (* With the pool sized 2 (top of file), a race-free kernel's
     partitions run domain-parallel — and stay golden. *)
  let prog, out, cpu = Apps.Workloads.functional_matmul ~n:32 in
  let m =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:2 ())
  in
  let r = Mekong.Multi_gpu.run ~machine:m (compile_exe prog) in
  checkb "golden" true (out = cpu ());
  checkb "parallel path engaged" true (exec r "par_launches" >= 1);
  checki "two domains engaged" 2 (exec r "max_domains");
  checki "no interpreter fallback" 0 (exec r "interpreted")

let test_multi_gpu_pool_bit_identity () =
  (* The engine on the 2-domain pool must match the single-GPU engine
     bit for bit. *)
  let run f =
    let prog, out, _ = Apps.Workloads.functional_hotspot ~n:64 ~iterations:4 in
    let r = f prog in
    (Array.map Int64.bits_of_float out, r)
  in
  let single, _ = run (fun prog -> ignore (Single_gpu.run prog)) in
  let multi, r =
    run (fun prog ->
        let m =
          Gpusim.Machine.create ~functional:true
            (Gpusim.Config.test_box ~n_devices:3 ())
        in
        Mekong.Multi_gpu.run ~machine:m (compile_exe prog))
  in
  checkb "parallel path engaged" true (exec r "par_launches" >= 1);
  checkb "bit-identical to the single-GPU engine" true (single = multi)

let test_multi_gpu_gate_blocks_unsafe () =
  (* SpMV's indirect accesses leave the provable fragment: even with
     domains available, every launch must stay sequential. *)
  let mat = Apps.Spmv.banded ~n:64 ~band:3 in
  let x = Array.make 64 1.0 in
  let result = Array.make 64 nan in
  let prog = Apps.Spmv.program ~m:mat ~x ~result in
  let m =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:2 ())
  in
  let r = Mekong.Multi_gpu.run ~machine:m (compile_exe prog) in
  checki "no parallel launches for unsafe kernels" 0 (exec r "par_launches");
  checkb "ran something" true
    (exec r "seq_launches" + exec r "interpreted" >= 1)

let () =
  Alcotest.run "exec"
    [
      ( "dpool",
        [
          Alcotest.test_case "empty range" `Quick test_dpool_empty_range;
          Alcotest.test_case "coverage" `Quick test_dpool_coverage;
          Alcotest.test_case "single-domain pool" `Quick
            test_dpool_single_domain_pool;
          Alcotest.test_case "exception propagation" `Quick test_dpool_exception;
        ] );
      ( "gate",
        [
          Alcotest.test_case "admits injective kernels" `Quick
            test_gate_admits_injective;
          Alcotest.test_case "rejects races" `Quick test_gate_rejects_races;
        ] );
      ( "kcompile",
        [
          Alcotest.test_case "operator bit-identity" `Quick
            test_kcompile_ops_bit_identity;
          Alcotest.test_case "oob diagnostic" `Quick test_kcompile_oob_names_array;
          Alcotest.test_case "arity diagnostic" `Quick
            test_kcompile_arity_names_array;
          Alcotest.test_case "operand order diagnostic" `Quick
            test_kcompile_operand_order;
          Alcotest.test_case "check rejections" `Quick test_check_rejections;
          Alcotest.test_case "argument mismatch" `Quick
            test_kcompile_arg_mismatch_raises;
          Alcotest.test_case "engine launches + rejection" `Quick
            test_engine_launches_and_rejection;
          counting_rejections differential_rejected (qtest prop_differential);
          counting_rejections lane_order_rejected (qtest prop_lane_order);
          counting_rejections typed_rejected (qtest prop_check_preserved);
          Alcotest.test_case "a faulting dead load still faults" `Quick test_dead_load_faults;
          Alcotest.test_case "a signed-zero sum is not folded" `Quick test_signed_zero_sum;
          Alcotest.test_case "lane fault re-runs the block" `Quick
            test_kcompile_lane_fault_rerun;
          Alcotest.test_case "in-place kernel runs at width 1" `Quick
            test_kcompile_in_place_width1;
          Alcotest.test_case "log cap re-runs the block" `Quick
            test_kcompile_log_cap;
          Alcotest.test_case "block modes share one environment" `Quick
            test_kcompile_mixed_block_modes;
          Alcotest.test_case "allocation guard" `Quick test_kcompile_allocation;
        ] );
      ( "guards",
        [
          qtest prop_guard_classifier;
          Alcotest.test_case "folded guards match Keval" `Quick
            test_folded_guards_match_keval;
        ] );
      ( "affine",
        [
          qtest prop_affine_differential;
          Alcotest.test_case "every run of lanes" `Quick test_affine_every_range;
          Alcotest.test_case "matmul and hotspot on 2 domains" `Quick
            test_affine_two_domains;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "every operator in every operand shape" `Quick test_operand_shapes;
          Alcotest.test_case "non-integer float subscripts" `Quick test_float_subscripts;
        ] );
      ( "store",
        [
          Alcotest.test_case "a relinked program compiles nothing" `Quick
            test_store_relinked_program;
          Alcotest.test_case "one name, different kernels" `Quick test_store_same_name;
          Alcotest.test_case "float arguments by bit pattern" `Quick test_store_float_args;
          Alcotest.test_case "launch arrays are dropped" `Quick test_store_drops_arrays;
        ] );
      ( "multi_gpu",
        [
          Alcotest.test_case "parallel partitions golden" `Quick
            test_multi_gpu_parallel_golden;
          Alcotest.test_case "pool vs single-GPU bit-identity" `Quick
            test_multi_gpu_pool_bit_identity;
          Alcotest.test_case "gate blocks unsafe kernels" `Quick
            test_multi_gpu_gate_blocks_unsafe;
        ] );
    ]
