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
let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Dpool ---------------- *)

(* One shared pool for the direct executor tests; three participants so
   chunking, claim capping and the submitter's participation all
   engage.  Joined at exit (the pool is idle between tests). *)
let pool = lazy (Gpu_runtime.Dpool.create ~domains:3 ())
let () = at_exit (fun () -> if Lazy.is_val pool then Gpu_runtime.Dpool.shutdown (Lazy.force pool))

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

let test_dpool_max_domains () =
  let p = Lazy.force pool in
  checki "max_domains:1 runs inline" 1
    (Gpu_runtime.Dpool.parallel_for ~max_domains:1 p ~n:1000 (fun _ _ -> ()));
  checki "large range engages the whole pool" 3
    (Gpu_runtime.Dpool.parallel_for p ~n:1000 (fun _ _ -> ()))

let test_dpool_single_domain_pool () =
  (* A 1-domain pool spawns nothing and runs inline. *)
  let p1 = Gpu_runtime.Dpool.create ~domains:1 () in
  checki "size clamps to 1" 1 (Gpu_runtime.Dpool.size p1);
  let covered = ref 0 in
  checki "inline execution" 1
    (Gpu_runtime.Dpool.parallel_for p1 ~n:5 (fun lo hi ->
         covered := !covered + (hi - lo)));
  checki "full coverage" 5 !covered;
  Gpu_runtime.Dpool.shutdown p1

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
  | Ok a -> Mekong.Model.of_analysis a
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

let compile_exn k ~grid ~block ~args =
  match Kcompile.compile k ~grid ~block ~args with
  | Ok c -> c
  | Error e -> Alcotest.failf "unexpected interpreter fallback: %s" e

(* Run a kernel under both engines with identical inputs; return the
   outcome (normal or the Invalid_argument message) and the output bit
   pattern. *)
let both_engines k ~grid ~block ~args ~n_out =
  let run exec =
    let out = Array.make n_out nan in
    let load _ off = out.(off) in
    let store _ off v = out.(off) <- v in
    let outcome =
      try
        (match exec with
         | `Interp -> Keval.run k ~grid ~block ~args ~load ~store
         | `Compiled ->
           let c = compile_exn k ~grid ~block ~args in
           ignore (Kcompile.run c ~load ~store : [ `Seq | `Par of int ]));
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

(* a float condition is outside the typed fragment *)
let float_cond_kernel =
  let open Kir in
  Kir.kernel ~name:"fcond"
    ~params:[ Array { name = "out"; dims = [| Dim_const 1 |] } ]
    [ If (f 1.0, [ store "out" [ i 0 ] (f 1.0) ], []) ]

let test_kcompile_fallback_cases () =
  let is_error = function Error _ -> true | Ok _ -> false in
  checkb "possibly-unbound local falls back" true
    (is_error
       (Kcompile.compile maybe_unbound_kernel ~grid:(Dim3.make 2)
          ~block:(Dim3.make 4) ~args:[ Keval.AInt 8 ]));
  checkb "float condition falls back" true
    (is_error
       (Kcompile.compile float_cond_kernel ~grid:Dim3.one ~block:Dim3.one
          ~args:[]))

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

(* The engine-level fallback: Single_gpu must run non-compilable
   kernels through the interpreter with correct results, and count
   them. *)
let fallback_dbl_kernel =
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

let test_single_gpu_fallback_and_cache () =
  let n = 16 in
  let a = Array.init n float_of_int in
  let result = Array.make n nan in
  let prog kernel =
    Host_ir.program ~name:"p"
      [
        Host_ir.Malloc ("a", n);
        Host_ir.Malloc ("out", n);
        Host_ir.Memcpy_h2d { dst = "a"; src = Host_ir.host_data a };
        Host_ir.Repeat
          ( 3,
            [
              Host_ir.Launch
                {
                  kernel;
                  grid = Dim3.make 4;
                  block = Dim3.make 4;
                  args = [ Host_ir.HInt n; Host_ir.HBuf "a"; Host_ir.HBuf "out" ];
                };
            ] );
        Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "out" };
        Host_ir.Free "a";
        Host_ir.Free "out";
      ]
  in
  let r = Single_gpu.run (prog fallback_dbl_kernel) in
  checkb "fallback result correct" true
    (Array.for_all2 (fun x y -> x *. 2.0 = y) a result);
  checki "all launches interpreted" 3 r.Single_gpu.exec.Kcompile.st_interpreted;
  (* the failed compile attempt is cached, so it is paid once *)
  checki "one compile attempt" 1 r.Single_gpu.exec.Kcompile.st_compiles;
  checki "failure reused from cache" 2 r.Single_gpu.exec.Kcompile.st_cache_hits;
  checki "no compiled launches" 0 r.Single_gpu.exec.Kcompile.st_seq;
  (* a compilable kernel is compiled once and reused *)
  let r2 = Single_gpu.run (prog compiled_dbl_kernel) in
  checkb "compiled result correct" true
    (Array.for_all2 (fun x y -> x *. 2.0 = y) a result);
  checki "compiled once" 1 r2.Single_gpu.exec.Kcompile.st_compiles;
  checki "two cache hits" 2 r2.Single_gpu.exec.Kcompile.st_cache_hits;
  checki "three sequential launches" 3 r2.Single_gpu.exec.Kcompile.st_seq

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

let gen_leaf_f =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map
        (fun k -> Kir.Fconst (float_of_int k /. 4.0))
        (QCheck.Gen.int_range (-20) 20);
      QCheck.Gen.return (Kir.Param "s");
      QCheck.Gen.return (Kir.Load ("a", [ Kir.Var "gi" ]));
      QCheck.Gen.return (Kir.Load ("b", [ Kir.Var "gi" ]));
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

let gen_cmp fuel =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map3
        (fun op a b -> Kir.Binop (op, a, b))
        (QCheck.Gen.oneofl [ Kir.Lt; Kir.Le; Kir.Gt; Kir.Ge; Kir.Eq; Kir.Ne ])
        (gen_fexp fuel) (gen_fexp fuel);
      QCheck.Gen.map3
        (fun op a b -> Kir.Binop (op, a, b))
        (QCheck.Gen.oneofl [ Kir.Lt; Kir.Le; Kir.Gt; Kir.Ge; Kir.Eq; Kir.Ne ])
        (gen_iexp fuel) (gen_iexp fuel);
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

type dspec = { dk : Kir.t; d_n : int; d_bx : int; d_gx : int; d_s : float }

let gen_dspec =
  let open QCheck.Gen in
  gen_fexp 3 >>= fun init ->
  opt (gen_fexp 2) >>= fun loop ->
  gen_bexp 2 >>= fun cond ->
  gen_fexp 3 >>= fun e_then ->
  gen_fexp 3 >>= fun e_else ->
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
    @ [
        If
          ( cond,
            [ store "out" [ v "gi" ] (v "acc" + e_then) ],
            [ store "out" [ v "gi" ] (v "acc" - e_else) ] );
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
    }

let print_dspec s =
  Printf.sprintf "n=%d block=%d grid=%d s=%g\n%s" s.d_n s.d_bx s.d_gx s.d_s
    (Kir.to_string s.dk)

let run_dspec spec engine =
  let n = spec.d_n in
  let a = Array.init n (fun i -> float_of_int ((i * 13 mod 23) - 11) /. 8.0) in
  let b = Array.init n (fun i -> float_of_int ((i * 7 mod 17) - 8) /. 4.0) in
  let out = Array.make n nan in
  let load name off =
    match name with
    | "a" -> a.(off)
    | "b" -> b.(off)
    | "out" -> out.(off)
    | _ -> assert false
  in
  let store name off v =
    assert (name = "out");
    out.(off) <- v
  in
  let grid = Dim3.make spec.d_gx and block = Dim3.make spec.d_bx in
  let args = [ Keval.AInt n; Keval.AFloat spec.d_s ] in
  let outcome =
    try
      (match engine with
       | `Interp -> Keval.run spec.dk ~grid ~block ~args ~load ~store
       | `Seq | `Par ->
         (match Kcompile.compile spec.dk ~grid ~block ~args with
          | Error e -> QCheck.Test.fail_reportf "fell out of the fragment: %s" e
          | Ok ck ->
            let pool =
              match engine with `Par -> Some (Lazy.force pool) | _ -> None
            in
            ignore (Kcompile.run ?pool ck ~load ~store : [ `Seq | `Par of int ])));
      `Completed
    with Invalid_argument m -> `Raised m
  in
  (outcome, Array.map Int64.bits_of_float out)

let prop_differential =
  QCheck.Test.make
    ~name:"random kernels: interpreter == compiled == compiled-parallel" ~count:150
    (QCheck.make ~print:print_dspec gen_dspec)
    (fun spec ->
       let ri = run_dspec spec `Interp in
       let rs = run_dspec spec `Seq in
       let rp = run_dspec spec `Par in
       ri = rs && ri = rp)

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
  let r = Mekong.Multi_gpu.run ~domains:2 ~machine:m (compile_exe prog) in
  checkb "golden" true (out = cpu ());
  checkb "parallel path engaged" true (exec r "par_launches" >= 1);
  checki "two domains engaged" 2 (exec r "max_domains");
  checki "no interpreter fallback" 0 (exec r "interpreted")

let test_multi_gpu_domains1_sequential_golden () =
  let prog, out, cpu = Apps.Workloads.functional_matmul ~n:32 in
  let m =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:2 ())
  in
  let r = Mekong.Multi_gpu.run ~domains:1 ~machine:m (compile_exe prog) in
  checkb "golden" true (out = cpu ());
  checki "no parallel launches" 0 (exec r "par_launches");
  checkb "sequential launches" true (exec r "seq_launches" >= 1)

let test_multi_gpu_domains_bit_identity () =
  (* domains=1 vs domains=2 must produce bit-identical buffers. *)
  let run domains =
    let prog, out, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:4 in
    let m =
      Gpusim.Machine.create ~functional:true
        (Gpusim.Config.test_box ~n_devices:3 ())
    in
    ignore (Mekong.Multi_gpu.run ~domains ~machine:m (compile_exe prog));
    Array.map Int64.bits_of_float out
  in
  checkb "bit-identical across domain counts" true (run 1 = run 2)

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
  let r = Mekong.Multi_gpu.run ~domains:2 ~machine:m (compile_exe prog) in
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
          Alcotest.test_case "max_domains cap" `Quick test_dpool_max_domains;
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
          Alcotest.test_case "fallback cases" `Quick test_kcompile_fallback_cases;
          Alcotest.test_case "argument mismatch" `Quick
            test_kcompile_arg_mismatch_raises;
          Alcotest.test_case "engine fallback + cache" `Quick
            test_single_gpu_fallback_and_cache;
          qtest prop_differential;
        ] );
      ( "multi_gpu",
        [
          Alcotest.test_case "parallel partitions golden" `Quick
            test_multi_gpu_parallel_golden;
          Alcotest.test_case "domains=1 sequential" `Quick
            test_multi_gpu_domains1_sequential_golden;
          Alcotest.test_case "domains bit-identity" `Quick
            test_multi_gpu_domains_bit_identity;
          Alcotest.test_case "gate blocks unsafe kernels" `Quick
            test_multi_gpu_gate_blocks_unsafe;
        ] );
    ]
