(* Tests for the CUDA-like programming model: Dim3, the kernel IR and
   its interpreter, the cost model, the optimization passes, host
   program validation, and the toy .cu rendering. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkfl msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b

(* Kernel-building forms that only the tests use. *)
let sqrt_ e = Kir.Unop (Kir.Sqrt, e)
let min_ a b = Kir.Binop (Kir.Minb, a, b)
let max_ a b = Kir.Binop (Kir.Maxb, a, b)

(* ---------------- Dim3 ---------------- *)

let test_dim3 () =
  let d = Dim3.make 4 ~y:3 ~z:2 in
  checki "volume" 24 (Dim3.volume d);
  checki "get x" 4 (Dim3.get d Dim3.X);
  checki "get y" 3 (Dim3.get d Dim3.Y);
  checki "get z" 2 (Dim3.get d Dim3.Z);
  let count = ref 0 in
  Dim3.iter d (fun _ -> incr count);
  checki "iter visits all" 24 !count;
  checkb "one" true (Dim3.equal Dim3.one (Dim3.make 1));
  Alcotest.check_raises "zero rejected"
    (Invalid_argument "Dim3.make: extents must be >= 1") (fun () ->
      ignore (Dim3.make 0));
  Alcotest.(check string) "axis names" "zyx"
    (String.concat "" (List.map Dim3.axis_name Dim3.axes))

(* ---------------- Keval ---------------- *)

(* Kernel: c[gi] = a[gi] * 2 + gi for gi < n *)
let double_kernel =
  let open Kir in
  Kir.kernel ~name:"dbl"
    ~params:
      [
        Scalar "n";
        Array { name = "a"; dims = [| Dim_param "n" |] };
        Array { name = "c"; dims = [| Dim_param "n" |] };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If
        ( v "gi" < p "n",
          [ store "c" [ v "gi" ] ((load "a" [ v "gi" ] * f 2.0) + v "gi") ],
          [] );
    ]

let run_simple kernel ~n ~a =
  let c = Array.make n nan in
  Keval.run kernel ~grid:(Dim3.make ((n + 3) / 4)) ~block:(Dim3.make 4)
    ~args:[ Keval.AInt n ]
    ~load:(fun _ off -> a.(off))
    ~store:(fun _ off v -> c.(off) <- v);
  c

let test_keval_basic () =
  let n = 10 in
  let a = Array.init n (fun i -> float_of_int (100 + i)) in
  let c = run_simple double_kernel ~n ~a in
  checkb "values" true
    (Array.for_all (fun x -> x = x) c
     && c.(3) = (103.0 *. 2.0) +. 3.0
     && c.(9) = (109.0 *. 2.0) +. 9.0)

let test_keval_guard () =
  (* n smaller than the grid: threads beyond n must not store. *)
  let n = 5 in
  let a = Array.make 5 1.0 in
  let c = run_simple double_kernel ~n ~a in
  checki "stores" 5 (Array.length c)

let test_keval_loop_and_locals () =
  let open Kir in
  (* sum[0] written by thread 0 only: sum of k*k for k < n *)
  let k =
    Kir.kernel ~name:"sumsq"
      ~params:[ Scalar "n"; Array { name = "out"; dims = [| Dim_const 1 |] } ]
      [
        Local ("gi", global_id Dim3.X);
        If
          ( v "gi" = i 0,
            [
              Local ("acc", f 0.0);
              For
                {
                  var = "k";
                  from_ = i 0;
                  to_ = p "n";
                  body = [ Assign ("acc", v "acc" + (v "k" * v "k")) ];
                };
              store "out" [ i 0 ] (v "acc");
            ],
            [] );
      ]
  in
  let out = Array.make 1 nan in
  Keval.run k ~grid:(Dim3.make 2) ~block:(Dim3.make 2) ~args:[ Keval.AInt 5 ]
    ~load:(fun _ off -> out.(off))
    ~store:(fun _ off v -> out.(off) <- v);
  checkfl "sum of squares" 30.0 out.(0)

let test_keval_int_float_ops () =
  let open Kir in
  let k =
    Kir.kernel ~name:"ops"
      ~params:[ Array { name = "out"; dims = [| Dim_const 8 |] } ]
      [
        If
          ( global_id Dim3.X = i 0,
            [
              store "out" [ i 0 ] (Binop (Idiv, i 7, i 2));
              store "out" [ i 1 ] (Binop (Imod, i 7, i 2));
              store "out" [ i 2 ] (i 7 / i 2); (* float division *)
              store "out" [ i 3 ] (min_ (i 3) (i 5));
              store "out" [ i 4 ] (max_ (f 3.5) (f 1.5));
              store "out" [ i 5 ] (sqrt_ (f 16.0));
              store "out" [ i 6 ] (rsqrt (f 4.0));
              store "out" [ i 7 ] (Unop (Abs, f (-2.5)));
            ],
            [] );
      ]
  in
  let out = Array.make 8 nan in
  Keval.run k ~grid:Dim3.one ~block:Dim3.one ~args:[]
    ~load:(fun _ off -> out.(off))
    ~store:(fun _ off v -> out.(off) <- v);
  Alcotest.(check (array (float 1e-12)))
    "op semantics"
    [| 3.0; 1.0; 3.5; 3.0; 3.5; 4.0; 0.5; 2.5 |]
    out

let test_keval_oob () =
  let open Kir in
  let k =
    Kir.kernel ~name:"oob"
      ~params:[ Array { name = "out"; dims = [| Dim_const 2 |] } ]
      [ store "out" [ i 5 ] (f 1.0) ]
  in
  checkb "out of bounds raises" true
    (try
       Keval.run k ~grid:Dim3.one ~block:Dim3.one ~args:[]
         ~load:(fun _ _ -> 0.0)
         ~store:(fun _ _ _ -> ());
       false
     with Invalid_argument _ -> true)

(* ---------------- Cost model ---------------- *)

let test_costmodel_trip_counts () =
  (* nbody's j-loop runs n times: ops per thread must grow ~linearly
     with n. *)
  let small = Costmodel.ops_per_thread Apps.Nbody.kernel ~scalar_env:[ ("n", 100) ] in
  let large = Costmodel.ops_per_thread Apps.Nbody.kernel ~scalar_env:[ ("n", 1000) ] in
  checkb "linear in n" true (large > small *. 8.0 && large < small *. 12.0);
  (* hotspot has no loops: constant per-thread cost *)
  let h1 = Costmodel.ops_per_thread Apps.Hotspot.kernel ~scalar_env:[ ("n", 64) ] in
  let h2 = Costmodel.ops_per_thread Apps.Hotspot.kernel ~scalar_env:[ ("n", 4096) ] in
  checkfl "constant" h1 h2;
  (* block cost scales with threads *)
  let per_block =
    Costmodel.ops_per_block Apps.Hotspot.kernel ~scalar_env:[ ("n", 64) ]
      ~block:(Dim3.make 16 ~y:16)
  in
  checkfl "block = 256 threads" (h1 *. 256.0) per_block

(* A loop bound evaluates statically from the scalar arguments, or
   charges one iteration: [for k < bound] over one store (4 ops) costs
   1 + ops(bound) + trips * 4. *)
let test_costmodel_eval () =
  let ops env bound =
    let k =
      Kir.kernel ~name:"k" ~params:[ Kir.Array { name = "o"; dims = [| Kir.Dim_const 1 |] } ]
        [ Kir.For { var = "k"; from_ = Kir.i 0; to_ = bound; body = [ Kir.store "o" [ Kir.i 0 ] (Kir.f 1.0) ] } ]
    in
    Costmodel.ops_per_thread k ~scalar_env:env
  in
  checkfl "eval" (1.0 +. 1.0 +. (30.0 *. 4.0)) (ops [ ("n", 10) ] (Kir.Binop (Kir.Mul, Kir.Param "n", Kir.Iconst 3)));
  checkfl "unbound" (1.0 +. 4.0) (ops [] (Kir.Param "m"));
  checkfl "runtime value" (1.0 +. 4.0) (ops [] (Kir.Special (Kir.Thread_idx Dim3.X)))

(* ---------------- Kopt ---------------- *)

(* What [Kopt.optimize] leaves of [body] in a kernel over [a] and
   [o]. *)
let optimized body =
  let arr name = Kir.Array { name; dims = [| Kir.Dim_const 4 |] } in
  (Kopt.optimize (Kir.kernel ~name:"k" ~params:[ arr "a"; arr "o" ] body)).Kir.body

(* The value [Kopt.optimize] leaves in [o[0] = e]. *)
let fold_exp e =
  match optimized [ Kir.store "o" [ Kir.i 0 ] e ] with
  | [ Kir.Store (_, _, e') ] -> e'
  | _ -> Alcotest.fail "the store did not survive"

let test_kopt_folding () =
  let open Kir in
  let e = (i 2 + i 3) * v "x" + i 0 in
  (match fold_exp e with
   | Binop (Mul, Iconst 5, Var "x") -> ()
   | other -> Alcotest.failf "unexpected fold: %s" (Kir.to_string (Kir.kernel ~name:"folded" ~params:[] [ store "o" [] other ])));
  (* x + 0 and x * 1 *)
  checkb "add zero" true (Stdlib.( = ) (fold_exp (v "x" + i 0)) (v "x"));
  checkb "mul one" true (Stdlib.( = ) (fold_exp (v "x" * i 1)) (v "x"));
  (* float zero is NOT annihilated (NaN semantics) *)
  (match fold_exp (v "x" * f 0.0) with
   | Binop (Mul, _, _) -> ()
   | _ -> Alcotest.fail "float x*0 must not fold");
  (* A float zero folds only where the sum is [x] for [x = -0.0] too:
     [x + -0.0] and [x - +0.0]. *)
  let x = load "a" [ i 0 ] in
  let folds e = Stdlib.( = ) (fold_exp e) x in
  checkb "x + -0.0 folds" true (folds (x + f (-0.0)));
  checkb "-0.0 + x folds" true (folds (f (-0.0) + x));
  checkb "x - +0.0 folds" true (folds (x - f 0.0));
  checkb "x + +0.0 stays" false (folds (x + f 0.0));
  checkb "+0.0 + x stays" false (folds (f 0.0 + x));
  checkb "x - -0.0 stays" false (folds (x - f (-0.0)))

let test_kopt_dead_branches () =
  let open Kir in
  let body =
    [
      If (i 1 < i 2, [ store "o" [ i 0 ] (f 1.0) ], [ store "o" [ i 0 ] (f 2.0) ]);
      If (i 5 < i 2, [ store "o" [ i 1 ] (f 3.0) ], []);
      For { var = "k"; from_ = i 3; to_ = i 3; body = [ store "o" [ i 2 ] (f 4.0) ] };
    ]
  in
  match optimized body with
  | [ Store ("o", [ Iconst 0 ], Fconst 1.0) ] -> ()
  | other ->
    Alcotest.failf "unexpected optimization result (%d stmts)"
      (List.length other)

let test_kopt_dead_locals () =
  let open Kir in
  let body =
    [
      Local ("used", f 1.0);
      Local ("unused", f 2.0);
      store "o" [ i 0 ] (v "used");
    ]
  in
  checki "dead local removed" 2 (List.length (optimized body))

let test_kopt_preserves_semantics () =
  (* Optimized kernels must compute the same values. *)
  let n = 64 in
  let a = Array.init n (fun i -> float_of_int i *. 0.5) in
  let k_opt = Kopt.optimize double_kernel in
  let c1 = run_simple double_kernel ~n ~a in
  let c2 = run_simple k_opt ~n ~a in
  checkb "same results" true (c1 = c2);
  (* The partitioned+optimized benchmarks keep semantics too. *)
  List.iter
    (fun k ->
       let k' = Kopt.optimize k in
       checkb (k.Kir.name ^ " size not larger") true
         (Kopt.size k' <= Kopt.size k))
    [ Apps.Hotspot.kernel; Apps.Nbody.kernel; Apps.Matmul.kernel ]

(* ---------------- Host_ir validation ---------------- *)

let test_validate_catches () =
  let open Host_ir in
  let bad_uses_unallocated =
    program ~name:"p" [ Memcpy_h2d { dst = "x"; src = host_data [| 1.0 |] } ]
  in
  checkb "unallocated" true
    (try validate bad_uses_unallocated; false with Invalid_argument _ -> true);
  let double_malloc =
    program ~name:"p" [ Malloc ("x", 4); Malloc ("x", 4) ]
  in
  checkb "double malloc" true
    (try validate double_malloc; false with Invalid_argument _ -> true);
  let size_mismatch =
    program ~name:"p"
      [ Malloc ("x", 4); Memcpy_h2d { dst = "x"; src = host_data [| 1.0 |] } ]
  in
  checkb "size mismatch" true
    (try validate size_mismatch; false with Invalid_argument _ -> true);
  let wrong_args =
    program ~name:"p"
      [
        Malloc ("x", 4);
        Launch
          {
            kernel = Apps.Vecadd.kernel;
            grid = Dim3.one;
            block = Dim3.one;
            args = [ HInt 4; HBuf "x" ];
          };
      ]
  in
  checkb "arity mismatch" true
    (try validate wrong_args; false with Invalid_argument _ -> true);
  (* a correct program passes *)
  let ok_prog, _, _ = Apps.Workloads.functional_vecadd ~n:16 in
  validate ok_prog

let validation_error prog =
  match Host_ir.validate prog with
  | () -> None
  | exception Invalid_argument msg -> Some msg

(* Each distinct kernel passes [Kir.check], and an int parameter takes
   no float: the analysis would truncate it and the engines would not.
   Keval refuses the float too. *)
let test_validate_types () =
  let open Host_ir in
  let launch kernel args = program ~name:"p" [ Malloc ("x", 4); Launch { kernel; grid = Dim3.one; block = Dim3.one; args } ] in
  let ill =
    Kir.kernel ~name:"ill" ~params:[ Kir.Array { name = "x"; dims = [| Kir.Dim_const 4 |] } ]
      [ Kir.If (Kir.Fconst 1.0, [ Kir.Store ("x", [ Kir.Iconst 0 ], Kir.Fconst 2.0) ], []) ]
  in
  Alcotest.(check (option string)) "ill-typed kernel"
    (Some "Host_ir.validate(p): kernel ill: float used as a condition in an if")
    (validation_error (launch ill [ HBuf "x" ]));
  let scale =
    Kir.kernel ~name:"scale"
      ~params:[ Kir.Scalar "n"; Kir.Array { name = "x"; dims = [| Kir.Dim_param "n" |] } ]
      [ Kir.Store ("x", [ Kir.Iconst 0 ], Kir.Param "n") ]
  in
  Alcotest.(check (option string)) "float for int"
    (Some "Host_ir: float argument 2.5 bound to int parameter n")
    (validation_error (launch scale [ HFloat 2.5; HBuf "x" ]));
  checkb "keval refuses it too" true
    (match
       Keval.run scale ~grid:Dim3.one ~block:Dim3.one ~args:[ Keval.AFloat 2.5 ]
         ~load:(fun _ _ -> 0.0) ~store:(fun _ _ _ -> ())
     with
     | () -> false
     | exception Invalid_argument m -> m = "Keval: float argument 2.5 bound to int parameter n")

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* One name, one kernel: a structurally equal copy may be launched
   under it, a different body or array extent may not. *)
let test_validate_kernel_names () =
  let open Host_ir in
  let k = Apps.Vecadd.kernel in
  let launch kernel =
    Launch
      { kernel; grid = Dim3.one; block = Dim3.one; args = [ HInt 4; HBuf "a"; HBuf "b"; HBuf "c" ] }
  in
  let p k' =
    program ~name:"p"
      ([ Malloc ("a", 4); Malloc ("b", 4); Malloc ("c", 4) ] @ [ launch k; Repeat (2, [ launch k' ]) ])
  in
  checkb "a structural copy is the same kernel" true
    (validation_error (p { k with Kir.body = List.map Fun.id k.Kir.body }) = None);
  let other_body = { k with Kir.body = [] } in
  let other_extent =
    {
      k with
      Kir.params =
        List.map
          (function
            | Kir.Array { name; dims } ->
              Kir.Array { name; dims = Array.map (fun _ -> Kir.Dim_const 4) dims }
            | q -> q)
          k.Kir.params;
    }
  in
  List.iter
    (fun (what, k') ->
       match validation_error (p k') with
       | Some msg ->
         checkb what true (contains msg ("two different kernels named " ^ k.Kir.name))
       | None -> Alcotest.failf "%s: accepted" what)
    [ ("different body", other_body); ("different extent", other_extent) ]

(* A Repeat body runs more than once: what it leaves live the next
   iteration finds. *)
let test_validate_repeat () =
  let open Host_ir in
  let p body = program ~name:"p" body in
  (match validation_error (p [ Repeat (2, [ Malloc ("a", 16) ]) ]) with
   | Some msg -> checkb "double malloc across iterations" true (contains msg "double malloc")
   | None -> Alcotest.fail "Repeat (2, [Malloc]) accepted");
  checkb "a second iteration frees a freed buffer" true
    (validation_error (p [ Malloc ("a", 16); Repeat (2, [ Free "a" ]) ]) <> None);
  checkb "free then malloc balances" true
    (validation_error
       (p [ Malloc ("a", 16); Repeat (3, [ Free "a"; Malloc ("a", 16) ]) ])
     = None)

(* Validating a Repeat of at most 3 iterations agrees with validating
   the program with every Repeat unrolled. *)
let rec unroll body =
  List.concat_map
    (function
      | Host_ir.Repeat (n, b) -> List.concat (List.init n (fun _ -> unroll b))
      | s -> [ s ])
    body

let gen_host_body =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b" ] in
  let leaf =
    oneof
      [
        map (fun b -> Host_ir.Malloc (b, 4)) name;
        map (fun b -> Host_ir.Free b) name;
        map2 (fun a b -> Host_ir.Swap (a, b)) name name;
        return Host_ir.Sync;
      ]
  in
  sized_size (int_bound 3)
  @@ fix (fun self depth ->
      let stmt =
        if depth = 0 then leaf
        else
          frequency
            [ (3, leaf);
              (1, map2 (fun n b -> Host_ir.Repeat (n, b)) (int_range 1 3)
                   (self (depth - 1))) ]
      in
      list_size (int_range 1 5) stmt)

let prop_validate_unrolled =
  QCheck.Test.make ~name:"validate == validate of the unrolled program"
    ~count:500
    (QCheck.make gen_host_body)
    (fun body ->
       let p b = Host_ir.program ~name:"p" b in
       validation_error (p body) = validation_error (p (unroll body)))

let test_phantom_arrays () =
  let ph = Host_ir.host_phantom 42 in
  checki "phantom length" 42 ph.Host_ir.len;
  checkb "no data" true (ph.Host_ir.data = None);
  Alcotest.check_raises "phantom in functional context"
    (Invalid_argument "Host_ir: phantom host array used in a functional run")
    (fun () -> ignore (Host_ir.host_data_exn ph))

let test_kernels_dedup () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:3 in
  checki "one kernel despite repeats" 1 (List.length (Host_ir.kernels prog))

(* ---------------- Cusrc rendering ---------------- *)

let test_cusrc_render () =
  let prog, _, _ = Apps.Workloads.functional_matmul ~n:32 in
  let src = Cusrc.render prog in
  let has needle =
    let re = Str.regexp_string needle in
    try ignore (Str.search_forward re src 0); true with Not_found -> false
  in
  checkb "kernel signature" true (has "__global__ void matmul");
  checkb "launch syntax" true (has "matmul<<<");
  checkb "cudaMalloc" true (has "cudaMalloc");
  checkb "cudaMemcpy" true (has "cudaMemcpyHostToDevice");
  checkb "main" true (has "int main()");
  (* hotspot's loop + swap also render *)
  let hs, _, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:2 in
  let hsrc = Cusrc.render hs in
  let has2 needle =
    let re = Str.regexp_string needle in
    try ignore (Str.search_forward re hsrc 0); true with Not_found -> false
  in
  checkb "iteration loop" true (has2 "for (int it = 0; it < 2; it++)");
  checkb "swap" true (has2 "std::swap(t_in, t_out)")

(* ---------------- Single_gpu engine ---------------- *)

let test_single_gpu_vecadd () =
  let prog, result, cpu = Apps.Workloads.functional_vecadd ~n:300 in
  let r = Single_gpu.run prog in
  checkb "result" true (result = cpu ());
  checkb "time advanced" true (r.Single_gpu.time > 0.0)

let test_single_gpu_swap_semantics () =
  (* After an odd number of hotspot iterations plus swaps, the result
     must come from the freshly-written buffer. *)
  let prog, result, cpu = Apps.Workloads.functional_hotspot ~n:20 ~iterations:1 in
  ignore (Single_gpu.run prog);
  checkb "one-iteration swap" true (result = cpu ())

let test_single_gpu_machine_reuse () =
  (* Regression: a machine reused after a multi-GPU run carries the
     active-device high-water mark, and the single-GPU baseline must
     not inherit its autoboost derate.  The kernel time shows on the
     device compute timeline (host-side sync charges can swallow it in
     the end-to-end figure). *)
  let prog, result, cpu = Apps.Workloads.functional_vecadd ~n:65536 in
  let mk () =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:8 ())
  in
  let fresh = Single_gpu.run ~machine:(mk ()) prog in
  let reused_m = mk () in
  (* as if a multi-GPU run had kept all 8 dies busy before *)
  Gpusim.Machine.set_active_devices reused_m 8;
  let reused = Single_gpu.run ~machine:reused_m prog in
  let exact = Alcotest.check (Alcotest.float 1e-12) in
  exact "same kernel time"
    (Gpusim.Machine.device_time fresh.Single_gpu.machine 0)
    (Gpusim.Machine.device_time reused_m 0);
  exact "same baseline time" fresh.Single_gpu.time reused.Single_gpu.time;
  checkb "functional result intact" true (result = cpu ())

let () =
  Alcotest.run "minicuda"
    [
      ("dim3", [ Alcotest.test_case "basics" `Quick test_dim3 ]);
      ( "keval",
        [
          Alcotest.test_case "basic kernel" `Quick test_keval_basic;
          Alcotest.test_case "guards" `Quick test_keval_guard;
          Alcotest.test_case "loops and locals" `Quick test_keval_loop_and_locals;
          Alcotest.test_case "operator semantics" `Quick test_keval_int_float_ops;
          Alcotest.test_case "bounds checking" `Quick test_keval_oob;
        ] );
      ( "costmodel",
        [
          Alcotest.test_case "trip counts" `Quick test_costmodel_trip_counts;
          Alcotest.test_case "static eval" `Quick test_costmodel_eval;
        ] );
      ( "kopt",
        [
          Alcotest.test_case "constant folding" `Quick test_kopt_folding;
          Alcotest.test_case "dead branches" `Quick test_kopt_dead_branches;
          Alcotest.test_case "dead locals" `Quick test_kopt_dead_locals;
          Alcotest.test_case "semantics preserved" `Quick test_kopt_preserves_semantics;
        ] );
      ( "host_ir",
        [
          Alcotest.test_case "validation" `Quick test_validate_catches;
          Alcotest.test_case "repeat validation" `Quick test_validate_repeat;
          Alcotest.test_case "one kernel per name" `Quick test_validate_kernel_names;
          Alcotest.test_case "kernel and argument types" `Quick test_validate_types;
          QCheck_alcotest.to_alcotest prop_validate_unrolled;
          Alcotest.test_case "phantom arrays" `Quick test_phantom_arrays;
          Alcotest.test_case "kernel dedup" `Quick test_kernels_dedup;
        ] );
      ("cusrc", [ Alcotest.test_case "rendering" `Quick test_cusrc_render ]);
      ( "single_gpu",
        [
          Alcotest.test_case "vecadd" `Quick test_single_gpu_vecadd;
          Alcotest.test_case "swap semantics" `Quick test_single_gpu_swap_semantics;
          Alcotest.test_case "machine reuse" `Quick test_single_gpu_machine_reuse;
        ] );
    ]
