(* Tests for the toy-CUDA parser: expression/statement grammar,
   render/parse round-trips over all bundled applications, and the
   text-to-execution pipeline. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------------- Kernel parsing ---------------- *)

let parse_kernel_str src =
  let kernels, _ =
    Cuparse.parse_cu ~name:"t" (src ^ "\nint main() { return 0; }\n")
  in
  match kernels with [ k ] -> k | _ -> Alcotest.fail "expected one kernel"

let test_parse_simple_kernel () =
  let k =
    parse_kernel_str
      {|__global__ void axpy(int n, float alpha, float *x /* [n] */, float *y /* [n] */) {
          auto gi = (threadIdx.x + (blockIdx.x * blockDim.x));
          if ((gi < n)) {
            y[gi] = ((alpha * x[gi]) + y[gi]);
          }
        }|}
  in
  checks "name" "axpy" k.Kir.name;
  checki "params" 4 (List.length k.Kir.params);
  (match k.Kir.params with
   | [ Kir.Scalar "n"; Kir.Fscalar "alpha"; Kir.Array { name = "x"; dims };
       Kir.Array { name = "y"; _ } ] ->
     checkb "dims" true (dims = [| Kir.Dim_param "n" |])
   | _ -> Alcotest.fail "bad params");
  match k.Kir.body with
  | [ Kir.Local ("gi", _); Kir.If (_, [ Kir.Store ("y", [ _ ], _) ], []) ] -> ()
  | _ -> Alcotest.fail "bad body shape"

let test_parse_operators () =
  let k =
    parse_kernel_str
      {|__global__ void ops(int n, float *o /* [8] */) {
          auto a = min(1, max(2, 3));
          auto b = sqrtf(2.0f);
          auto c = rsqrtf(4.0f);
          auto d = fabsf(-2.5f);
          auto e = ((1 <= 2) && ((3 > 2) || (n != 4)));
          auto g = (7 % 3);
          o[0] = ((a + b) - ((c * d) / 2.0f));
          __syncthreads();
        }|}
  in
  checki "statements" 8 (List.length k.Kir.body);
  (* evaluate to validate semantics survived parsing *)
  let out = Array.make 8 nan in
  Keval.run k ~grid:Dim3.one ~block:Dim3.one ~args:[ Keval.AInt 5 ]
    ~load:(fun _ off -> out.(off))
    ~store:(fun _ off v -> out.(off) <- v);
  let expected = (1.0 +. sqrt 2.0) -. (0.5 *. 2.5 /. 2.0) in
  Alcotest.(check (float 1e-12)) "value" expected out.(0)

let test_parse_for_loop () =
  let k =
    parse_kernel_str
      {|__global__ void loop(int n, float *o /* [n] */) {
          auto acc = 0f;
          for (int k = 0; k < n; k++) {
            acc = (acc + k);
          }
          o[0] = acc;
        }|}
  in
  let out = Array.make 4 nan in
  Keval.run k ~grid:Dim3.one ~block:Dim3.one ~args:[ Keval.AInt 4 ]
    ~load:(fun _ off -> out.(off))
    ~store:(fun _ off v -> out.(off) <- v);
  Alcotest.(check (float 0.0)) "sum 0..3" 6.0 out.(0)

let test_parse_errors () =
  let fails src =
    match Cuparse.parse_cu ~name:"t" src with
    | exception Cuparse.Error _ -> true
    | _ -> false
  in
  checkb "no main" true (fails "__global__ void k() { }");
  checkb "unterminated" true (fails "int main() { ");
  checkb "bad stmt" true (fails "int main() { cudaBogus(); }");
  checkb "unknown kernel" true (fails "int main() { foo<<<1, 1>>>(); }")

(* A name may carry only one kernel: the engines, the model, link and
   the plan caches key kernels on it. *)
let test_parse_duplicate_kernel () =
  let def k = Printf.sprintf "__global__ void k(float *a /* [4] */) { a[0] = %s; }\n" k in
  let main = "int main() { return 0; }" in
  (match Cuparse.parse_cu ~name:"t" (def "1.0f" ^ def "2.0f" ^ main) with
   | exception Cuparse.Error m -> checks "one-line diagnostic" "kernel k is defined twice" m
   | _ -> Alcotest.fail "two kernels named k accepted");
  (* the same text twice is a second definition too *)
  checkb "identical redefinition" true
    (match Cuparse.parse_cu ~name:"t" (def "1.0f" ^ def "1.0f" ^ main) with
     | exception Cuparse.Error _ -> true
     | _ -> false);
  let kernels, _ = Cuparse.parse_cu ~name:"t" (def "1.0f" ^ main) in
  Alcotest.(check int) "one definition parses" 1 (List.length kernels)

(* ---------------- Round-trips over the bundled apps ---------------- *)

(* Host programs compare up to host-array data (the text carries only
   extents). *)
let normalize_stmt (s : Host_ir.stmt) : Host_ir.stmt =
  match s with
  | Host_ir.Memcpy_h2d { dst; src } ->
    Host_ir.Memcpy_h2d { dst; src = Host_ir.host_phantom src.Host_ir.len }
  | Host_ir.Memcpy_d2h { dst; src } ->
    Host_ir.Memcpy_d2h { dst = Host_ir.host_phantom dst.Host_ir.len; src }
  | other -> other

let rec normalize_stmts l =
  List.map
    (function
      | Host_ir.Repeat (n, body) -> Host_ir.Repeat (n, normalize_stmts body)
      | s -> normalize_stmt s)
    l

let roundtrip_app name (prog : Host_ir.t) =
  let src = Cusrc.render prog in
  let kernels, parsed = Cuparse.parse_cu ~name:prog.Host_ir.name src in
  (* kernels round-trip structurally *)
  List.iter2
    (fun (k : Kir.t) (k' : Kir.t) ->
       checkb (name ^ ": kernel " ^ k.Kir.name ^ " round-trips") true (k = k'))
    (Host_ir.kernels prog) kernels;
  (* the host program round-trips up to host data *)
  checkb (name ^ ": host program round-trips") true
    (normalize_stmts prog.Host_ir.body = normalize_stmts parsed.Host_ir.body);
  (* and the rendered text reaches a fixpoint *)
  checks (name ^ ": render fixpoint") src (Cusrc.render parsed)

let test_roundtrip_all_apps () =
  let vec, _, _ = Apps.Workloads.functional_vecadd ~n:100 in
  roundtrip_app "vecadd" vec;
  let hs, _, _ = Apps.Workloads.functional_hotspot ~n:32 ~iterations:3 in
  roundtrip_app "hotspot" hs;
  let nb, _, _ = Apps.Workloads.functional_nbody ~n:64 ~iterations:2 in
  roundtrip_app "nbody" nb;
  let mm, _, _ = Apps.Workloads.functional_matmul ~n:16 in
  roundtrip_app "matmul" mm;
  let sp = Apps.Spmv.banded ~n:40 ~band:4 in
  let x = Array.make 40 1.0 in
  let out = Array.make 40 nan in
  roundtrip_app "spmv" (Apps.Spmv.program ~m:sp ~x ~result:out);
  let hg, _, _ = Apps.Workloads.functional_histogram ~n:64 ~nbins:7 in
  roundtrip_app "histogram" hg;
  let dp, _, _ = Apps.Workloads.functional_dot ~n:64 in
  roundtrip_app "dot" dp

(* ---------------- Text-to-execution pipeline ---------------- *)

let test_compile_from_text () =
  (* Render hotspot to text, parse it back, compile the parsed program
     and run it in performance mode on 8 GPUs. *)
  let prog = Apps.Workloads.program ~iterations:10 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small in
  let src = Cusrc.render prog in
  let _, parsed = Cuparse.parse_cu ~name:"hotspot_from_text" src in
  match Mekong.Toolchain.compile parsed with
  | Error e -> Alcotest.failf "compile: %s" (Mekong.Toolchain.error_message e)
  | Ok artifacts ->
    let m =
      Gpusim.Machine.create ~functional:false
        (Gpusim.Config.k80_box ~n_devices:8 ())
    in
    let r = Mekong.Multi_gpu.run ~machine:m artifacts.Mekong.Toolchain.exe in
    checkb "simulated time advanced" true (r.Mekong.Multi_gpu.time > 0.0);
    checki "launches: 10 iterations x 8 devices" 80
      (Gpusim.Machine.stats m).Gpusim.Machine.n_launches

let () =
  Alcotest.run "cuparse"
    [
      ( "kernels",
        [
          Alcotest.test_case "simple kernel" `Quick test_parse_simple_kernel;
          Alcotest.test_case "operators" `Quick test_parse_operators;
          Alcotest.test_case "for loop" `Quick test_parse_for_loop;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "duplicate kernel" `Quick test_parse_duplicate_kernel;
        ] );
      ( "roundtrip",
        [ Alcotest.test_case "all bundled apps" `Quick test_roundtrip_all_apps ] );
      ( "pipeline",
        [ Alcotest.test_case "compile from text" `Quick test_compile_from_text ] );
    ]
