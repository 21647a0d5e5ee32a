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

(* ---------------- Lexer ---------------- *)

let token_testable =
  Alcotest.testable
    (fun fmt -> function
       | Cuparse.Ident s -> Format.fprintf fmt "Ident %s" s
       | Cuparse.Int_lit n -> Format.fprintf fmt "Int %d" n
       | Cuparse.Float_lit f -> Format.fprintf fmt "Float %h" f
       | Cuparse.Punct p -> Format.fprintf fmt "Punct %S" p
       | Cuparse.Eof -> Format.fprintf fmt "Eof")
    (fun a b ->
       match (a, b) with
       | Cuparse.Float_lit x, Cuparse.Float_lit y ->
         Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
       | _ -> a = b)

let check_tokens src expected =
  Alcotest.(check (list token_testable)) src expected (Cuparse.tokens src)

let test_lex_punctuation () =
  let spellings =
    [ "<<<"; ">>>"; "<="; ">="; "=="; "!="; "&&"; "||"; "++"; "::";
      "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "<"; ">"; "+"; "-"; "*"; "/";
      "%"; "="; "&"; "!"; "." ]
  in
  check_tokens (String.concat " " spellings) (List.map (fun p -> Cuparse.Punct p) spellings)

let test_lex_longest_match () =
  let id s = Cuparse.Ident s and p s = Cuparse.Punct s in
  check_tokens "k<<<" [ id "k"; p "<<<" ];
  check_tokens "k>>>(" [ id "k"; p ">>>"; p "(" ];
  check_tokens "x<=y" [ id "x"; p "<="; id "y" ];
  check_tokens "x>=y" [ id "x"; p ">="; id "y" ];
  check_tokens "x<-y" [ id "x"; p "<"; p "-"; id "y" ];
  check_tokens "x<<y" [ id "x"; p "<"; p "<"; id "y" ];
  check_tokens "x>>y" [ id "x"; p ">"; p ">"; id "y" ];
  check_tokens "i++" [ id "i"; p "++" ];
  check_tokens "i+++j" [ id "i"; p "++"; p "+"; id "j" ];
  check_tokens "std::swap" [ id "std"; p "::"; id "swap" ];
  check_tokens "a!=b" [ id "a"; p "!="; id "b" ];
  check_tokens "!x" [ p "!"; id "x" ];
  check_tokens "a==b=c" [ id "a"; p "=="; id "b"; p "="; id "c" ];
  check_tokens "&a&&b||c" [ p "&"; id "a"; p "&&"; id "b"; p "||"; id "c" ];
  check_tokens "a/b // c\n/* [n] */ d" [ id "a"; p "/"; id "b"; id "d" ]

let test_lex_numbers () =
  let fl x = Cuparse.Float_lit x in
  check_tokens "7 0f 2.5f 1e5 1e+20f 2.5e-3f 1e-05f"
    [ Cuparse.Int_lit 7; fl 0.0; fl 2.5; fl 1e5; fl 1e20; fl 2.5e-3; fl 1e-5 ];
  check_tokens "1e+06f+1" [ fl 1e6; Cuparse.Punct "+"; Cuparse.Int_lit 1 ]

(* A diagnostic names the line and column of the offending token. *)
let error_of src =
  match Cuparse.parse_cu ~name:"t" src with
  | exception Cuparse.Error m -> m
  | _ -> Alcotest.failf "accepted: %s" src

let test_lex_rejects () =
  checks "lone |" "unexpected character | at 2:5" (error_of "int main() {\n  a | b;\n}");
  checks "lone :" "unexpected character : at 1:17" (error_of "int main() { std:swap(a, b); }");
  checks "parser errors give line:column too" "expected ';', got '}' at 3:1"
    (error_of "int main() {\n  return 0\n}")

let test_malformed_literals () =
  let in_kernel lit =
    Printf.sprintf "__global__ void k(float *a /* [4] */) {\n  a[0] = %s;\n}\n" lit
    ^ "int main() { return 0; }"
  in
  checks "two points" "malformed float literal 3.0.5 at 2:10" (error_of (in_kernel "3.0.5f"));
  checks "empty exponent" "malformed float literal 1e+ at 2:10" (error_of (in_kernel "1e+f"));
  checks "int overflow" "integer literal 99999999999999999999 out of range at 2:10"
    (error_of (in_kernel "99999999999999999999"));
  let k = parse_kernel_str (in_kernel "1e+20f") in
  match k.Kir.body with
  | [ Kir.Store (_, _, Kir.Fconst x) ] -> Alcotest.(check (float 0.0)) "1e+20f" 1e20 x
  | _ -> Alcotest.fail "1e+20f did not parse as a constant"

(* C reads [010] as octal 8; the toy syntax rejects a leading zero
   rather than read it as decimal 10. *)
let test_leading_zero () =
  checks "octal-looking" "integer literal 010 has a leading zero at 1:27"
    (error_of "int main() { for (int i = 010; i < 2; i++) { } }");
  check_tokens "0 0.5f 0e1 10" [ Cuparse.Int_lit 0; Cuparse.Float_lit 0.5; Cuparse.Float_lit 0.0; Cuparse.Int_lit 10 ]

(* Every kernel passes [Kir.check] as it is parsed; a failure is one
   diagnostic at the kernel's [__global__]. *)
let test_check_rejections () =
  let kernel body =
    "// a kernel the check rejects\n__global__ void k(int n, float *a /* [n] */) {\n"
    ^ body ^ "\n}\nint main() { return 0; }"
  in
  let rejects what body msg = checks what (msg ^ " at 2:1") (error_of (kernel body)) in
  rejects "undeclared identifier" "a[0] = inff;" "kernel k: undeclared identifier inff";
  rejects "bool used as number" "a[0] = ((n < 2) + 1);" "kernel k: bool used as a number in +";
  rejects "float used as condition" "if (a[0]) { a[0] = 1.0f; }"
    "kernel k: float used as a condition in an if";
  rejects "local rebound at another type" "auto t = 1;\nt = 2.5f;\na[0] = t;"
    "kernel k: local t rebound at type float (was int)";
  rejects "unknown array" "b[0] = 1.0f;" "kernel k: unknown array b";
  rejects "unknown array in an atomic" "atomicAdd(&n[0], 1.0f);" "kernel k: unknown array n"

(* A float launch argument for an int parameter has no one value: the
   analysis would truncate it and the engines would not. *)
let test_float_for_int_argument () =
  checks "float for int" "float argument 2.5 bound to int parameter n at 3:60"
    (error_of
       "__global__ void k(int n, float *a /* [n] */) { a[0] = 1.0f; }\n\
        int main() {\n  float *a; cudaMalloc(&a, 4 * sizeof(float)); k<<<1, 4>>>(2.5f, a);\n}")

(* Float constants render with the fewest digits that read back to the
   same bits, keeping %g's text where that already did. *)
let test_float_literals () =
  checks "1.0" "1f" (Kir.float_literal 1.0);
  checks "0.125" "0.125f" (Kir.float_literal 0.125);
  checks "1e6" "1e+06f" (Kir.float_literal 1e6);
  checks "0.1234567" "0.1234567f" (Kir.float_literal 0.1234567);
  checks "0.1" "0.1f" (Kir.float_literal 0.1);
  checks "1/3" "0.3333333333333333f" (Kir.float_literal (1.0 /. 3.0));
  checks "0.1 + 0.2" "0.30000000000000004f" (Kir.float_literal (0.1 +. 0.2))

(* Any finite non-negative constant, in a kernel body and as a launch
   argument, survives render then parse bit for bit. *)
let gen_const =
  let open QCheck.Gen in
  let finite x = if Float.is_finite x then x else 0.5 in
  oneof
    [
      return 0.0;
      map (fun b -> finite (Int64.float_of_bits (Int64.logand b Int64.max_int))) ui64;
      float_bound_inclusive 1000.0;
      map2 (fun m e -> float_of_int m *. (10.0 ** float_of_int (-e))) (int_bound 1_000_000) (int_bound 12);
      map (fun m -> float_of_int m *. 1e6) (int_bound 1000);
    ]

let prop_float_roundtrip =
  QCheck.Test.make ~name:"float constants round-trip" ~count:300
    (QCheck.make ~print:(fun l -> String.concat " " (List.map (Printf.sprintf "%h") l))
       (QCheck.Gen.list_repeat 5 gen_const))
    (fun cs ->
       let c = Array.of_list cs in
       let kernel =
         Kir.kernel ~name:"k"
           ~params:[ Kir.Array { name = "a"; dims = [| Kir.Dim_const 4 |] }; Kir.Fscalar "s"; Kir.Fscalar "t" ]
           [
             Kir.Local ("x", Kir.Fconst c.(0));
             Kir.Store
               ( "a", [ Kir.Iconst 0 ],
                 Kir.Binop (Kir.Add, Kir.Var "x", Kir.Binop (Kir.Mul, Kir.Param "s", Kir.Fconst c.(1))) );
             Kir.If (Kir.Binop (Kir.Lt, Kir.Param "t", Kir.Fconst c.(2)), [ Kir.Assign ("x", Kir.Param "t") ], []);
           ]
       in
       let launch =
         Host_ir.Launch
           { kernel; grid = Dim3.one; block = Dim3.make 4;
             args = [ Host_ir.HBuf "a"; Host_ir.HFloat c.(3); Host_ir.HFloat c.(4) ] }
       in
       let prog = Host_ir.program ~name:"t" [ Host_ir.Malloc ("a", 4); launch; Host_ir.Free "a" ] in
       let bits_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
       let harg_eq a b =
         match (a, b) with
         | Host_ir.HFloat x, Host_ir.HFloat y -> bits_eq x y
         | _ -> a = b
       in
       match Cuparse.parse_cu ~name:"t" (Cusrc.render prog) with
       | ( [ k ],
           { Host_ir.body =
               [ Host_ir.Malloc ("a", 4); Host_ir.Launch { kernel = k'; args; _ }; Host_ir.Free "a" ];
             _ } ) ->
         Kir.equal kernel k && Kir.equal kernel k'
         && List.equal harg_eq [ Host_ir.HBuf "a"; Host_ir.HFloat c.(3); Host_ir.HFloat c.(4) ] args
       | _ -> false)

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
          Alcotest.test_case "check rejections" `Quick test_check_rejections;
          Alcotest.test_case "float for int argument" `Quick test_float_for_int_argument;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "every punctuation spelling" `Quick test_lex_punctuation;
          Alcotest.test_case "longest match" `Quick test_lex_longest_match;
          Alcotest.test_case "numeric literals" `Quick test_lex_numbers;
          Alcotest.test_case "lone | and :" `Quick test_lex_rejects;
          Alcotest.test_case "malformed literals" `Quick test_malformed_literals;
          Alcotest.test_case "leading zero" `Quick test_leading_zero;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "all bundled apps" `Quick test_roundtrip_all_apps;
          Alcotest.test_case "float literals" `Quick test_float_literals;
          QCheck_alcotest.to_alcotest prop_float_roundtrip;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "compile from text" `Quick test_compile_from_text ] );
    ]
