(* Rendering host programs and kernels as a toy CUDA surface syntax.

   The paper's source-to-source rewriter (a lua preprocessor) operates
   on CUDA C++ text with regular expressions.  To demonstrate the same
   mechanism, this module prints a host program as a small .cu file
   that lib/mekong's textual rewriter then transforms. *)

let render_harg = function
  | Host_ir.HInt n -> string_of_int n
  | Host_ir.HFloat f -> Kir.float_literal f
  | Host_ir.HBuf b -> b

let render_dim3 (d : Dim3.t) =
  if d.Dim3.y = 1 && d.Dim3.z = 1 then string_of_int d.Dim3.x
  else Printf.sprintf "dim3(%d, %d, %d)" d.Dim3.x d.Dim3.y d.Dim3.z

let render_stmt buf ~indent (s : Host_ir.stmt) =
  let pad = String.make indent ' ' in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let rec go ~pad s =
    match s with
    | Host_ir.Malloc (name, len) ->
      add "%sfloat *%s;\n" pad name;
      add "%scudaMalloc(&%s, %d * sizeof(float));\n" pad name len
    | Host_ir.Memcpy_h2d { dst; src } ->
      add "%scudaMemcpy(%s, host_%s, %d * sizeof(float), cudaMemcpyHostToDevice);\n"
        pad dst dst src.Host_ir.len
    | Host_ir.Memcpy_d2h { dst; src } ->
      add "%scudaMemcpy(host_out_%s, %s, %d * sizeof(float), cudaMemcpyDeviceToHost);\n"
        pad src src dst.Host_ir.len
    | Host_ir.Launch { kernel; grid; block; args } ->
      add "%s%s<<<%s, %s>>>(%s);\n" pad kernel.Kir.name (render_dim3 grid)
        (render_dim3 block)
        (String.concat ", " (List.map render_harg args))
    | Host_ir.Repeat (n, body) ->
      add "%sfor (int it = 0; it < %d; it++) {\n" pad n;
      List.iter (go ~pad:(pad ^ "  ")) body;
      add "%s}\n" pad
    | Host_ir.Swap (a, b) -> add "%sstd::swap(%s, %s);\n" pad a b
    | Host_ir.Free name -> add "%scudaFree(%s);\n" pad name
    | Host_ir.Sync -> add "%scudaDeviceSynchronize();\n" pad
  in
  go ~pad s

(* The full toy .cu translation unit: kernels then a main() with the
   host program. *)
let render (prog : Host_ir.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "#include <cuda_runtime.h>\n#include <utility>\n\n";
  List.iter
    (fun k -> Buffer.add_string buf (Kir.to_string k ^ "\n"))
    (Host_ir.kernels prog);
  Buffer.add_string buf "int main() {\n";
  List.iter (render_stmt buf ~indent:2) prog.Host_ir.body;
  Buffer.add_string buf "  return 0;\n}\n";
  Buffer.contents buf
