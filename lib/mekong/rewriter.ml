(* The source-to-source host-code rewriter (paper §5).

   The paper performs the host transformation with text substitutions
   driven by regular expressions (a lua preprocessor); this module does
   the same over the toy .cu rendering of a host program, producing the
   multi-GPU source that references the runtime-library primitives.
   Three kinds of substitutions are made, mirroring §5:

   1. prologue insertion at the top of the file (runtime header,
      device discovery);
   2. CUDA API calls redirected to their virtual-buffer replacements
      (identical prototypes, §8.4);
   3. kernel launches replaced by the partition/synchronize/launch/
      update sequence of Fig. 4, via a runtime dispatch call.

   The executable pipeline does not depend on this text pass (host
   programs are transformed at the Host_ir level); this implements the
   paper's mechanism and is exercised by tests and the mekongc driver. *)

let api_replacements =
  [
    ("cudaMalloc", "mekongMalloc");
    ("cudaFree", "mekongFree");
    ("cudaMemcpyAsync", "mekongMemcpyAsync");
    ("cudaMemcpy", "mekongMemcpy");
    ("cudaDeviceSynchronize", "mekongDeviceSynchronize");
    ("cudaGetDeviceCount", "mekongGetDeviceCount");
  ]

let prologue =
  String.concat "\n"
    [
      "#include \"mekong_runtime.h\"";
      "/* mekong: host code rewritten for multi-GPU execution */";
      "";
    ]

(* Replace `kern<<<grid, block>>>(args);` with the runtime dispatch that
   performs the Fig. 4 sequence for kernel `kern`. *)
let rewrite_launches src =
  let launch_re =
    Str.regexp
      "\\([A-Za-z_][A-Za-z0-9_]*\\)<<<\\([^>]*\\)>>>(\\([^;]*\\));"
  in
  Str.global_replace launch_re
    "mekongLaunch(&mekong_model_\\1, /*grid*/ \\2, mekongArgs(\\3));" src

let rewrite_api src =
  List.fold_left
    (fun acc (from_, to_) ->
       Str.global_replace (Str.regexp_string from_) to_ acc)
    src api_replacements

(* Insert the prologue after the last #include line (or at the top). *)
let insert_prologue src =
  let lines = String.split_on_char '\n' src in
  let rec split_includes acc = function
    | l :: rest when String.length l >= 8 && String.sub l 0 8 = "#include" ->
      split_includes (l :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let includes, body = split_includes [] lines in
  String.concat "\n" (includes @ [ prologue ] @ body)

let rewrite src = insert_prologue (rewrite_api (rewrite_launches src))
