(* Dense matrix multiply on multiple GPUs, with a look inside the
   generated communication.

     dune exec examples/matmul_blocks.exe -- [--n N] [--gpus G]

   The suggested strategy splits C (and A) into row bands; B, read
   column-wise by every thread, was scattered linearly at H2D time, so
   the runtime all-gathers it before the kernel starts — the
   "mismatched data distribution corrected by the runtime" of paper
   §9.1.  The example also prints the generated enumerator plans for
   the kernel's access maps (paper §6). *)

let () =
  let n = ref 96 and gpus = ref 4 in
  let args =
    [
      ("--n", Arg.Set_int n, "matrix side length (default 96)");
      ("--gpus", Arg.Set_int gpus, "simulated GPUs (default 4)");
    ]
  in
  Arg.parse args (fun _ -> ()) "matmul_blocks";

  let a, b = Apps.Matmul.initial ~n:!n in
  let result = Array.make (!n * !n) nan in
  let program = Apps.Matmul.program ~n:!n ~a ~b ~result in

  let artifacts =
    match Mekong.Toolchain.compile program with
    | Ok art -> art
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in

  (* Show the generated enumerators (the paper's §6 code generation). *)
  let km = Mekong.Model.find_exn artifacts.Mekong.Toolchain.model "matmul" in
  let enums = Mekong.Codegen.build km in
  print_endline "=== generated enumerator plans ===";
  List.iter
    (fun e -> print_string (Mekong.Codegen.render_entry e))
    enums.Mekong.Codegen.entries;

  let machine =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:!gpus ())
  in
  let res = Mekong.Multi_gpu.run ~machine artifacts.Mekong.Toolchain.exe in

  let expected = Apps.Matmul.reference ~n:!n a b in
  let ok = result = expected in
  let stats = Gpusim.Machine.stats machine in
  Printf.printf "\nmatmul %dx%d on %d GPUs\n" !n !n !gpus;
  Printf.printf "bit-exact vs CPU reference: %b\n" ok;
  Printf.printf
    "redistribution transfers before launch: %.0f (B all-gather: G-1 per device)\n"
    (Obs.Metrics.get res.Mekong.Multi_gpu.metrics "engine.transfers");
  Printf.printf "p2p bytes: %d (~= (G-1) * n*n * 4 = %d)\n"
    stats.Gpusim.Machine.p2p_bytes
    ((!gpus - 1) * !n * !n * 4);
  Printf.printf "simulated time: %.3f ms\n" (res.Mekong.Multi_gpu.time *. 1e3);
  if not ok then exit 1
