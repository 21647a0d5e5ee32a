(* Quickstart: compile a single-GPU vector-add program for four
   simulated GPUs and check the result.

     dune exec examples/quickstart.exe

   The program is written once against the single-GPU model
   (malloc / memcpy / one kernel launch / memcpy back); the toolchain
   analyzes the kernel's memory accesses, partitions the grid, inserts
   the buffer synchronization, and runs the same source on all four
   devices. *)

let () =
  let n = 1 lsl 16 in
  let a = Array.init n (fun i -> float_of_int i) in
  let b = Array.init n (fun i -> float_of_int (2 * i)) in
  let result = Array.make n nan in

  (* The single-GPU host program, as a user would write it. *)
  let program = Apps.Vecadd.program ~n ~a ~b ~result in

  (* Show the toy CUDA source and what the rewriter does to it. *)
  print_endline "=== original single-GPU source (excerpt) ===";
  let src = Cusrc.render program in
  String.split_on_char '\n' src
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter print_endline;

  (* Compile: pass 1 (analysis) -> model -> rewrite -> pass 2 (link). *)
  let artifacts =
    match Mekong.Toolchain.compile program with
    | Ok a -> a
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let km = Mekong.Model.find_exn artifacts.Mekong.Toolchain.model "vecadd" in
  Printf.printf "\nanalysis: kernel vecadd partitioned along %s\n"
    (Dim3.axis_name km.Mekong.Model.strategy);

  (* Run on a simulated 4-GPU machine (functional mode: real data). *)
  let machine =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  let res = Mekong.Multi_gpu.run ~machine artifacts.Mekong.Toolchain.exe in

  (* Validate against the CPU reference. *)
  let expected = Apps.Vecadd.reference a b in
  let ok = result = expected in
  Printf.printf "4-GPU result correct: %b\n" ok;
  Printf.printf "simulated time: %.3f ms, stale-data transfers: %.0f\n"
    (res.Mekong.Multi_gpu.time *. 1e3)
    (Obs.Metrics.get res.Mekong.Multi_gpu.metrics "engine.transfers");
  let stats = Gpusim.Machine.stats machine in
  Printf.printf "kernel launches: %d (1 per device)\n"
    stats.Gpusim.Machine.n_launches;
  if not ok then exit 1
