(* Heat-diffusion stencil on multiple GPUs.

     dune exec examples/stencil_heat.exe -- [--n N] [--iters K] [--gpus G]

   Runs the Hotspot 5-point stencil functionally on G simulated GPUs and
   validates against the CPU reference, then prints what the runtime did:
   the halo-exchange transfers between neighbouring devices each
   iteration are exactly the read-set/owner mismatches the tracker
   detects (paper §8.3 and Figure 3). *)

let () =
  let n = ref 128 and iters = ref 8 and gpus = ref 4 in
  let args =
    [
      ("--n", Arg.Set_int n, "grid side length (default 128)");
      ("--iters", Arg.Set_int iters, "stencil iterations (default 8)");
      ("--gpus", Arg.Set_int gpus, "simulated GPUs (default 4)");
    ]
  in
  Arg.parse args (fun _ -> ()) "stencil_heat";

  let init = Apps.Hotspot.initial ~n:!n in
  let result = Array.make (!n * !n) nan in
  let program = Apps.Hotspot.program ~n:!n ~iterations:!iters ~init ~result in

  let artifacts =
    match Mekong.Toolchain.compile program with
    | Ok a -> a
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in

  let machine =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:!gpus ())
  in
  let res = Mekong.Multi_gpu.run ~machine artifacts.Mekong.Toolchain.exe in

  let expected = Apps.Hotspot.reference ~n:!n ~iterations:!iters init in
  let ok = result = expected in
  let stats = Gpusim.Machine.stats machine in
  Printf.printf "hotspot %dx%d, %d iterations on %d GPUs\n" !n !n !iters !gpus;
  Printf.printf "bit-exact vs CPU reference: %b\n" ok;
  Printf.printf "halo-exchange transfers: %.0f (expect ~2*(G-1) per iteration)\n"
    (Obs.Metrics.get res.Mekong.Multi_gpu.metrics "engine.transfers");
  Printf.printf "p2p bytes moved: %d\n" stats.Gpusim.Machine.p2p_bytes;
  Printf.printf "simulated time: %.3f ms\n" (res.Mekong.Multi_gpu.time *. 1e3);
  (* Centre temperature as a sanity check. *)
  Printf.printf "centre temperature after diffusion: %.4f\n"
    result.(((!n / 3) * !n) + (!n / 2));
  if not ok then exit 1
