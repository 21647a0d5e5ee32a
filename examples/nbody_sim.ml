(* Direct N-body simulation on multiple GPUs.

     dune exec examples/nbody_sim.exe -- [--n N] [--iters K] [--gpus G]

   Every body interacts with every other body, so each device must
   gather all positions before each step (the read map covers the whole
   pos array) while writing only its own band — the compute-heavy,
   communication-light profile that scales best in the paper (12.4x on
   16 GPUs). *)

let () =
  let n = ref 512 and iters = ref 4 and gpus = ref 4 in
  let args =
    [
      ("--n", Arg.Set_int n, "number of bodies (default 512)");
      ("--iters", Arg.Set_int iters, "time steps (default 4)");
      ("--gpus", Arg.Set_int gpus, "simulated GPUs (default 4)");
    ]
  in
  Arg.parse args (fun _ -> ()) "nbody_sim";

  let pos, vel = Apps.Nbody.initial ~n:!n in
  let pos_result = Array.make (!n * 4) nan in
  let program =
    Apps.Nbody.program ~n:!n ~iterations:!iters ~dt:Apps.Workloads.nbody_dt
      ~pos ~vel ~pos_result
  in

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

  let expected, _ =
    Apps.Nbody.reference ~n:!n ~iterations:!iters ~dt:Apps.Workloads.nbody_dt
      pos vel
  in
  let ok = pos_result = expected in
  Printf.printf "nbody n=%d, %d steps on %d GPUs\n" !n !iters !gpus;
  Printf.printf "bit-exact vs CPU reference: %b\n" ok;
  Printf.printf "all-gather transfers: %.0f\n"
    (Obs.Metrics.get res.Mekong.Multi_gpu.metrics "engine.transfers");
  Printf.printf "simulated time: %.3f ms\n" (res.Mekong.Multi_gpu.time *. 1e3);
  (* Report the centre of mass drift as a physics sanity check. *)
  let com axis =
    let s = ref 0.0 and m = ref 0.0 in
    for b = 0 to !n - 1 do
      s := !s +. (pos_result.((b * 4) + axis) *. pos_result.((b * 4) + 3));
      m := !m +. pos_result.((b * 4) + 3)
    done;
    !s /. !m
  in
  Printf.printf "centre of mass: (%.5f, %.5f, %.5f)\n" (com 0) (com 1) (com 2);
  if not ok then exit 1
