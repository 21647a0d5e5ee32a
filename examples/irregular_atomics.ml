(* Irregular workloads through the data-race verifier: a histogram
   whose bins are data-dependent and a dot product accumulating into
   one element.  Both kernels' blocks collide on purpose — the boolean
   race gate had to reject them; the verifier proves the collisions
   reducible (same-operator atomics) and the engine runs them with
   partition-local accumulation plus an ordered merge.

     dune exec examples/irregular_atomics.exe *)

let run_app name program result reference =
  let artifacts =
    match Mekong.Toolchain.compile program with
    | Ok a -> a
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let km = Mekong.Model.find_exn artifacts.Mekong.Toolchain.model name in
  let kernel =
    List.find
      (fun (k : Kir.t) -> k.Kir.name = name)
      (Host_ir.kernels program)
  in
  Printf.printf "%s: verifier verdict = %s\n" name
    (Mekong.Verify.verdict_to_string (Mekong.Verify.verify ~kernel km));
  let machine =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  let res = Mekong.Multi_gpu.run ~machine artifacts.Mekong.Toolchain.exe in
  let expected = reference () in
  let ok = result = expected in
  Format.printf "%s: 4-GPU result correct: %b, %a" name ok
    (Mekong.Multi_gpu.pp_report [ Mekong.Multi_gpu.Gate ])
    res.Mekong.Multi_gpu.metrics;
  if not ok then exit 1

let () =
  let prog, result, reference =
    Apps.Workloads.functional_histogram ~n:(1 lsl 14) ~nbins:97
  in
  run_app "histogram" prog result reference;
  let prog, result, reference = Apps.Workloads.functional_dot ~n:(1 lsl 14) in
  run_app "dot" prog result reference;
  print_endline "irregular workloads partitioned correctly"
