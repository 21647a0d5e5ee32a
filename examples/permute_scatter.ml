(* Indirect scatter with instrumented write sets (the paper's §11
   fallback).

     dune exec examples/permute_scatter.exe -- [--n N] [--gpus G]

   The kernel writes o[idx[i]] = 2*x[i]: the write subscript is
   data-dependent, so the polyhedral analysis cannot model it and the
   static pipeline rejects the kernel.  With --instrument the compiler
   builds a minimal shadow clone that records each partition's writes
   at run time (and checks dynamically that no two partitions collide),
   which is exactly the remedy the paper's conclusion proposes. *)

let scatter_kernel =
  let open Kir in
  let dims = [| Dim_param "n" |] in
  Kir.kernel ~name:"scatter"
    ~params:
      [
        Scalar "n";
        Array { name = "idx"; dims };
        Array { name = "x"; dims };
        Array { name = "o"; dims };
      ]
    [
      Local ("gi", global_id Dim3.X);
      If
        ( v "gi" < p "n",
          [
            Local ("j", load "idx" [ v "gi" ]);
            store "o" [ v "j" ] (load "x" [ v "gi" ] * f 2.0);
          ],
          [] );
    ]

let () =
  let n = ref 4096 and gpus = ref 4 in
  Arg.parse
    [
      ("--n", Arg.Set_int n, "elements (default 4096)");
      ("--gpus", Arg.Set_int gpus, "simulated GPUs (default 4)");
    ]
    (fun _ -> ()) "permute_scatter";
  let n = !n in

  (* A permutation via a unit stride coprime to n. *)
  let stride = 7 in
  let stride = if n mod stride = 0 then stride + 1 else stride in
  let idx = Array.init n (fun i -> float_of_int ((i * stride + 1) mod n)) in
  let x = Array.init n (fun i -> float_of_int i) in
  let result = Array.make n nan in

  let program =
    let grid = Dim3.make ((n + 127) / 128) and block = Dim3.make 128 in
    Host_ir.program ~name:"permute_scatter"
      [
        Host_ir.Malloc ("idx", n);
        Host_ir.Malloc ("x", n);
        Host_ir.Malloc ("o", n);
        Host_ir.Memcpy_h2d { dst = "idx"; src = Host_ir.host_data idx };
        Host_ir.Memcpy_h2d { dst = "x"; src = Host_ir.host_data x };
        Host_ir.Launch
          {
            kernel = scatter_kernel;
            grid;
            block;
            args =
              [ Host_ir.HInt n; Host_ir.HBuf "idx"; Host_ir.HBuf "x";
                Host_ir.HBuf "o" ];
          };
        Host_ir.Memcpy_d2h { dst = Host_ir.host_data result; src = "o" };
        Host_ir.Free "idx";
        Host_ir.Free "x";
        Host_ir.Free "o";
      ]
  in

  (* The static pipeline rejects the kernel... *)
  (match Mekong.Toolchain.compile program with
   | Error e ->
     Printf.printf "static analysis: %s\n" (Mekong.Toolchain.error_message e)
   | Ok _ -> print_endline "static analysis unexpectedly succeeded");

  (* ...the instrumented pipeline accepts it. *)
  let artifacts =
    match Mekong.Toolchain.compile ~instrument_writes:true program with
    | Ok a -> a
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  print_endline "instrumented pipeline: accepted (write sets collected at run time)";

  let shadow = Mekong.Instrument.shadow_kernel scatter_kernel in
  Printf.printf "shadow kernel size: %d statements (original %d)\n"
    (Kopt.size shadow) (Kopt.size scatter_kernel);

  let machine =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:!gpus ())
  in
  let res = Mekong.Multi_gpu.run ~machine artifacts.Mekong.Toolchain.exe in

  let expected = Array.make n nan in
  Array.iteri (fun i j -> expected.(int_of_float j) <- 2.0 *. x.(i)) idx;
  Printf.printf "%d-GPU scatter correct: %b\n" !gpus (result = expected);
  Printf.printf "simulated time: %.3f ms (%.0f sync transfers)\n"
    (res.Mekong.Multi_gpu.time *. 1e3)
    (Obs.Metrics.get res.Mekong.Multi_gpu.metrics "engine.transfers");
  if result <> expected then exit 1
