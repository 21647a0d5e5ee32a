(* The single-GPU reference engine.

   Executes a host program against device 0 of a simulated machine,
   exactly as NVCC-compiled binaries do on one GPU in the paper's
   baseline measurements.  Functional runs produce bit-exact buffer
   contents; performance runs produce the simulated reference time the
   speedup figures divide by. *)

type result = {
  machine : Gpusim.Machine.t;
  time : float; (* simulated end-to-end seconds (after final sync) *)
  exec : Obs.Metrics.t; (* the run's exec.* counters (Kcompile.launch) *)
}

let run ?(machine : Gpusim.Machine.t option)
    ?(executor = `Compiled) (prog : Host_ir.t) : result =
  let m =
    match machine with
    | Some m -> m
    | None -> Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:1 ())
  in
  Host_ir.validate prog;
  (* A reused machine may carry the previous run's active-device
     high-water mark; a single-GPU run keeps exactly one die busy and
     must not inherit the derate. *)
  Gpusim.Machine.set_active_devices m 1;
  let bufs : (string, Gpusim.Buffer.t) Hashtbl.t = Hashtbl.create 16 in
  let find b =
    match Hashtbl.find_opt bufs b with
    | Some buf -> buf
    | None -> invalid_arg ("Single_gpu: unallocated buffer " ^ b)
  in
  let metrics = Obs.Metrics.create () in
  let ex = Kcompile.executor metrics in
  let rec exec (s : Host_ir.stmt) =
    match s with
    | Host_ir.Malloc (name, len) ->
      Hashtbl.replace bufs name (Gpusim.Machine.alloc m ~device:0 ~len)
    | Host_ir.Memcpy_h2d { dst; src } ->
      let b = find dst in
      let data =
        if Gpusim.Machine.is_functional m then Host_ir.host_data_exn src
        else Option.value src.Host_ir.data ~default:[||]
      in
      Gpusim.Machine.h2d m ~src:data ~src_off:0 ~dst:b ~dst_off:0
        ~len:src.Host_ir.len
    | Host_ir.Memcpy_d2h { dst; src } ->
      let b = find src in
      (* The reference binary synchronizes implicitly on blocking
         cudaMemcpy D2H. *)
      Gpusim.Machine.synchronize m;
      let data =
        if Gpusim.Machine.is_functional m then Host_ir.host_data_exn dst
        else Option.value dst.Host_ir.data ~default:[||]
      in
      Gpusim.Machine.d2h m ~src:b ~src_off:0 ~dst:data ~dst_off:0
        ~len:dst.Host_ir.len;
      Gpusim.Machine.synchronize m
    | Host_ir.Launch { kernel; grid; block; args } ->
      let bindings = Host_ir.array_bindings kernel args in
      let buffer_of name = find (List.assoc name bindings) in
      let scalar_env = Host_ir.scalar_bindings kernel args in
      let ops = Costmodel.ops_per_block kernel ~scalar_env ~block in
      let scalars = Host_ir.scalar_args args in
      Gpusim.Machine.launch m ~device:0 ~blocks:(Dim3.volume grid)
        ~ops_per_block:ops ~run:(fun () ->
          let access a =
            let data = Gpusim.Buffer.data_exn (buffer_of a) in
            { Kcompile.loads = data; stores = data; touched = None }
          in
          (* Never [~parallel]: without a polyhedral model there is no
             race-freedom proof to justify a domain pool. *)
          Kcompile.launch ex ~interpret:(executor = `Interpreter) kernel ~grid
            ~block ~args:scalars ~access)
    | Host_ir.Repeat (n, body) ->
      for _ = 1 to n do
        List.iter exec body
      done
    | Host_ir.Swap (a, b) ->
      let ba = find a and bb = find b in
      Hashtbl.replace bufs a bb;
      Hashtbl.replace bufs b ba
    | Host_ir.Free name ->
      Gpusim.Machine.free m (find name);
      Hashtbl.remove bufs name
    | Host_ir.Sync -> Gpusim.Machine.synchronize m
  in
  List.iter exec prog.Host_ir.body;
  Gpusim.Machine.synchronize m;
  { machine = m; time = Gpusim.Machine.host_time m; exec = metrics }
