(* The two-pass compilation pipeline (paper §3, Fig. 2).

   Pass 1 runs the compiler front-end and the polyhedral analysis; the
   resulting application model is written to disk and every other
   artifact is discarded.  The source-to-source rewriter then produces
   the multi-GPU host source, and pass 2 compiles it again, generating
   the partitioned kernels and the enumerator code and linking against
   the runtime library.  The repeated front-end work is why the paper
   reports a 1.9x-2.2x compile-time increase. *)

type artifacts = {
  model : Model.t;
  exe : Multi_gpu.exe;
  original_source : string;
  rewritten_source : string;
  model_file : string option;
}

type error = { kernel : string; reason : Access.error }

let error_message e =
  Printf.sprintf "kernel %s: %s" e.kernel (Access.error_message e.reason)

(* The work shared by both passes: host-program validation, device-code
   optimization to a fixpoint, cost estimation and rendering — the
   stand-in for a gpucc invocation's front-end/middle-end/back-end. *)
let frontend_pass (prog : Host_ir.t) =
  Obs.Span.with_span ~cat:"toolchain" "frontend" @@ fun () ->
  Host_ir.validate prog;
  List.iter
    (fun k ->
       let k' = Kopt.optimize k in
       ignore (Kopt.size k');
       ignore (Costmodel.ops_per_thread k' ~scalar_env:[]))
    (Host_ir.kernels prog);
  Cusrc.render prog

(* Pass 1: analysis only; everything but the model is discarded.
   [instrument_writes] enables the §11 fallback: kernels with
   unanalyzable writes are accepted and their write sets collected at
   run time instead of being rejected. *)
let pass1 ?assume ?(instrument_writes = false) (prog : Host_ir.t) :
  (Model.t * string, error) result =
  let source = frontend_pass prog in
  let on_inexact_write = if instrument_writes then `Instrument else `Reject in
  let rec go acc = function
    | [] -> Ok (Model.of_analyses (List.rev acc), source)
    | k :: rest -> (
        match Access.analyze ?assume ~on_inexact_write k with
        | Ok a -> go (a :: acc) rest
        | Error reason -> Error { kernel = k.Kir.name; reason })
  in
  Obs.Span.with_span ~cat:"toolchain" "analyze" @@ fun () ->
  go [] (Host_ir.kernels prog)

(* Pass 2: compile the rewritten application against the model. *)
let pass2 (model : Model.t) (prog : Host_ir.t) : Multi_gpu.exe =
  ignore (frontend_pass prog);
  Obs.Span.with_span ~cat:"toolchain" "link" @@ fun () ->
  Multi_gpu.link ~model prog

let compile ?assume ?instrument_writes ?model_file (prog : Host_ir.t) :
  (artifacts, error) result =
  Obs.Span.with_span ~cat:"toolchain" "compile" @@ fun () ->
  match pass1 ?assume ?instrument_writes prog with
  | Error e -> Error e
  | Ok (model, original_source) ->
    (* Persist the model and reload it, exactly as the two separate
       gpucc invocations communicate through the file system. *)
    let model =
      match model_file with
      | Some file ->
        Model.save model ~file;
        Model.load ~file
      | None -> Model.of_string (Model.to_string model)
    in
    let rewritten_source =
      Obs.Span.with_span ~cat:"toolchain" "rewrite" (fun () ->
          Rewriter.rewrite original_source)
    in
    let exe = pass2 model prog in
    Ok { model; exe; original_source; rewritten_source; model_file }

(* Static plan explanation (`mekongc plan` / `run --explain-plan`):
   re-derive the autotuner's candidate search for every distinct launch
   of the program, outside any engine run.  The scoring inputs the
   engine reads from live state are reconstructed statically: buffer
   lengths from the Mallocs, double-buffer aliases from the Swaps,
   iteration context from the enclosing Repeat products, and the live
   set as the full fleet.  On ideal hardware this is exactly what the
   engine's first build of each plan computes. *)
let static_launches ~(cfg : Gpusim.Config.t) (a : artifacts) =
  let prog = a.exe.Multi_gpu.prog in
  let lens : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let rec mallocs (s : Host_ir.stmt) =
    match s with
    | Host_ir.Malloc (name, len) -> Hashtbl.replace lens name len
    | Host_ir.Repeat (_, body) -> List.iter mallocs body
    | _ -> ()
  in
  List.iter mallocs prog.Host_ir.body;
  let aliases, iters_of = Plan.loop_context prog in
  let env =
    { Plan.patterns = true; tiling = `One_d; overlap = false; autotune = true;
      live = List.init cfg.Gpusim.Config.n_devices Fun.id;
      mem_cap = cfg.Gpusim.Config.mem_capacity;
      elem_bytes = cfg.Gpusim.Config.elem_bytes;
      (* Unknown names (never Malloc'd) leave ranges unclamped. *)
      buf_len = (fun b -> Option.value ~default:max_int (Hashtbl.find_opt lens b)) }
  in
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  (* [loop]: the iteration count and swap of an enclosing
     double-buffered stencil loop, the shape halo tiling applies to. *)
  let rec collect ?loop (s : Host_ir.stmt) =
    match s with
    | Host_ir.Launch { kernel; grid; block; args } ->
      let k = (kernel.Kir.name, grid, block, args) in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        match List.assoc_opt kernel.Kir.name a.exe.Multi_gpu.compiled with
        | None -> ()
        | Some ck ->
          let choice =
            Plan.choose ~cfg ~aliases ~iters:(iters_of kernel) env ck kernel
              ~grid ~block ~args
          in
          acc := (choice, (ck, kernel, grid, block, args, loop)) :: !acc
      end
    | Host_ir.Repeat (n, ([ Host_ir.Launch _; Host_ir.Swap (x, y) ] as body)) ->
      List.iter (collect ~loop:(n, (x, y))) body
    | Host_ir.Repeat (_, body) -> List.iter collect body
    | _ -> ()
  in
  List.iter collect prog.Host_ir.body;
  (List.rev !acc, env)

let explain_plans ~cfg a = List.map fst (fst (static_launches ~cfg a))

(* The step list an engine on [cfg]'s fleet runs for each launch: the
   autotuner's winner when [autotune], else the model's axis.  A
   halo-tiled stencil loop shows its first temporal block. *)
let launch_steps ?(overlap = false) ?(autotune = true) ~(cfg : Gpusim.Config.t) a =
  let launches, env = static_launches ~cfg a in
  let env = { env with Plan.overlap; autotune } in
  List.map
    (fun (choice, (ck, kernel, grid, block, args, loop)) ->
       let plan =
         Plan.launch ?choice:(if autotune then Some choice else None) env ck
           kernel ~grid ~block ~args
       in
       let halo =
         match (loop, plan.Launch_cache.pl_halo) with
         | Some (n, swap), Some hp when n > 1 ->
           Plan.halo env ck kernel plan ~grid ~block ~args
             ~iters:(min n hp.Launch_cache.hp_depth) ~swap
         | _ -> None
       in
       (choice, Option.value halo ~default:(Plan.of_launch env ck plan)))
    launches

(* Wall-clock compile times of the reference single pass and of the
   full two-pass partitioning pipeline (experiment E6; the paper
   reports 1.9x-2.2x).  Each stage is the median of [repeat] timed
   runs after one untimed warm-up: a stage takes milliseconds, so the
   mean of a few back-to-back runs follows the host's noise. *)
let compile_time_ratio ?(repeat = 21) (prog : Host_ir.t) =
  if repeat < 1 then invalid_arg "Toolchain.compile_time_ratio: repeat must be positive";
  let time f =
    ignore (f ());
    let runs =
      Array.init repeat (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t0)
    in
    Array.sort Float.compare runs;
    (runs.((repeat - 1) / 2) +. runs.(repeat / 2)) /. 2.0
  in
  let t_ref = time (fun () -> frontend_pass prog) in
  let t_mekong = time (fun () -> compile prog) in
  (t_ref, t_mekong, t_mekong /. t_ref)

type profile = {
  p_frontend : float; (* one front-end invocation (runs twice) *)
  p_analysis : float; (* polyhedral access analysis (pass 1 extra) *)
  p_rewrite : float; (* source-to-source rewriter *)
  p_link : float; (* partitioning + enumerator codegen + link (pass 2 extra) *)
}

(* Per-stage wall times of one pipeline execution, for the compile-time
   report.  The paper's 1.9x-2.2x arises structurally because the
   (dominant) front-end runs twice; here the front-end is a DSL and the
   analysis dominates instead — the decomposition makes that visible. *)
let compile_profile (prog : Host_ir.t) =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let p_frontend, _ = time (fun () -> frontend_pass prog) in
  let p_analysis, model =
    time (fun () ->
        Model.of_analyses
          (List.map
             (fun k ->
                match Access.analyze k with
                | Ok a -> a
                | Error e -> failwith (Access.error_message e))
             (Host_ir.kernels prog)))
  in
  let p_rewrite, _ = time (fun () -> Rewriter.rewrite (Cusrc.render prog)) in
  let p_link, _ = time (fun () -> Multi_gpu.link ~model prog) in
  { p_frontend; p_analysis; p_rewrite; p_link }
