(* Tests for the multi-tenant serving layer: admission control,
   priorities, deadlines, the circuit breaker, graceful degradation
   under permanent device loss, the engine's preempt/resume handoff,
   and the headline robustness property — every completed job's
   functional output is bit-identical to running it alone on the full
   machine, under any schedule. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let qtest t = QCheck_alcotest.to_alcotest t

let compile_exn prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)

let fleet ?mem_capacity n = Gpusim.Config.test_box ~n_devices:n ?mem_capacity ()

(* An outcome's name, for failure messages. *)
let outcome_name = function
  | Serve.Job.Completed _ -> "completed"
  | Serve.Job.Rejected _ -> "rejected"
  | Serve.Job.Timed_out _ -> "timed_out"
  | Serve.Job.Quarantined _ -> "quarantined"

let outcome_of (r : Serve.Scheduler.report) name =
  match
    List.find_opt (fun (j : Serve.Job.report) -> j.Serve.Job.r_name = name)
      r.Serve.Scheduler.r_jobs
  with
  | Some j -> j.Serve.Job.r_outcome
  | None -> Alcotest.failf "no job named %s in report" name

let count_outcome (r : Serve.Scheduler.report) pred =
  List.length
    (List.filter (fun (j : Serve.Job.report) -> pred j.Serve.Job.r_outcome)
       r.Serve.Scheduler.r_jobs)

let is_completed = function Serve.Job.Completed _ -> true | _ -> false
let is_rejected = function Serve.Job.Rejected _ -> true | _ -> false

(* Bit identity: [=] on floats equates [-0.0] with [+0.0] and fails on
   every NaN. *)
let bits a = Array.map Int64.bits_of_float a

(* ---------------- Satellite: domain-count validation ---------------- *)

let test_dpool_rejects_nonpositive () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "create ~domains:0 rejected" true
    (raises (fun () -> Gpu_runtime.Dpool.create ~domains:0 ()));
  checkb "create ~domains:-2 rejected" true
    (raises (fun () -> Gpu_runtime.Dpool.create ~domains:(-2) ()));
  checkb "set_default_domains 0 rejected" true
    (raises (fun () -> Gpu_runtime.Dpool.set_default_domains 0));
  (* Positive values still work. *)
  ignore (Gpu_runtime.Dpool.create ~domains:1 ())

(* Sizes above the runtime's domain limit are refused before any domain
   is spawned (a spawned-then-refused pool would die half-built). *)
let test_dpool_rejects_over_limit () =
  let limit = Gpu_runtime.Dpool.max_domains in
  checki "OCaml 5.1 limit" 128 limit;
  let names_limit f =
    match f () with
    | exception Invalid_argument msg ->
      Str.string_match (Str.regexp (".*at most " ^ string_of_int limit)) msg 0
    | _ -> false
  in
  List.iter
    (fun d ->
       checkb (Printf.sprintf "create ~domains:%d rejected" d) true
         (names_limit (fun () -> Gpu_runtime.Dpool.create ~domains:d ()));
       checkb (Printf.sprintf "set_default_domains %d rejected" d) true
         (names_limit (fun () -> Gpu_runtime.Dpool.set_default_domains d)))
    [ limit + 1; 100_000 ]

(* ---------------- Satellite: typed total-loss failure ---------------- *)

let test_all_devices_lost_typed () =
  let prog, _, _ = Apps.Workloads.functional_vecadd ~n:256 in
  let exe = compile_exn prog in
  let m = Gpusim.Machine.create ~functional:true (fleet 2) in
  let spec =
    { Gpusim.Faults.null_spec with scheduled_losses = [ (0, 0.0); (1, 0.0) ] }
  in
  Gpusim.Machine.inject_faults m (Gpusim.Faults.create spec);
  checkb "raises All_devices_lost" true
    (match Mekong.Multi_gpu.run ~machine:m exe with
     | exception Mekong.Multi_gpu.All_devices_lost -> true
     | _ -> false)

(* ---------------- Config.lease ---------------- *)

let test_config_lease () =
  let box = fleet 8 in
  let l = Gpusim.Config.lease box ~n_devices:3 in
  checki "lease size" 3 l.Gpusim.Config.n_devices;
  checkb "lease name tagged" true
    (l.Gpusim.Config.name <> box.Gpusim.Config.name);
  let raises n =
    match Gpusim.Config.lease box ~n_devices:n with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "lease 0 rejected" true (raises 0);
  checkb "lease 9 rejected" true (raises 9)

(* ---------------- Engine preempt / resume ---------------- *)

let test_preempt_resume_bit_identical () =
  let prog, out, cpu = Apps.Workloads.functional_hotspot ~n:32 ~iterations:3 in
  let exe = compile_exn prog in
  (* Force at least one preemption by aborting very early, then resume
     on machines of varying device count until done. *)
  let handoff = ref None in
  let preempts = ref 0 in
  let devices = [| 4; 2; 3; 1; 2; 4; 1; 3 |] in
  let finished = ref false in
  let step = ref 0 in
  while not !finished do
    if !step >= 64 then Alcotest.fail "resume chain did not terminate";
    let g = devices.(!step mod Array.length devices) in
    let m = Gpusim.Machine.create ~functional:true (fleet g) in
    (match
       Mekong.Multi_gpu.run_bounded ~checkpoint_every:2 ~abort_at:2e-4
         ?resume:!handoff ~machine:m exe
     with
     | Mekong.Multi_gpu.Done _ -> finished := true
     | Mekong.Multi_gpu.Preempted (_, h) ->
       incr preempts;
       handoff := Some h);
    incr step
  done;
  checkb "at least one preemption" true (!preempts > 0);
  checkb "resumed output = CPU reference" true (out = cpu ())

let test_run_without_abort_never_preempts () =
  let prog, out, cpu = Apps.Workloads.functional_vecadd ~n:512 in
  let exe = compile_exn prog in
  let m = Gpusim.Machine.create ~functional:true (fleet 3) in
  (match Mekong.Multi_gpu.run_bounded ~machine:m exe with
   | Mekong.Multi_gpu.Done _ -> ()
   | Mekong.Multi_gpu.Preempted _ -> Alcotest.fail "preempted without abort_at");
  checkb "output = CPU" true (out = cpu ())

(* The recovery loop: a fault while a handoff is installed or while a
   preemption gathers heals like a fault during a statement.  The
   resume cases take the handoff of a hotspot run on 4 GPUs preempted
   at 2e-4 s. *)

let hotspot_handoff () =
  let prog, out, cpu = Apps.Workloads.functional_hotspot ~n:32 ~iterations:3 in
  let exe = compile_exn prog in
  let m = Gpusim.Machine.create ~functional:true (fleet 4) in
  match Mekong.Multi_gpu.run_bounded ~abort_at:2e-4 ~machine:m exe with
  | Mekong.Multi_gpu.Preempted (_, h) -> (exe, h, out, cpu)
  | Mekong.Multi_gpu.Done _ -> Alcotest.fail "hotspot run was not preempted"

let faulty_machine g spec =
  let m = Gpusim.Machine.create ~functional:true (fleet g) in
  Gpusim.Machine.inject_faults m (Gpusim.Faults.create spec);
  m

let resume_done ~g spec =
  let exe, h, out, cpu = hotspot_handoff () in
  let m = faulty_machine g spec in
  match Mekong.Multi_gpu.run_bounded ~resume:h ~machine:m exe with
  | Mekong.Multi_gpu.Done r ->
    checkb "resumed output = CPU reference" true (out = cpu ());
    r.Mekong.Multi_gpu.faults
  | Mekong.Multi_gpu.Preempted _ -> Alcotest.fail "preempted without abort_at"

let test_resume_transient_faults () =
  let f =
    resume_done ~g:2
      { Gpusim.Faults.null_spec with seed = 3; transfer_fault_rate = 0.5 }
  in
  checkb "the install's transfer faults were retried" true
    (f.Mekong.Multi_gpu.fr_retries > 0)

let test_resume_device_lost () =
  let f =
    resume_done ~g:2
      { Gpusim.Faults.null_spec with scheduled_losses = [ (1, 0.0) ] }
  in
  checki "devices lost" 1 f.Mekong.Multi_gpu.fr_devices_lost

(* Losing device 1 leaves output no replica holds, and there is no
   checkpoint yet, so the replay rewinds to the handoff; device 2 dies
   during that re-install, which then runs again on device 0 alone. *)
let test_replay_reinstall_faults () =
  let f =
    resume_done ~g:3
      {
        Gpusim.Faults.null_spec with
        scheduled_losses = [ (1, 1.8e-4); (2, 2e-4) ];
      }
  in
  checki "one replay to the handoff" 1 f.Mekong.Multi_gpu.fr_replays;
  checki "both devices lost" 2 f.Mekong.Multi_gpu.fr_devices_lost

(* A preemption gather retries under the statement policy: 100 us
   doubling to a 10 ms cap.  With this seed no statement before the
   preemption faults, so all nine retries fall in the gather and the
   backoff is that of nine consecutive retries of one action. *)
let test_preempt_gather_backoff () =
  let prog, out, cpu = Apps.Workloads.functional_hotspot ~n:32 ~iterations:3 in
  let exe = compile_exn prog in
  let m =
    faulty_machine 4
      { Gpusim.Faults.null_spec with seed = 51; transfer_fault_rate = 0.2 }
  in
  match Mekong.Multi_gpu.run_bounded ~abort_at:2e-4 ~machine:m exe with
  | Mekong.Multi_gpu.Done _ -> Alcotest.fail "not preempted"
  | Mekong.Multi_gpu.Preempted (r, h) ->
    checki "gather retries" 9 r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_retries;
    let expected =
      List.fold_left
        (fun acc k -> acc +. Float.min 10e-3 (100e-6 *. (2.0 ** float_of_int k)))
        0.0
        (List.init 9 Fun.id)
    in
    Alcotest.check (Alcotest.float 1e-12) "backoff seconds" expected
      (Gpusim.Timeline.busy_in (Gpusim.Machine.host_timeline m) "backoff");
    let m' = Gpusim.Machine.create ~functional:true (fleet 2) in
    (match Mekong.Multi_gpu.run_bounded ~resume:h ~machine:m' exe with
     | Mekong.Multi_gpu.Done _ -> ()
     | Mekong.Multi_gpu.Preempted _ -> Alcotest.fail "resume preempted");
    checkb "resumed output = CPU reference" true (out = cpu ())

(* ---------------- Scheduler: happy path ---------------- *)

let test_mix_all_complete_bit_identical () =
  let built = Serve.Mix.generate ~seed:7 ~tenants:3 ~jobs:12 () in
  let cfg = Serve.Scheduler.config (fleet 4) in
  let r =
    Serve.Scheduler.run cfg
      (List.map (fun b -> b.Serve.Mix.b_spec) built)
  in
  checki "all completed" 12 (count_outcome r is_completed);
  (* Bit-identity: each job's output array equals a fresh solo run of
     the identical instance on the full machine. *)
  List.iter
    (fun (b : Serve.Mix.built) ->
       let exe', out' = b.Serve.Mix.b_solo () in
       let m = Gpusim.Machine.create ~functional:true (fleet 4) in
       ignore (Mekong.Multi_gpu.run ~machine:m exe');
       checkb (b.Serve.Mix.b_spec.Serve.Job.name ^ " bit-identical") true
         (bits b.Serve.Mix.b_output = bits out'))
    built;
  checkb "every job has a segment or rejection" true
    (List.length r.Serve.Scheduler.r_segments >= 12)

let test_queue_overflow_typed_rejection () =
  (* One device, tiny queue, many simultaneous arrivals: overflow must
     be a typed rejection, never a silent drop. *)
  let built = Serve.Mix.generate ~seed:3 ~jobs:10 ~mean_gap:0.0 () in
  let specs =
    List.map
      (fun b -> { b.Serve.Mix.b_spec with Serve.Job.devices = 1 })
      built
  in
  let cfg = Serve.Scheduler.config ~max_queue:2 (fleet 1) in
  let r = Serve.Scheduler.run cfg specs in
  let rejected = count_outcome r is_rejected in
  checkb "some overflow rejections" true (rejected > 0);
  List.iter
    (fun (j : Serve.Job.report) ->
       match j.Serve.Job.r_outcome with
       | Serve.Job.Rejected { reason = Serve.Job.Queue_full n; _ } ->
         checki "reason carries the bound" 2 n
       | _ -> ())
    r.Serve.Scheduler.r_jobs;
  checki "submitted = completed + rejected" 10
    (count_outcome r is_completed + rejected)

let test_priority_orders_dispatch () =
  let prog_lo, _, _ = Apps.Workloads.functional_vecadd ~n:1024 in
  let prog_hi, _, _ = Apps.Workloads.functional_vecadd ~n:1024 in
  let blocker, _, _ = Apps.Workloads.functional_matmul ~n:32 in
  (* The blocker occupies the single device; lo and hi then sit in the
     queue together, and hi (submitted later, higher priority) must
     start first. *)
  let specs =
    [
      Serve.Job.make ~name:"blocker" ~tenant:"a" ~arrival:0.0 blocker;
      Serve.Job.make ~name:"lo" ~tenant:"a" ~priority:0 ~arrival:1e-6 prog_lo;
      Serve.Job.make ~name:"hi" ~tenant:"b" ~priority:5 ~arrival:2e-6 prog_hi;
    ]
  in
  let r = Serve.Scheduler.run (Serve.Scheduler.config (fleet 1)) specs in
  let started n =
    match outcome_of r n with
    | Serve.Job.Completed { started; _ } -> started
    | o -> Alcotest.failf "%s not completed: %s" n (outcome_name o)
  in
  checkb "high priority starts before low" true (started "hi" < started "lo")

(* ---------------- Deadlines ---------------- *)

let test_deadline_times_out () =
  let prog, _, _ = Apps.Workloads.functional_matmul ~n:32 in
  let quick, _, _ = Apps.Workloads.functional_vecadd ~n:256 in
  let specs =
    [
      Serve.Job.make ~name:"tight" ~tenant:"a" ~deadline:1e-6 prog;
      Serve.Job.make ~name:"ok" ~tenant:"a" ~arrival:1e-6 quick;
    ]
  in
  let r = Serve.Scheduler.run (Serve.Scheduler.config (fleet 2)) specs in
  checkb "tight deadline times out" true
    (match outcome_of r "tight" with Serve.Job.Timed_out _ -> true | _ -> false);
  checkb "other job unaffected" true (is_completed (outcome_of r "ok"))

let test_expired_in_queue_times_out () =
  let blocker, _, _ = Apps.Workloads.functional_matmul ~n:32 in
  let prog, _, _ = Apps.Workloads.functional_vecadd ~n:256 in
  let specs =
    [
      Serve.Job.make ~name:"blocker" ~tenant:"a" blocker;
      Serve.Job.make ~name:"starved" ~tenant:"b" ~arrival:1e-6 ~deadline:2e-6
        prog;
    ]
  in
  let r = Serve.Scheduler.run (Serve.Scheduler.config (fleet 1)) specs in
  match outcome_of r "starved" with
  | Serve.Job.Timed_out { started; _ } ->
    checkb "never dispatched" true (started = None)
  | o -> Alcotest.failf "starved: %s" (outcome_name o)

(* A short-deadline job must not miss its deadline sitting behind an
   earlier-arrived long job with no deadline: the queue orders
   deadline-carrying jobs first, by latest feasible start time
   (arrival + deadline - predicted runtime).  Before the EDF key this
   scenario timed out "urgent" — FIFO dispatched "cheap" first. *)
let test_edf_short_deadline_not_starved () =
  (* The long job must dominate the short one well past the fixed
     memcpy/launch latencies, so an iterated stencil vs. a small
     vecadd (~4x on the test box). *)
  let mk_long () =
    let p, _, _ = Apps.Workloads.functional_hotspot ~n:64 ~iterations:20 in
    p
  in
  let long = mk_long () in
  let short, _, _ = Apps.Workloads.functional_vecadd ~n:256 in
  let solo prog =
    let exe = compile_exn prog in
    let m = Gpusim.Machine.create ~functional:true (fleet 1) in
    (Mekong.Multi_gpu.run ~machine:m exe).Mekong.Multi_gpu.time
  in
  let t_long = solo long and t_short = solo short in
  (* The static estimate must at least order these two correctly —
     that ordering is all the EDF key consumes. *)
  checkb "predicted_runtime orders long above short" true
    (Serve.Scheduler.predicted_runtime (fleet 1) (Serve.Job.make ~name:"l" ~tenant:"a" long)
     > Serve.Scheduler.predicted_runtime (fleet 1)
         (Serve.Job.make ~name:"s" ~tenant:"a" short));
  (* Enough slack to run right after the blocker, not enough to also
     wait for the cheap long job.  Arrivals are small fractions of the
     blocker's runtime so both queue while it occupies the device. *)
  let deadline = t_long +. (4.0 *. t_short) in
  checkb "scenario sound: urgent misses if dispatched after cheap" true
    (t_long +. t_long +. t_short > deadline);
  let specs =
    [
      Serve.Job.make ~name:"blocker" ~tenant:"a" ~arrival:0.0 long;
      Serve.Job.make ~name:"cheap" ~tenant:"a" ~arrival:(t_long /. 100.0)
        (mk_long ());
      Serve.Job.make ~name:"urgent" ~tenant:"b" ~arrival:(t_long /. 50.0)
        ~deadline short;
    ]
  in
  let r = Serve.Scheduler.run (Serve.Scheduler.config (fleet 1)) specs in
  let started n =
    match outcome_of r n with
    | Serve.Job.Completed { started; _ } -> started
    | o -> Alcotest.failf "%s not completed: %s" n (outcome_name o)
  in
  checkb "urgent meets its deadline" true (is_completed (outcome_of r "urgent"));
  checkb "urgent dispatched before the earlier-arrived cheap job" true
    (started "urgent" < started "cheap");
  checkb "cheap still completes" true (is_completed (outcome_of r "cheap"))

(* ---------------- Circuit breaker ---------------- *)

let test_poison_quarantined () =
  let built = Serve.Mix.generate ~seed:5 ~jobs:6 ~poison:2 () in
  let cfg = Serve.Scheduler.config (fleet 2) in
  let r =
    Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)
  in
  List.iter
    (fun (b : Serve.Mix.built) ->
       let name = b.Serve.Mix.b_spec.Serve.Job.name in
       match (b.Serve.Mix.b_poison, outcome_of r name) with
       | true, Serve.Job.Quarantined { strikes; _ } ->
         checki (name ^ " struck out") 3 strikes
       | true, o ->
         Alcotest.failf "%s should be quarantined, got %s" name
           (outcome_name o)
       | false, Serve.Job.Completed _ -> ()
       | false, o ->
         Alcotest.failf "%s should complete, got %s" name
           (outcome_name o))
    built

(* ---------------- Graceful degradation ---------------- *)

let run_with_losses ~fleet_n ~losses ~jobs ~seed =
  let built = Serve.Mix.generate ~seed ~tenants:3 ~jobs () in
  let cfg = Serve.Scheduler.config ~losses (fleet fleet_n) in
  let r =
    Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)
  in
  (built, r)

let test_loss_degrades_gracefully () =
  (* Kill half the fleet almost immediately: in-flight jobs preempt and
     requeue; everything still completes bit-identically. *)
  let losses = [ (3, 5e-5); (2, 8e-5) ] in
  let built, r = run_with_losses ~fleet_n:4 ~losses ~jobs:14 ~seed:11 in
  checki "both losses applied" 2 r.Serve.Scheduler.r_devices_lost;
  checki "all jobs completed" 14 (count_outcome r is_completed);
  (* No segment may occupy a device after its death. *)
  List.iter
    (fun (s : Serve.Scheduler.segment) ->
       List.iter
         (fun d ->
            match List.assoc_opt d losses with
            | Some t ->
              checkb "no lease outlives the device" true
                (s.Serve.Scheduler.sg_start <= t)
            | None -> ())
         s.Serve.Scheduler.sg_devices)
    r.Serve.Scheduler.r_segments;
  List.iter
    (fun (b : Serve.Mix.built) ->
       let exe', out' = b.Serve.Mix.b_solo () in
       let m = Gpusim.Machine.create ~functional:true (fleet 4) in
       ignore (Mekong.Multi_gpu.run ~machine:m exe');
       checkb (b.Serve.Mix.b_spec.Serve.Job.name ^ " bit-identical") true
         (bits b.Serve.Mix.b_output = bits out'))
    built

let test_fleet_lost_rejects_rest () =
  let losses = [ (0, 1e-4); (1, 1e-4) ] in
  let built = Serve.Mix.generate ~seed:2 ~jobs:30 () in
  let cfg = Serve.Scheduler.config ~losses (fleet 2) in
  let r =
    Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)
  in
  checki "fleet gone" 2 r.Serve.Scheduler.r_devices_lost;
  (* Everything is terminal and anything not completed was rejected
     with the typed Fleet_lost reason (arrivals after the loss) or
     completed before it. *)
  let fleet_lost =
    count_outcome r (function
      | Serve.Job.Rejected { reason = Serve.Job.Fleet_lost; _ } -> true
      | _ -> false)
  in
  checkb "late arrivals rejected as Fleet_lost" true (fleet_lost > 0);
  checki "all terminal" 30
    (count_outcome r (fun _ -> true))

(* ---------------- Observability ---------------- *)

let test_metrics_published () =
  let _, r = run_with_losses ~fleet_n:2 ~losses:[ (1, 1e-4) ] ~jobs:8 ~seed:4 in
  let reg = Obs.Metrics.create () in
  Serve.Scheduler.publish_metrics ~into:reg r;
  let gauge name =
    match List.find_opt (fun (s : Obs.Metrics.sample) -> s.m_name = name) (Obs.Metrics.snapshot reg) with
    | Some s -> Obs.Metrics.value s
    | None -> Alcotest.failf "missing metric %s" name
  in
  checkb "submitted gauge" true (gauge "serve.jobs.submitted" = 8.0);
  checkb "devices_lost gauge" true (gauge "serve.devices_lost" = 1.0);
  checkb "arena_reused gauge" true
    (gauge "serve.arena_reused"
     = float_of_int r.Serve.Scheduler.r_arena_reused);
  checkb "arena_fresh gauge" true
    (gauge "serve.arena_fresh" = float_of_int r.Serve.Scheduler.r_arena_fresh);
  checkb "pp prints the arena line" true
    (let line =
       Printf.sprintf "device arrays: %d reused, %d fresh"
         r.Serve.Scheduler.r_arena_reused r.Serve.Scheduler.r_arena_fresh
     in
     let text = Format.asprintf "%a" Serve.Scheduler.pp r in
     Str.string_match (Str.regexp_string line) text
       (String.index text '\n' + 1));
  let tenant_rows =
    List.filter
      (fun (s : Obs.Metrics.sample) ->
         s.Obs.Metrics.m_name = "serve.tenant.submitted")
      (Obs.Metrics.snapshot reg)
  in
  checkb "per-tenant labelled gauges" true (List.length tenant_rows >= 1)

let test_trace_validates () =
  let _, r = run_with_losses ~fleet_n:3 ~losses:[ (2, 6e-5) ] ~jobs:9 ~seed:9 in
  match Obs.Chrome_trace.validate (Serve.Strace.to_json r) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "scheduler trace invalid: %s" e

let test_report_json_shape () =
  let _, r = run_with_losses ~fleet_n:2 ~losses:[] ~jobs:5 ~seed:13 in
  match Serve.Scheduler.report_to_json r with
  | Obs.Json.Obj fields ->
    List.iter
      (fun k ->
         checkb ("field " ^ k) true (List.mem_assoc k fields))
      [ "fleet"; "submitted"; "completed"; "tenants"; "jobs";
        "makespan_seconds"; "utilization" ]
  | _ -> Alcotest.fail "report_to_json: expected an object"

(* ---------------- Device-memory arena ---------------- *)

(* One lease-1 job fills and frees an array of [n] elements; the next
   copies a buffer it allocated but never wrote to its output.  The
   second draws the first's array from the run's arena, and must still
   read +0.0 everywhere, bit-equal to a run on a fresh machine. *)
let test_arena_zero_on_reuse () =
  let n = 1000 in
  let dirty =
    Array.init n (fun i ->
        match i mod 4 with 0 -> -0.0 | 1 -> nan | 2 -> neg_infinity | _ -> 7.25)
  in
  let filler =
    Host_ir.program ~name:"filler"
      [ Host_ir.Malloc ("x", n);
        Host_ir.Memcpy_h2d { dst = "x"; src = Host_ir.host_data dirty };
        Host_ir.Memcpy_d2h
          { dst = Host_ir.host_data (Array.make n 0.0); src = "x" };
        Host_ir.Free "x" ]
  in
  let reader out =
    Host_ir.program ~name:"reader"
      [ Host_ir.Malloc ("z", n);
        Host_ir.Memcpy_d2h { dst = Host_ir.host_data out; src = "z" } ]
  in
  let served = Array.make n nan in
  let specs =
    [ Serve.Job.make ~name:"filler" ~tenant:"a" filler;
      Serve.Job.make ~name:"reader" ~tenant:"b" ~arrival:1e-3 (reader served) ]
  in
  let r = Serve.Scheduler.run (Serve.Scheduler.config (fleet 1)) specs in
  checki "both completed" 2 (count_outcome r is_completed);
  checki "the reader drew the filler's array" 1
    r.Serve.Scheduler.r_arena_reused;
  checki "only the filler allocated" 1 r.Serve.Scheduler.r_arena_fresh;
  let solo = Array.make n nan in
  ignore
    (Mekong.Multi_gpu.run
       ~machine:(Gpusim.Machine.create ~functional:true (fleet 1))
       (compile_exn (reader solo)));
  checkb "every element is +0.0" true
    (Array.for_all (fun x -> x = 0L) (bits served));
  checkb "bit-equal to a fresh machine" true (bits served = bits solo)

(* A checkpoint restore frees every buffer and revives the ones the
   checkpoint holds; a [Malloc] replayed after it must not draw a
   revived buffer's array.  Here [z] is allocated after the first
   checkpoint (4 launches), and device 1 dies while data written since
   lives only there, so the engine replays from that checkpoint and
   allocates [z] again on an arena machine. *)
let restore_program n ~out =
  let saxpy =
    match
      Cuparse.parse_cu ~name:"restore"
        "__global__ void saxpy(int n, float alpha, float *x /* [n] */, float *y /* [n] */) {\n\
        \  auto gi = (threadIdx.x + (blockIdx.x * blockDim.x));\n\
        \  if ((gi < n)) { y[gi] = ((alpha * x[gi]) + 1.0f); }\n\
         }\n\
         int main() { return 0; }\n"
    with
    | [ k ], _ -> k
    | _ -> Alcotest.fail "expected one kernel"
  in
  let launch src dst =
    Host_ir.Launch
      {
        kernel = saxpy;
        grid = Dim3.make (n / 64);
        block = Dim3.make 64;
        args = [ Host_ir.HInt n; Host_ir.HFloat 0.5; Host_ir.HBuf src;
                 Host_ir.HBuf dst ];
      }
  in
  Host_ir.program ~name:"restore"
    ([ Host_ir.Malloc ("x", n);
       Host_ir.Memcpy_h2d
         { dst = "x"; src = Host_ir.host_data (Array.init n float_of_int) };
       Host_ir.Malloc ("y", n) ]
     @ List.concat (List.init 2 (fun _ -> [ launch "x" "y"; launch "y" "x" ]))
     @ [ launch "x" "y"; launch "y" "x"; Host_ir.Malloc ("z", n);
         launch "x" "z" ]
     @ List.map
         (fun (o, b) -> Host_ir.Memcpy_d2h { dst = Host_ir.host_data o; src = b })
         [ (out.(0), "x"); (out.(1), "y"); (out.(2), "z") ])

let test_arena_checkpoint_restore () =
  let n = 4096 in
  let expected = Array.init 3 (fun _ -> Array.make n nan) in
  ignore
    (Mekong.Multi_gpu.run
       ~machine:(Gpusim.Machine.create ~functional:true (fleet 2))
       (compile_exn (restore_program n ~out:expected)));
  let arena = Gpusim.Buffer.arena () in
  (* The second run draws every array the first gave back. *)
  List.iter
    (fun attempt ->
       let out = Array.init 3 (fun _ -> Array.make n nan) in
       let exe = compile_exn (restore_program n ~out) in
       let m = Gpusim.Machine.create ~functional:true ~arena (fleet 2) in
       Gpusim.Machine.inject_faults m
         (Gpusim.Faults.create
            { Gpusim.Faults.null_spec with scheduled_losses = [ (1, 4e-4) ] });
       (match
          Mekong.Multi_gpu.run_bounded ~checkpoint_every:4 ~machine:m exe
        with
        | Mekong.Multi_gpu.Done r ->
          checki (attempt ^ ": one replay") 1
            r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_replays
        | Mekong.Multi_gpu.Preempted _ ->
          Alcotest.fail "preempted without abort_at");
       Gpusim.Machine.release m;
       checkb (attempt ^ ": bit-identical to a fault-free run") true
         (Array.map bits out = Array.map bits expected))
    [ "fresh arena"; "reused arena" ];
  checkb "the second run reused arrays" true
    (Gpusim.Buffer.arena_reused arena > 0)

let span_count name =
  List.length
    (List.filter
       (fun (sp : Obs.Span.record) -> sp.Obs.Span.sp_name = name)
       (Obs.Span.records ()))

(* Poison jobs, a device loss that replays from an engine checkpoint
   and preempts jobs into handoffs, all drawing from one arena: every
   completed job is bit-identical to its solo run on a fresh machine,
   and a second run of the same mix counts the same arrays. *)
let test_arena_mix_bit_identical () =
  let mix () =
    Serve.Mix.generate ~seed:4 ~tenants:3 ~jobs:16 ~poison:2 ()
  in
  let cfg = Serve.Scheduler.config ~losses:[ (0, 6e-4) ] (fleet 4) in
  let run built =
    Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)
  in
  let built = mix () in
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  let r =
    Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) @@ fun () ->
    run built
  in
  let replays = span_count "replay" and resumes = span_count "resume" in
  Obs.Span.reset ();
  checkb "a checkpoint was restored" true (replays > 0);
  checkb "a handoff was installed" true (resumes > 0);
  checkb "arrays were reused" true (r.Serve.Scheduler.r_arena_reused > 0);
  List.iter
    (fun (b : Serve.Mix.built) ->
       let name = b.Serve.Mix.b_spec.Serve.Job.name in
       match outcome_of r name with
       | Serve.Job.Completed _ ->
         let exe', out' = b.Serve.Mix.b_solo () in
         let m = Gpusim.Machine.create ~functional:true (fleet 4) in
         ignore (Mekong.Multi_gpu.run ~machine:m exe');
         checkb (name ^ " bit-identical") true
           (bits b.Serve.Mix.b_output = bits out')
       | Serve.Job.Quarantined _ ->
         checkb (name ^ " is poison") true b.Serve.Mix.b_poison
       | o -> Alcotest.failf "%s: %s" name (outcome_name o))
    built;
  let again = run (mix ()) in
  checki "reused is deterministic" r.Serve.Scheduler.r_arena_reused
    again.Serve.Scheduler.r_arena_reused;
  checki "fresh is deterministic" r.Serve.Scheduler.r_arena_fresh
    again.Serve.Scheduler.r_arena_fresh

(* ---------------- The headline property ---------------- *)

(* Any job mix, any fleet, any loss schedule: every job that completes
   is bit-identical to a solo run of the identical instance on the
   full healthy machine. *)
let prop_serving_bit_identical =
  QCheck.Test.make ~name:"serve: completed jobs bit-identical to solo runs"
    ~count:12
    QCheck.(
      quad (int_range 2 4) (int_range 1 8) (int_bound 1000) (int_bound 2))
    (fun (fleet_n, jobs, seed, n_losses) ->
      let losses =
        List.init (min n_losses (fleet_n - 1)) (fun i ->
            (i, 2e-5 +. (float_of_int (seed mod 7) *. 1e-5)))
      in
      let built = Serve.Mix.generate ~seed ~tenants:2 ~jobs () in
      let cfg = Serve.Scheduler.config ~losses (fleet fleet_n) in
      let r =
        Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)
      in
      (* Terminality: every job has exactly one outcome. *)
      List.length r.Serve.Scheduler.r_jobs = jobs
      && List.for_all
           (fun (b : Serve.Mix.built) ->
              match outcome_of r b.Serve.Mix.b_spec.Serve.Job.name with
              | Serve.Job.Completed _ ->
                let exe', out' = b.Serve.Mix.b_solo () in
                let m =
                  Gpusim.Machine.create ~functional:true (fleet fleet_n)
                in
                ignore (Mekong.Multi_gpu.run ~machine:m exe');
                bits b.Serve.Mix.b_output = bits out'
              | _ -> true)
           built)

let () =
  Alcotest.run "serve"
    [
      ( "satellites",
        [
          Alcotest.test_case "dpool rejects non-positive domains" `Quick
            test_dpool_rejects_nonpositive;
          Alcotest.test_case "dpool rejects sizes over the domain limit" `Quick
            test_dpool_rejects_over_limit;
          Alcotest.test_case "All_devices_lost is typed" `Quick
            test_all_devices_lost_typed;
          Alcotest.test_case "Config.lease" `Quick test_config_lease;
        ] );
      ( "engine",
        [
          Alcotest.test_case "preempt/resume bit-identical" `Quick
            test_preempt_resume_bit_identical;
          Alcotest.test_case "run_bounded without abort never preempts" `Quick
            test_run_without_abort_never_preempts;
          Alcotest.test_case "resume heals transient transfer faults" `Quick
            test_resume_transient_faults;
          Alcotest.test_case "resume heals a leased device's loss" `Quick
            test_resume_device_lost;
          Alcotest.test_case "replay to the handoff heals a re-install fault"
            `Quick test_replay_reinstall_faults;
          Alcotest.test_case "preemption gather uses the statement backoff"
            `Quick test_preempt_gather_backoff;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "mix completes bit-identically" `Quick
            test_mix_all_complete_bit_identical;
          Alcotest.test_case "queue overflow is a typed rejection" `Quick
            test_queue_overflow_typed_rejection;
          Alcotest.test_case "priority orders dispatch" `Quick
            test_priority_orders_dispatch;
          Alcotest.test_case "running job times out at deadline" `Quick
            test_deadline_times_out;
          Alcotest.test_case "queued job times out at deadline" `Quick
            test_expired_in_queue_times_out;
          Alcotest.test_case "EDF: short deadline not starved by FIFO" `Quick
            test_edf_short_deadline_not_starved;
          Alcotest.test_case "poison jobs quarantined" `Quick
            test_poison_quarantined;
          Alcotest.test_case "device loss degrades gracefully" `Quick
            test_loss_degrades_gracefully;
          Alcotest.test_case "total fleet loss rejects the rest" `Quick
            test_fleet_lost_rejects_rest;
        ] );
      ( "arena",
        [
          Alcotest.test_case "zero on reuse" `Quick test_arena_zero_on_reuse;
          Alcotest.test_case "checkpoint restore after a later Malloc" `Quick
            test_arena_checkpoint_restore;
          Alcotest.test_case "mix with poison and a loss bit-identical" `Quick
            test_arena_mix_bit_identical;
        ] );
      ( "observability",
        [
          Alcotest.test_case "serve.* metrics published" `Quick
            test_metrics_published;
          Alcotest.test_case "scheduler trace validates" `Quick
            test_trace_validates;
          Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
        ] );
      ("property", [ qtest prop_serving_bit_identical ]);
    ]
