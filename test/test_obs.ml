(* Tests for the observability layer: ring buffer bounds, JSON
   round-trips on pathological strings, span nesting, the metrics
   registry, timeline idle/utilization accessors, byte-matrix
   reconciliation, Chrome-trace validity and a golden trace of a small
   fig6-style run. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let checkf msg a b = Alcotest.check (Alcotest.float 1e-12) msg a b

(* ---------------- Ring ---------------- *)

let test_ring_bounds () =
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
        ignore (Obs.Ring.create ~capacity:0));
  let r = Obs.Ring.create ~capacity:3 in
  checki "empty" 0 (Obs.Ring.length r);
  for i = 1 to 3 do
    Obs.Ring.push r i
  done;
  checki "full" 3 (Obs.Ring.length r);
  checki "no drops yet" 0 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "chronological" [ 1; 2; 3 ] (Obs.Ring.to_list r);
  for i = 4 to 10 do
    Obs.Ring.push r i
  done;
  checki "still full" 3 (Obs.Ring.length r);
  checki "drops counted" 7 (Obs.Ring.dropped r);
  Alcotest.(check (list int)) "newest survive" [ 8; 9; 10 ] (Obs.Ring.to_list r);
  Obs.Ring.clear r;
  checki "cleared" 0 (Obs.Ring.length r);
  checki "drop count cleared" 0 (Obs.Ring.dropped r);
  checki "capacity unchanged" 3 (Obs.Ring.capacity r)

(* ---------------- JSON ---------------- *)

(* Every control character U+0000-U+001F, plus the characters with
   short escapes and some multi-byte UTF-8. *)
let pathological =
  let b = Buffer.create 64 in
  for c = 0 to 0x1f do
    Buffer.add_char b (Char.chr c)
  done;
  Buffer.add_string b "\"\\/ plain text \xc3\xa9\xe2\x82\xac";
  Buffer.contents b

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.Str pathological);
        (pathological, Obs.Json.Bool true);
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5e-3);
        ("l", Obs.Json.List [ Obs.Json.Null; Obs.Json.Str "" ]);
      ]
  in
  let s = Obs.Json.to_string j in
  (match Obs.Json.parse s with
   | Ok j' -> checkb "round-trips" true (j = j')
   | Error e -> Alcotest.failf "parse failed: %s" e);
  (* the emitter must never produce raw control characters *)
  String.iter
    (fun c -> checkb "no raw control chars" false (Char.code c < 0x20 && c <> '\n'))
    s

let test_json_nonfinite () =
  checks "nan is null" "null\n" (Obs.Json.to_string (Obs.Json.Float nan));
  checks "inf is null" "null\n" (Obs.Json.to_string (Obs.Json.Float infinity))

let test_json_rejects () =
  let bad = [ "{"; "[1,]"; "\"\x01\""; "\"\\ud800\""; "1 2"; "tru" ] in
  List.iter
    (fun s ->
       match Obs.Json.parse s with
       | Ok _ -> Alcotest.failf "parser accepted %S" s
       | Error _ -> ())
    bad;
  (* escaped control characters and surrogate pairs are fine *)
  (match Obs.Json.parse "\"\\u0000\\ud83d\\ude00\"" with
   | Ok (Obs.Json.Str s) ->
     checks "surrogate pair decoded" "\x00\xf0\x9f\x98\x80" s
   | _ -> Alcotest.fail "escapes rejected")

(* ---------------- Spans ---------------- *)

let test_span_nesting () =
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Span.set_enabled false) @@ fun () ->
  let v =
    Obs.Span.with_span ~cat:"t" "outer" (fun () ->
        Obs.Span.with_span ~cat:"t" "inner" (fun () -> ());
        17)
  in
  checki "value through" 17 v;
  (try
     Obs.Span.with_span ~cat:"t" "raiser" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Obs.Span.records () with
  | [ inner; outer; raiser ] ->
    checks "inner first (completion order)" "inner" inner.Obs.Span.sp_name;
    checki "inner depth" 1 inner.Obs.Span.sp_depth;
    checki "inner parent" outer.Obs.Span.sp_id inner.Obs.Span.sp_parent;
    checki "outer is root" (-1) outer.Obs.Span.sp_parent;
    checkb "sim nan without sampler" true
      (Float.is_nan outer.Obs.Span.sp_sim_start);
    checks "raising spans recorded" "raiser" raiser.Obs.Span.sp_name;
    checki "stack unwound" 0 raiser.Obs.Span.sp_depth
  | l -> Alcotest.failf "expected 3 records, got %d" (List.length l)

let test_span_disabled () =
  Obs.Span.reset ();
  Obs.Span.with_span "off" (fun () -> ());
  checki "nothing recorded when disabled" 0 (List.length (Obs.Span.records ()))

(* ---------------- Metrics ---------------- *)

let test_metrics () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.incr r "c";
  Obs.Metrics.incr r ~by:4 "c";
  Obs.Metrics.set r "g" 2.5;
  Obs.Metrics.set r "g" 7.5;
  Obs.Metrics.observe r "h" 1.0;
  Obs.Metrics.observe r "h" 3.0;
  Obs.Metrics.incr r ~labels:[ ("dst", "1"); ("src", "0") ] ~by:8 "pair";
  let v name = Option.map Obs.Metrics.value (Obs.Metrics.find r name) in
  checkb "counter sums" true (v "c" = Some 5.0);
  checkb "gauge keeps last" true (v "g" = Some 7.5);
  checkb "histogram sums" true (v "h" = Some 4.0);
  (match Obs.Metrics.find r "h" with
   | Some s ->
     checki "histogram count" 2 s.Obs.Metrics.m_count;
     checkf "histogram min" 1.0 s.Obs.Metrics.m_min;
     checkf "histogram max" 3.0 s.Obs.Metrics.m_max
   | None -> Alcotest.fail "histogram lost");
  (* labels are canonicalized by sorting *)
  (match Obs.Metrics.find r ~labels:[ ("src", "0"); ("dst", "1") ] "pair" with
   | Some s -> checkf "labelled series found" 8.0 (Obs.Metrics.value s)
   | None -> Alcotest.fail "label order must not matter");
  checki "four series" 4 (List.length (Obs.Metrics.snapshot r))

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  let c = Obs.Metrics.counter a "c" in
  Obs.Metrics.add c 2.0;
  Obs.Metrics.add c 3.0;
  checkf "handle total" 5.0 (Obs.Metrics.total c);
  Obs.Metrics.incr b ~by:4 "c";
  Obs.Metrics.set a "g" 7.0;
  Obs.Metrics.set b "g" 3.0;
  Obs.Metrics.observe a "h" 1.0;
  Obs.Metrics.observe b "h" 5.0;
  ignore (Obs.Metrics.counter b "zero");
  let into = Obs.Metrics.create () in
  Obs.Metrics.merge ~into a;
  Obs.Metrics.merge ~into b;
  checkf "counters add" 9.0 (Obs.Metrics.get into "c");
  checkf "gauges keep the maximum" 7.0 (Obs.Metrics.get into "g");
  checkf "histograms add" 6.0 (Obs.Metrics.get into "h");
  (match Obs.Metrics.find into "h" with
   | Some s ->
     checki "histogram count" 2 s.Obs.Metrics.m_count;
     checkf "histogram min" 1.0 s.Obs.Metrics.m_min;
     checkf "histogram max" 5.0 s.Obs.Metrics.m_max
   | None -> Alcotest.fail "histogram lost");
  checkb "zero series registered" true (Obs.Metrics.find into "zero" <> None);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: c registered with a different kind")
    (fun () ->
       let g = Obs.Metrics.create () in
       Obs.Metrics.set g "c" 1.0;
       Obs.Metrics.merge ~into g)

(* ---------------- Timeline idle / utilization ---------------- *)

let test_timeline_idle_util () =
  let t = Gpusim.Timeline.create "t" in
  (* busy [0,1] and [5,5.5]: 1.5 busy seconds *)
  ignore (Gpusim.Timeline.schedule t ~after:0.0 ~duration:1.0 ~category:"a");
  ignore (Gpusim.Timeline.schedule t ~after:5.0 ~duration:0.5 ~category:"b");
  checkf "idle in 10s span" 8.5 (Gpusim.Timeline.idle_in t ~span:10.0);
  checkf "utilization of 10s span" 0.15 (Gpusim.Timeline.utilization t ~span:10.0);
  (* a span shorter than the busy time clamps *)
  checkf "idle clamped at 0" 0.0 (Gpusim.Timeline.idle_in t ~span:1.0);
  checkf "utilization clamped at 1" 1.0 (Gpusim.Timeline.utilization t ~span:1.0);
  checkf "empty span" 0.0 (Gpusim.Timeline.utilization t ~span:0.0)

(* ---------------- Machine byte matrix ---------------- *)

let quiet_cfg n =
  {
    (Gpusim.Config.k80_box ~n_devices:n ()) with
    Gpusim.Config.transfer_latency = 0.0;
    launch_latency = 0.0;
    sync_device_seconds = 0.0;
    pcie_bandwidth = 1e9;
    p2p_bandwidth = 1e9;
    fabric_bandwidth = 2e9;
    autoboost_derate = 0.0;
    elem_bytes = 4;
  }

let test_byte_matrix_reconciles () =
  let open Gpusim in
  let m = Machine.create (quiet_cfg 2) in
  let b0 = Machine.alloc m ~device:0 ~len:1000 in
  let b1 = Machine.alloc m ~device:1 ~len:1000 in
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b0 ~dst_off:0 ~len:1000;
  Machine.d2h m ~src:b0 ~src_off:0 ~dst:[||] ~dst_off:0 ~len:250;
  Machine.p2p m ~src:b0 ~src_off:0 ~dst:b1 ~dst_off:0 ~len:500;
  Machine.p2p_multi m ~src:b1 ~dst:b0 ~segments:[ (0, 0, 100); (200, 200, 50) ];
  Machine.synchronize m;
  let stats = Machine.stats m in
  let h2d, d2h, p2p =
    List.fold_left
      (fun (h, d, p) ((src, dst), bytes) ->
         if src < 0 then (h + bytes, d, p)
         else if dst < 0 then (h, d + bytes, p)
         else (h, d, p + bytes))
      (0, 0, 0) (Machine.byte_matrix m)
  in
  checki "h2d reconciles" stats.Machine.h2d_bytes h2d;
  checki "d2h reconciles" stats.Machine.d2h_bytes d2h;
  checki "p2p reconciles" stats.Machine.p2p_bytes p2p;
  checki "pair 0->1" (500 * 4)
    (List.assoc (0, 1) (Machine.byte_matrix m));
  checki "pair 1->0" (150 * 4)
    (List.assoc (1, 0) (Machine.byte_matrix m))

(* ---------------- A small fig6-style run ---------------- *)

(* Compile and run vecadd on a 2-GPU performance machine with tracing
   on — everything simulated, hence deterministic. *)
let fig6_machine () =
  let prog =
    Apps.Workloads.program ~iterations:2 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let a =
    match Mekong.Toolchain.compile prog with
    | Ok a -> a
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let m =
    Gpusim.Machine.create ~functional:false
      (Gpusim.Config.k80_box ~n_devices:2 ())
  in
  Gpusim.Machine.enable_trace m;
  let r = Mekong.Multi_gpu.run ~machine:m a.Mekong.Toolchain.exe in
  (m, r)

let test_trace_valid_and_lanes () =
  let m, _ = fig6_machine () in
  let s = Gpusim.Trace_export.to_string m in
  (match Obs.Chrome_trace.validate_string s with
   | Ok () -> ()
   | Error e -> Alcotest.failf "invalid trace: %s" e);
  let j = Result.get_ok (Obs.Json.parse s) in
  let lanes = Obs.Chrome_trace.lanes j in
  (* one lane per engine: each (pid, tid) appears once in the sorted
     list, and every timing lane maps to a known engine *)
  let expected (pid, tid) =
    (pid = 0 && tid <= 2) (* host timeline / spans / faults *)
    || (pid = 1 && tid = 0) (* fabric *)
    || (pid >= 2 && pid <= 3 && tid <= 2)
    (* 2 devices x (compute, copy_in, copy_out) *)
  in
  List.iter
    (fun lane -> checkb "lane maps to an engine" true (expected lane))
    lanes;
  let rec no_dups = function
    | a :: (b :: _ as rest) -> a <> b && no_dups rest
    | _ -> true
  in
  checkb "lanes are distinct" true (no_dups lanes);
  checkb "both compute lanes present" true
    (List.mem (2, 0) lanes && List.mem (3, 0) lanes)

let compile_exe prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> failwith (Mekong.Toolchain.error_message e)

let test_profile_reconciles () =
  let m, r = fig6_machine () in
  let report = Mekong.Profile.collect ~result:r m in
  let stats = Gpusim.Machine.stats m in
  let h2d, d2h, p2p = Obs.Report.matrix_totals report in
  checki "report h2d = stats" stats.Gpusim.Machine.h2d_bytes h2d;
  checki "report d2h = stats" stats.Gpusim.Machine.d2h_bytes d2h;
  checki "report p2p = stats" stats.Gpusim.Machine.p2p_bytes p2p;
  checki "one row per device" 2 (List.length report.Obs.Report.rp_devices);
  List.iter
    (fun (row : Obs.Report.device_row) ->
       checkb "utilization in [0,1]" true
         (row.Obs.Report.dr_util >= 0.0 && row.Obs.Report.dr_util <= 1.0);
       checkf "idle + compute consistent" report.Obs.Report.rp_elapsed
         (row.Obs.Report.dr_idle +. row.Obs.Report.dr_compute);
       (* util is the compute engine's busy share, like idle *)
       let span = report.Obs.Report.rp_elapsed in
       checkb "idle + util * span = span" true
         (Float.abs (row.Obs.Report.dr_idle +. (row.Obs.Report.dr_util *. span) -. span)
          <= 1e-9 *. span))
    report.Obs.Report.rp_devices;
  (* the report must itself serialize to valid JSON *)
  match Obs.Json.parse (Obs.Json.to_string (Obs.Report.to_json report)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON invalid: %s" e

let test_trace_ring_bounded () =
  let prog =
    Apps.Workloads.program ~iterations:2 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let a =
    match Mekong.Toolchain.compile prog with
    | Ok a -> a
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let traced capacity =
    let m =
      Gpusim.Machine.create ~functional:false
        (Gpusim.Config.k80_box ~n_devices:2 ())
    in
    Gpusim.Machine.enable_trace ?capacity m;
    ignore (Mekong.Multi_gpu.run ~machine:m a.Mekong.Toolchain.exe);
    m
  in
  let full = traced None and m = traced (Some 4) in
  checki "unbounded run drops nothing" 0 (Gpusim.Machine.trace_dropped full);
  let all = Gpusim.Machine.trace full in
  let tr = Gpusim.Machine.trace m in
  checki "trace bounded" 4 (List.length tr);
  checki "drops counted" (List.length all - 4) (Gpusim.Machine.trace_dropped m);
  (* The ring keeps exactly the newest events of the same run. *)
  checkb "newest four survive" true
    (tr = List.filteri (fun i _ -> i >= List.length all - 4) all)

(* Under kernel and transfer faults, each engine's trace lane holds
   every op it ran: faulted kernels and copies consumed their time, so
   they appear like any other.  A lane's durations then add up to its
   engine's busy seconds. *)
let test_trace_lanes_match_busy () =
  let m =
    Gpusim.Machine.create ~functional:false
      (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  Gpusim.Machine.enable_trace m;
  let faults =
    Gpusim.Faults.create
      { Gpusim.Faults.null_spec with seed = 7; kernel_fault_rate = 0.2;
        transfer_fault_rate = 0.2 }
  in
  Gpusim.Machine.inject_faults m faults;
  ignore
    (Mekong.Multi_gpu.run ~machine:m
       (compile_exe
          (Apps.Workloads.program ~iterations:4 Apps.Workloads.Hotspot_b
             Apps.Workloads.Small)));
  let c = Gpusim.Faults.counters faults in
  checkb "kernels faulted" true (c.Gpusim.Faults.kernel_faults > 0);
  checkb "transfers faulted" true (c.Gpusim.Faults.transfer_faults > 0);
  checki "nothing dropped" 0 (Gpusim.Machine.trace_dropped m);
  let lane_us = Hashtbl.create 16 in
  List.iter
    (function
      | Obs.Chrome_trace.Complete e ->
        let k = (e.pid, e.tid) in
        Hashtbl.replace lane_us k
          (e.dur +. Option.value ~default:0.0 (Hashtbl.find_opt lane_us k))
      | _ -> ())
    (Gpusim.Trace_export.events m);
  let check name (pid, tid) tl =
    let traced =
      Option.value ~default:0.0 (Hashtbl.find_opt lane_us (pid, tid)) *. 1e-6
    in
    let busy = Gpusim.Timeline.total_busy tl in
    if Float.abs (traced -. busy) > 1e-9 *. busy then
      Alcotest.failf "%s: lane sums to %.12g s, engine busy %.12g s" name
        traced busy
  in
  check "host" (0, 0) (Gpusim.Machine.host_timeline m);
  List.iteri
    (fun tid (name, tl) -> check name (1, tid) tl)
    (Gpusim.Machine.link_timelines m);
  for d = 0 to Gpusim.Machine.n_devices m - 1 do
    let compute, copy_in, copy_out = Gpusim.Machine.device_timelines m d in
    let pid = Gpusim.Trace_export.device_pid d in
    check (Printf.sprintf "dev%d.compute" d) (pid, 0) compute;
    check (Printf.sprintf "dev%d.copy_in" d) (pid, 1) copy_in;
    check (Printf.sprintf "dev%d.copy_out" d) (pid, 2) copy_out
  done

(* ---------------- Engine registry ---------------- *)

(* Five runs that between them move every engine series: a clean
   stencil, the same with device 1 lost halfway, a reducible kernel, a
   capped (chunked) matmul and an autotuned (halo-tiled) stencil. *)
let engine_runs =
  lazy
    (let run ?mem_capacity ?loss ?(autotune = false) prog =
       let m =
         Gpusim.Machine.create ~functional:true
           (Gpusim.Config.k80_box ~n_devices:4 ?mem_capacity ())
       in
       Option.iter
         (fun at ->
            Gpusim.Machine.inject_faults m
              (Gpusim.Faults.create
                 { Gpusim.Faults.null_spec with scheduled_losses = [ (1, at) ] }))
         loss;
       Mekong.Multi_gpu.run ~autotune ~machine:m (compile_exe prog)
     in
     let hotspot () =
       let p, _, _ = Apps.Workloads.functional_hotspot ~n:128 ~iterations:4 in
       p
     in
     let clean = run (hotspot ()) in
     let lost = run ~loss:(clean.Mekong.Multi_gpu.time /. 2.0) (hotspot ()) in
     checki "device lost" 1
       lost.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost;
     let histogram, _, _ = Apps.Workloads.functional_histogram ~n:4096 ~nbins:97 in
     let matmul, _, _ = Apps.Workloads.functional_matmul ~n:64 in
     [
       clean;
       lost;
       run histogram;
       run ~mem_capacity:16384 matmul;
       run ~autotune:true (hotspot ());
     ])

let samples (r : Mekong.Multi_gpu.result) =
  Obs.Metrics.snapshot r.Mekong.Multi_gpu.metrics

let test_engine_registry_merge () =
  let runs = Lazy.force engine_runs in
  let into = Obs.Metrics.create () in
  List.iter (fun r -> Obs.Metrics.merge ~into r.Mekong.Multi_gpu.metrics) runs;
  let names l = List.map (fun s -> s.Obs.Metrics.m_name) l in
  List.iter
    (fun r ->
       checkb "every run registers the same series" true
         (names (samples r) = names (Obs.Metrics.snapshot into)))
    runs;
  List.iter
    (fun (s : Obs.Metrics.sample) ->
       let per_run =
         List.map (fun r -> Obs.Metrics.get r.Mekong.Multi_gpu.metrics s.Obs.Metrics.m_name) runs
       in
       let expected =
         match s.Obs.Metrics.m_kind with
         | Obs.Metrics.Gauge -> List.fold_left Float.max neg_infinity per_run
         | Obs.Metrics.Counter | Obs.Metrics.Histogram ->
           List.fold_left ( +. ) 0.0 per_run
       in
       checkf s.Obs.Metrics.m_name expected (Obs.Metrics.value s))
    (Obs.Metrics.snapshot into)

let test_profile_reports_registry () =
  List.iter
    (fun (r : Mekong.Multi_gpu.result) ->
       let report =
         Mekong.Profile.collect ~spans:false ~result:r r.Mekong.Multi_gpu.machine
       in
       List.iter
         (fun (s : Obs.Metrics.sample) ->
            match List.assoc_opt s.Obs.Metrics.m_name report.Obs.Report.rp_counters with
            | Some v -> checkf s.Obs.Metrics.m_name (Obs.Metrics.value s) v
            | None -> Alcotest.failf "%s missing from the profile" s.Obs.Metrics.m_name)
         (samples r))
    (Lazy.force engine_runs)

(* Each report line's numbers, in print order, with the series they
   must equal (the calibration sums print in seconds). *)
let report_fields =
  Mekong.Multi_gpu.
    [
      ( Plan_cache,
        [
          "cache.plan_hits"; "cache.plan_misses"; "cache.graph_hits";
          "cache.graph_misses"; "cache.graph_folded"; "cache.graph_replayed_ops";
        ] );
      ( Executor,
        [
          "exec.compiles"; "exec.cache_hits"; "exec.seq_launches";
          "exec.par_launches"; "exec.max_domains"; "exec.interpreted";
          "kcompile.scalar_blocks"; "kcompile.guards_folded"; "kcompile.guards_scanned";
          "kcompile.affine_accesses";
        ] );
      ( Gate,
        [
          "engine.gate.safe"; "engine.gate.reducible"; "engine.gate.racy";
          "engine.gate.unknown"; "engine.gate.merges"; "engine.gate.merged_elems";
        ] );
      (Faults, [ "faults.observed"; "faults.retries"; "faults.replays"; "faults.devices_lost" ]);
      ( Memory,
        [
          "engine.chunked_launches"; "engine.chunks"; "engine.oom_refinements";
          "engine.evict_passes";
        ] );
      ( Autotune,
        [
          "autotune.launches"; "autotune.predicted_us"; "autotune.actual_us";
          "autotune.halo_blocks"; "autotune.halo_steps";
        ] );
    ]

let numbers line =
  let re = Str.regexp "[0-9]+\\(\\.[0-9]+\\)?" in
  let rec go pos acc =
    match Str.search_forward re line pos with
    | exception Not_found -> List.rev acc
    | _ -> go (Str.match_end ()) (float_of_string (Str.matched_string line) :: acc)
  in
  go 0 []

let test_report_prints_registry () =
  List.iter
    (fun (r : Mekong.Multi_gpu.result) ->
       List.iter
         (fun (line, names) ->
            let text =
              Format.asprintf "%a"
                (Mekong.Multi_gpu.pp_report [ line ])
                r.Mekong.Multi_gpu.metrics
            in
            let printed = numbers text in
            checki ("field count of " ^ text) (List.length names) (List.length printed);
            List.iter2
              (fun name shown ->
                 let v = Obs.Metrics.get r.Mekong.Multi_gpu.metrics name in
                 if String.ends_with ~suffix:"_us" name then
                   checkb name true (Float.abs ((v *. 1e-6) -. shown) <= 5e-7)
                 else checkf name v shown)
              names printed)
         report_fields)
    (Lazy.force engine_runs)

(* ---------------- Golden trace ---------------- *)

(* The exact exporter output for the deterministic fig6-style run
   above (spans excluded: they carry wall-clock times).  Regenerate
   after an intentional schema change with:

     OBS_GOLDEN_WRITE=$PWD/test/golden_trace.json \
       dune exec test/test_obs.exe -- test golden *)
let test_golden_trace () =
  let m, _ = fig6_machine () in
  let s = Gpusim.Trace_export.to_string m in
  match Sys.getenv_opt "OBS_GOLDEN_WRITE" with
  | Some path ->
    let oc = open_out path in
    output_string oc s;
    close_out oc
  | None ->
    let ic = open_in_bin "golden_trace.json" in
    let golden =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    checks "matches golden trace" golden s

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [ Alcotest.test_case "bounds and drops" `Quick test_ring_bounds ] );
      ( "json",
        [
          Alcotest.test_case "pathological round-trip" `Quick
            test_json_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "parser rejects garbage" `Quick test_json_rejects;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "disabled is silent" `Quick test_span_disabled;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics;
          Alcotest.test_case "merge" `Quick test_metrics_merge;
        ] );
      ( "timeline",
        [ Alcotest.test_case "idle and utilization" `Quick test_timeline_idle_util ] );
      ( "machine",
        [
          Alcotest.test_case "byte matrix reconciles" `Quick
            test_byte_matrix_reconciles;
          Alcotest.test_case "trace ring bounded" `Quick test_trace_ring_bounded;
          Alcotest.test_case "trace lanes match busy time under faults" `Quick
            test_trace_lanes_match_busy;
        ] );
      ( "trace",
        [
          Alcotest.test_case "valid with one lane per engine" `Quick
            test_trace_valid_and_lanes;
          Alcotest.test_case "golden" `Quick test_golden_trace;
        ] );
      ( "profile",
        [
          Alcotest.test_case "reconciles with stats" `Quick
            test_profile_reconciles;
        ] );
      ( "engine registry",
        [
          Alcotest.test_case "merge is the per-name sum" `Quick
            test_engine_registry_merge;
          Alcotest.test_case "profile reports the registry" `Quick
            test_profile_reports_registry;
          Alcotest.test_case "report prints the registry" `Quick
            test_report_prints_registry;
        ] );
    ]
