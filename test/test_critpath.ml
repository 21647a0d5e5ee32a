(* Tests for the causal critical-path analyzer: hand-computed DAGs
   (serial chain, fork-join, contended link), engine-level
   reconciliation (attribution tiles the makespan exactly on every
   example app, including the halo-tiled stencil), what-if validation
   against actual re-runs with a modified Config, and QCheck
   properties over randomly generated (but machine-consistent)
   schedules. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg a b = Alcotest.check (Alcotest.float 1e-9) msg a b

(* Per-category attribution must tile [0, makespan]: adjacency and the
   telescoping sum are exact by construction, so the tolerance only
   absorbs the float additions of the final fold. *)
let check_reconciles msg (an : Obs.Causal.analysis) =
  let total =
    List.fold_left (fun acc (_, t) -> acc +. t) 0.0 an.Obs.Causal.an_by_category
  in
  let tol = 1e-9 *. Float.max 1.0 an.Obs.Causal.an_makespan in
  if Float.abs (total -. an.Obs.Causal.an_makespan) > tol then
    Alcotest.failf "%s: categories sum to %.12g but makespan is %.12g" msg
      total an.Obs.Causal.an_makespan;
  (* Segments are adjacent, earliest first, starting at 0 and ending at
     the makespan. *)
  let rec tiles at = function
    | [] -> Float.abs (at -. an.Obs.Causal.an_makespan) <= tol
    | s :: rest ->
      Float.abs (s.Obs.Causal.sg_start -. at) <= tol
      && s.Obs.Causal.sg_finish >= s.Obs.Causal.sg_start
      && tiles s.Obs.Causal.sg_finish rest
  in
  checkb (msg ^ ": segments tile [0, makespan]") true
    (tiles 0.0 an.Obs.Causal.an_segments);
  checkb (msg ^ ": critical path <= makespan") true
    (Obs.Causal.critical_path_length an
     <= an.Obs.Causal.an_makespan +. tol)

let cat an c =
  Option.value ~default:0.0 (List.assoc_opt c an.Obs.Causal.an_by_category)

(* ---------------- Hand-computed DAGs ---------------- *)

(* Three ops back to back on one resource: the path is the whole chain
   and attribution is pure compute. *)
let test_serial_chain () =
  let b = Obs.Causal.builder () in
  let t = ref 0.0 in
  for i = 0 to 2 do
    let d = float_of_int (i + 1) in
    ignore
      (Obs.Causal.add b ~label:"op" ~category:"compute" ~phase:""
         ~resources:[ "r" ] ~ready:!t ~start:!t ~finish:(!t +. d) ~fixed:0.0
         ~legs:[] ~deps:[] ~wait:"");
    t := !t +. d
  done;
  let an = Obs.Causal.analyze (Obs.Causal.dag b) in
  checkf "makespan" 6.0 an.Obs.Causal.an_makespan;
  check_reconciles "serial chain" an;
  checkf "all compute" 6.0 (cat an "compute");
  (* Single serialized resource: critical path = makespan exactly. *)
  checkf "critpath = makespan" an.Obs.Causal.an_makespan
    (Obs.Causal.critical_path_length an);
  checkf "identity replay is exact" 6.0
    (Obs.Causal.identity_replay (Obs.Causal.dag b))

(* Fork-join: a 1s producer, two parallel consumers (3s and 5s) on
   separate resources, a join depending on both.  The path goes
   through the slow branch; the fast branch never appears. *)
let test_fork_join () =
  let b = Obs.Causal.builder () in
  let add ~label ~res ~ready ~start ~finish ~deps =
    Obs.Causal.add b ~label ~category:label ~phase:"" ~resources:[ res ]
      ~ready ~start ~finish ~fixed:0.0 ~legs:[] ~deps ~wait:""
  in
  let p = add ~label:"produce" ~res:"a" ~ready:0.0 ~start:0.0 ~finish:1.0 ~deps:[] in
  let fast = add ~label:"fast" ~res:"b" ~ready:1.0 ~start:1.0 ~finish:4.0 ~deps:[ p ] in
  let slow = add ~label:"slow" ~res:"c" ~ready:1.0 ~start:1.0 ~finish:6.0 ~deps:[ p ] in
  ignore
    (add ~label:"join" ~res:"a" ~ready:6.0 ~start:6.0 ~finish:7.0
       ~deps:[ fast; slow ]);
  let an = Obs.Causal.analyze (Obs.Causal.dag b) in
  checkf "makespan" 7.0 an.Obs.Causal.an_makespan;
  check_reconciles "fork-join" an;
  checkf "slow branch on the path" 5.0 (cat an "slow");
  checkf "fast branch absent" 0.0 (cat an "fast");
  checkf "produce + slow + join" 7.0
    (cat an "produce" +. cat an "slow" +. cat an "join");
  (* What-if: removing the slow branch entirely re-routes the path
     through the fast one -> makespan 5 (produce 1, fast 3, join 1). *)
  checkf "what-if slow = 0" 5.0
    (Obs.Causal.what_if (Obs.Causal.dag b) ~category:"slow" ~factor:0.0)

(* Two transfers contending for one link: the second is ready at 0 but
   admitted at 2; the stall shows up as link_wait on the path. *)
let test_contended_link () =
  let b = Obs.Causal.builder () in
  ignore
    (Obs.Causal.add b ~label:"h2d" ~category:"h2d" ~phase:""
       ~resources:[ "dev0.copy_in" ] ~ready:0.0 ~start:0.0 ~finish:2.0
       ~fixed:0.0 ~legs:[ ("bus", 2.0) ] ~deps:[] ~wait:"link_wait");
  ignore
    (Obs.Causal.add b ~label:"h2d" ~category:"h2d" ~phase:""
       ~resources:[ "dev1.copy_in" ] ~ready:0.0 ~start:2.0 ~finish:4.0
       ~fixed:0.0 ~legs:[ ("bus", 2.0) ] ~deps:[] ~wait:"link_wait");
  let an = Obs.Causal.analyze (Obs.Causal.dag b) in
  checkf "makespan" 4.0 an.Obs.Causal.an_makespan;
  check_reconciles "contended link" an;
  checkf "wire time attributed" 2.0 (cat an "h2d");
  checkf "contention attributed" 2.0 (cat an "link_wait");
  (* Infinite link: both transfers start at 0, makespan 2. *)
  checkf "what-if link = 0" 2.0
    (Obs.Causal.what_if (Obs.Causal.dag b) ~category:"link" ~factor:0.0)

(* ---------------- Engine-level reconciliation ---------------- *)

let compile prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> failwith (Mekong.Toolchain.error_message e)

let run_causal ?(gpus = 4) ?(cfg = fun c -> c) ?autotune prog =
  let config = cfg (Gpusim.Config.k80_box ~n_devices:gpus ()) in
  let m = Gpusim.Machine.create ~functional:false config in
  Gpusim.Machine.enable_causal m;
  let r = Mekong.Multi_gpu.run ?autotune ~machine:m (compile prog) in
  let dag = Option.get (Gpusim.Machine.causal_dag m) in
  (m, r, dag)

(* Attribution reconciles on every example app (acceptance criterion):
   per-category critical-path times sum to the simulated makespan. *)
let test_apps_reconcile () =
  List.iter
    (fun bench ->
       let prog =
         Apps.Workloads.program ~iterations:3 bench Apps.Workloads.Small
       in
       let m, r, dag = run_causal prog in
       let an = Obs.Causal.analyze dag in
       let name = Apps.Workloads.benchmark_name bench in
       check_reconciles name an;
       checki (name ^ ": nothing dropped") 0 an.Obs.Causal.an_dropped;
       (* The DAG's makespan is the run's simulated time: the final
          barrier's host op finishes last. *)
       checkf (name ^ ": makespan = engine time") r.Mekong.Multi_gpu.time
         an.Obs.Causal.an_makespan;
       ignore m)
    Apps.Workloads.benchmarks

(* Halo-tiled stencil (autotuned deep hotspot): the temporal-blocking
   schedule must reconcile too, and its path must contain compute. *)
let test_halo_tiled_reconciles () =
  let prog =
    Apps.Workloads.program ~iterations:12 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let _, _, dag = run_causal ~autotune:true prog in
  let an = Obs.Causal.analyze dag in
  check_reconciles "halo-tiled hotspot" an;
  checkb "compute on the path" true (cat an "compute" > 0.0);
  checkb "replay fidelity under 2%" true
    (an.Obs.Causal.an_replay_drift < 0.02)

(* ---------------- What-if vs. actual re-run ---------------- *)

(* Acceptance criterion: the rescaled-bandwidth what-if prediction
   matches an actual re-run with the modified Config within 10% on
   hotspot and matmul.  Doubling every fabric bandwidth halves wire
   time, i.e. what-if factor 0.5 on "xfer". *)
let double_bandwidth (c : Gpusim.Config.t) =
  {
    c with
    Gpusim.Config.pcie_bandwidth = c.Gpusim.Config.pcie_bandwidth *. 2.0;
    p2p_bandwidth = c.Gpusim.Config.p2p_bandwidth *. 2.0;
    fabric_bandwidth = c.Gpusim.Config.fabric_bandwidth *. 2.0;
  }

let test_what_if_validates () =
  List.iter
    (fun bench ->
       let prog =
         Apps.Workloads.program ~iterations:3 bench Apps.Workloads.Small
       in
       let _, _, dag = run_causal prog in
       let predicted = Obs.Causal.what_if dag ~category:"xfer" ~factor:0.5 in
       let _, r2, _ = run_causal ~cfg:double_bandwidth prog in
       let actual = r2.Mekong.Multi_gpu.time in
       let err = Float.abs (predicted -. actual) /. actual in
       if err > 0.10 then
         Alcotest.failf "%s: what-if predicted %.6gs, actual %.6gs (%.1f%%)"
           (Apps.Workloads.benchmark_name bench)
           predicted actual (100.0 *. err))
    [ Apps.Workloads.Hotspot_b; Apps.Workloads.Matmul_b ]

(* ---------------- Bounded builder ---------------- *)

let test_builder_bounds () =
  let b = Obs.Causal.builder ~capacity:2 () in
  let add () =
    Obs.Causal.add b ~label:"op" ~category:"compute" ~phase:""
      ~resources:[ "r" ] ~ready:0.0 ~start:0.0 ~finish:1.0 ~fixed:0.0
      ~legs:[] ~deps:[] ~wait:""
  in
  checki "first id" 0 (add ());
  checki "second id" 1 (add ());
  checki "overflow returns -1" (-1) (add ());
  checki "drop counted" 1 (Obs.Causal.builder_dropped b);
  let an = Obs.Causal.analyze (Obs.Causal.dag b) in
  checki "dag flags truncation" 1 an.Obs.Causal.an_dropped

(* ---------------- JSON round-trip ---------------- *)

let test_json_roundtrip () =
  let prog =
    Apps.Workloads.program ~iterations:2 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let _, _, dag = run_causal ~gpus:2 prog in
  let j = Obs.Causal.to_json dag in
  let dag' =
    match Obs.Causal.of_json (Result.get_ok (Obs.Json.parse (Obs.Json.to_string j))) with
    | Ok d -> d
    | Error e -> Alcotest.failf "round-trip failed: %s" e
  in
  let an = Obs.Causal.analyze dag and an' = Obs.Causal.analyze dag' in
  checkf "makespan survives" an.Obs.Causal.an_makespan
    an'.Obs.Causal.an_makespan;
  checki "nodes survive" an.Obs.Causal.an_nodes an'.Obs.Causal.an_nodes;
  Alcotest.(check (list (pair string (float 1e-12))))
    "attribution survives" an.Obs.Causal.an_by_category
    an'.Obs.Causal.an_by_category

(* ---------------- Trace validator: flows and the critpath lane ------ *)

let validate events = Obs.Chrome_trace.validate (Obs.Chrome_trace.to_json events)

let check_rejects msg needle events =
  match validate events with
  | Ok () -> Alcotest.failf "%s: expected validation to fail" msg
  | Error e ->
    if
      not
        (Str.string_match (Str.regexp (".*" ^ Str.quote needle)) e 0)
    then Alcotest.failf "%s: error %S does not mention %S" msg e needle

let flow ph ~ts ~id =
  let open Obs.Chrome_trace in
  if ph = `S then Flow_start { name = "f"; cat = "c"; pid = 0; tid = 0; ts; id }
  else Flow_finish { name = "f"; cat = "c"; pid = 0; tid = 0; ts; id }

let test_flow_validation () =
  checkb "paired flow is valid" true
    (Result.is_ok (validate [ flow `S ~ts:1.0 ~id:7; flow `F ~ts:2.0 ~id:7 ]));
  check_rejects "backwards edge" "backwards"
    [ flow `S ~ts:5.0 ~id:1; flow `F ~ts:3.0 ~id:1 ];
  check_rejects "dangling flow" "never finishes" [ flow `S ~ts:1.0 ~id:2 ];
  check_rejects "finish before start" "before it starts"
    [ flow `F ~ts:1.0 ~id:3 ];
  check_rejects "double start" "started twice"
    [ flow `S ~ts:1.0 ~id:4; flow `S ~ts:2.0 ~id:4 ];
  check_rejects "double finish" "finished twice"
    [ flow `S ~ts:1.0 ~id:5; flow `F ~ts:2.0 ~id:5; flow `F ~ts:3.0 ~id:5 ]

let seg ~ts ~dur =
  Obs.Chrome_trace.Complete
    { name = "s"; cat = "c"; pid = 0; tid = 9; ts; dur; args = [] }

let test_critpath_lane_validation () =
  let lane = Obs.Chrome_trace.Thread_name { pid = 0; tid = 9; name = "critical path" } in
  checkb "contiguous critpath lane is valid" true
    (Result.is_ok (validate [ lane; seg ~ts:0.0 ~dur:2.0; seg ~ts:2.0 ~dur:1.0 ]));
  check_rejects "gap in critpath lane" "gap"
    [ lane; seg ~ts:0.0 ~dur:2.0; seg ~ts:3.0 ~dur:1.0 ];
  (* The same gap on an unnamed lane is fine: only the promise of the
     "critical path" name is enforced. *)
  checkb "gaps allowed elsewhere" true
    (Result.is_ok (validate [ seg ~ts:0.0 ~dur:2.0; seg ~ts:3.0 ~dur:1.0 ]))

(* End-to-end: a traced + causally-recorded run exports a trace whose
   critical-path lane and flow chain pass the tightened validator. *)
let test_traced_export_validates () =
  let prog =
    Apps.Workloads.program ~iterations:3 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let config = Gpusim.Config.k80_box ~n_devices:4 () in
  let m = Gpusim.Machine.create ~functional:false config in
  Gpusim.Machine.enable_trace m;
  Gpusim.Machine.enable_causal m;
  ignore (Mekong.Multi_gpu.run ~machine:m (compile prog));
  let an = Obs.Causal.analyze (Option.get (Gpusim.Machine.causal_dag m)) in
  let j = Obs.Chrome_trace.to_json (Gpusim.Trace_export.events ~critpath:an m) in
  (match Obs.Chrome_trace.validate j with
   | Ok () -> ()
   | Error e -> Alcotest.failf "critpath trace rejected: %s" e);
  checkb "critical-path lane present" true
    (List.mem (0, 3) (Obs.Chrome_trace.lanes j))

(* ---------------- Serve: burn attribution and scheduler DAG -------- *)

let serve_report () =
  let built = Serve.Mix.generate ~seed:3 ~tenants:2 ~jobs:8 () in
  let cfg =
    Serve.Scheduler.config (Gpusim.Config.k80_box ~n_devices:4 ())
  in
  Serve.Scheduler.run cfg (List.map (fun b -> b.Serve.Mix.b_spec) built)

let test_serve_burn () =
  let r = serve_report () in
  let turnaround_by_tenant = Hashtbl.create 4 in
  List.iter
    (fun (j : Serve.Job.report) ->
       match j.Serve.Job.r_outcome with
       | Serve.Job.Completed { turnaround; _ } ->
         let prev =
           Option.value ~default:0.0
             (Hashtbl.find_opt turnaround_by_tenant j.Serve.Job.r_tenant)
         in
         Hashtbl.replace turnaround_by_tenant j.Serve.Job.r_tenant
           (prev +. turnaround)
       | _ -> ())
    r.Serve.Scheduler.r_jobs;
  List.iter
    (fun (t : Serve.Slo.tenant) ->
       checkb (t.Serve.Slo.t_name ^ ": burns non-negative") true
         (t.Serve.Slo.t_burn_queue >= 0.0
          && t.Serve.Slo.t_burn_run >= 0.0
          && t.Serve.Slo.t_burn_stall >= 0.0);
       (* queue + run + stall = sum over jobs of max(q+e, turnaround),
          so it covers the tenant's total turnaround. *)
       let total =
         Option.value ~default:0.0
           (Hashtbl.find_opt turnaround_by_tenant t.Serve.Slo.t_name)
       in
       checkb (t.Serve.Slo.t_name ^ ": burn covers turnaround") true
         (t.Serve.Slo.t_burn_queue +. t.Serve.Slo.t_burn_run
          +. t.Serve.Slo.t_burn_stall
          >= total -. 1e-9))
    (Serve.Scheduler.tenants r)

let test_serve_causal_dag () =
  let r = serve_report () in
  let an = Obs.Causal.analyze (Serve.Scheduler.causal_dag r) in
  check_reconciles "scheduler DAG" an;
  checkb "lease time on the path" true (cat an "run" > 0.0);
  checkb "makespan positive" true (an.Obs.Causal.an_makespan > 0.0);
  (* The DAG ends when the last lease releases, never after the
     scheduler's own makespan. *)
  checkb "within scheduler makespan" true
    (an.Obs.Causal.an_makespan <= r.Serve.Scheduler.r_makespan +. 1e-9)

(* ---------------- QCheck properties ---------------- *)

(* Random machine-consistent schedules: ops with random durations,
   resources and dependencies on earlier ops, scheduled by the same
   rule the simulator uses (start = max over resource ready and dep
   finishes).  The analyzer's invariants must hold on all of them. *)
let random_dag_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* n_res = int_range 1 4 in
    let* specs =
      list_repeat n
        (triple (int_range 0 (n_res - 1)) (float_range 0.0 2.0)
           (list_size (int_range 0 3) (int_range 0 (max 0 (n - 1)))))
    in
    return (n_res, specs))

let build_random_dag (n_res, specs) =
  let b = Obs.Causal.builder () in
  let res_ready = Array.make n_res 0.0 in
  let finishes = ref [] in
  List.iteri
    (fun i (res, dur, deps) ->
       let res = res mod n_res in
       let deps = List.filter (fun d -> d < i) deps in
       let ready =
         List.fold_left
           (fun acc d -> Float.max acc (List.nth (List.rev !finishes) d))
           res_ready.(res) deps
       in
       let finish = ready +. dur in
       ignore
         (Obs.Causal.add b ~label:"op" ~category:"compute" ~phase:""
            ~resources:[ Printf.sprintf "r%d" res ] ~ready ~start:ready
            ~finish ~fixed:0.0 ~legs:[] ~deps ~wait:"");
       res_ready.(res) <- finish;
       finishes := finish :: !finishes)
    specs;
  Obs.Causal.dag b

let qcheck_props =
  [
    QCheck.Test.make ~count:200 ~name:"critpath <= makespan, sums exact"
      (QCheck.make random_dag_gen) (fun spec ->
          let dag = build_random_dag spec in
          let an = Obs.Causal.analyze dag in
          let total =
            List.fold_left
              (fun acc (_, t) -> acc +. t)
              0.0 an.Obs.Causal.an_by_category
          in
          let tol = 1e-9 *. Float.max 1.0 an.Obs.Causal.an_makespan in
          Obs.Causal.critical_path_length an
          <= an.Obs.Causal.an_makespan +. tol
          && Float.abs (total -. an.Obs.Causal.an_makespan) <= tol);
    QCheck.Test.make ~count:200
      ~name:"single serialized resource: critpath = makespan"
      (QCheck.make random_dag_gen) (fun (_, specs) ->
          let dag = build_random_dag (1, specs) in
          let an = Obs.Causal.analyze dag in
          let tol = 1e-9 *. Float.max 1.0 an.Obs.Causal.an_makespan in
          Float.abs
            (Obs.Causal.critical_path_length an -. an.Obs.Causal.an_makespan)
          <= tol);
    QCheck.Test.make ~count:100 ~name:"identity replay matches on barriered DAGs"
      (QCheck.make random_dag_gen) (fun spec ->
          let dag = build_random_dag spec in
          let an = Obs.Causal.analyze dag in
          (* No links in these DAGs, so replay has no backfill
             approximation to make: it must be exact. *)
          Float.abs (Obs.Causal.identity_replay dag -. an.Obs.Causal.an_makespan)
          <= 1e-9 *. Float.max 1.0 an.Obs.Causal.an_makespan);
  ]

let () =
  Alcotest.run "critpath"
    [
      ( "hand-computed",
        [
          Alcotest.test_case "serial chain" `Quick test_serial_chain;
          Alcotest.test_case "fork-join" `Quick test_fork_join;
          Alcotest.test_case "contended link" `Quick test_contended_link;
        ] );
      ( "engine",
        [
          Alcotest.test_case "apps reconcile" `Quick test_apps_reconcile;
          Alcotest.test_case "halo-tiled stencil" `Quick
            test_halo_tiled_reconciles;
        ] );
      ( "what-if",
        [ Alcotest.test_case "bandwidth what-if validates" `Quick
            test_what_if_validates ] );
      ( "bounds",
        [ Alcotest.test_case "builder bounds" `Quick test_builder_bounds ] );
      ( "json", [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ] );
      ( "validator",
        [
          Alcotest.test_case "flow events" `Quick test_flow_validation;
          Alcotest.test_case "critpath lane tiling" `Quick
            test_critpath_lane_validation;
          Alcotest.test_case "traced export validates" `Quick
            test_traced_export_validates;
        ] );
      ( "serve",
        [
          Alcotest.test_case "burn attribution" `Quick test_serve_burn;
          Alcotest.test_case "scheduler causal DAG" `Quick
            test_serve_causal_dag;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
