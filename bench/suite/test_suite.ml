(* Tests of the benchmark suite: BENCHMARK.json and the code agree on
   every metric, one operation of each workload runs clean with every
   listed metric in its output (traced self times summing to the
   wall), counters come out of the layers' registries exactly, and the
   seed alone decides the inputs. *)

open Bench_suite

let () = Gpu_runtime.Dpool.set_default_domains 2

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let json_exn s =
  match Obs.Json.parse s with Ok j -> j | Error e -> Alcotest.failf "bad JSON: %s" e

let str j k =
  match Obs.Json.member k j with Some (Obs.Json.Str s) -> s | _ -> Alcotest.failf "missing %s" k

let list j k =
  match Obs.Json.member k j with Some (Obs.Json.List l) -> l | _ -> Alcotest.failf "missing %s" k

let benchmark () =
  json_exn (Workload.read_file (Filename.concat (Workload.root ()) "BENCHMARK.json"))

(* (name, unit, better) of a BENCHMARK.json metric list. *)
let listed key =
  List.map (fun m -> (str m "name", str m "unit", str m "better")) (list (benchmark ()) key)

let schema ms =
  List.map (fun (d : Schema.metric) -> (d.Schema.name, d.Schema.unit_, Schema.better_name d.Schema.better)) ms

let triple = Alcotest.(list (triple string string string))

let test_listed_metrics () =
  Alcotest.check triple "end_to_end" (schema Schema.end_to_end) (listed "end_to_end");
  Alcotest.check triple "per_layer" (schema (List.map fst Schema.per_layer)) (listed "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Harness.workload) -> w.Harness.w_name) Workload.all)
    (List.map (fun w -> str w "name") (list (benchmark ()) "workloads"))

(* A workload cut down to the named operations. *)
let only names (w : Harness.workload) =
  {
    w with
    Harness.w_prepare =
      (fun ~seed ->
         let setup = w.Harness.w_prepare ~seed in
         fun () ->
           let i = setup () in
           {
             i with
             Harness.ops =
               List.filter (fun (o : Harness.op) -> List.mem o.Harness.op_name names) i.Harness.ops;
           });
  }

let small =
  [
    only [ "single:hotspot-small"; "hotspot-small-g4" ] Workload.paper;
    only [ "vecadd-g4" ] Workload.exec;
    only [ "compile:g000-safe"; "compile:g005-reducible"; "compile:g008-conflicting" ]
      Workload.compile_wl;
    only [ "serve:loss" ] (Workload.serve_with ~jobs:40);
    only [ "matmul:profiled" ] Workload.modes;
  ]

let run ?(seed = 7) ~traced w = Harness.run ~log:ignore ~traced ~seed ~seconds:0.0 w

(* The closing line lists exactly the metrics BENCHMARK.json names for
   the run's kind, with their units. *)
let check_result_line ~key (r : Harness.run) =
  let line = json_exn (Schema.result_line r) in
  checkb "correct" true (Obs.Json.member "correct" line = Some (Obs.Json.Bool true));
  let metrics = match Obs.Json.member "metrics" line with Some (Obs.Json.Obj o) -> o | _ -> [] in
  List.iter
    (fun (name, unit_, _) ->
       match List.assoc_opt name metrics with
       | Some m ->
         checks (name ^ " unit") unit_ (str m "unit");
         checkb (name ^ " is a number") true (Option.bind (Obs.Json.member "value" m) Obs.Json.to_number <> None)
       | None -> Alcotest.failf "%s: %s missing" r.Harness.r_workload name)
    (listed key);
  checki "no extra metrics" (List.length (listed key)) (List.length metrics)

let test_one_item_each () =
  List.iter
    (fun w ->
       let r = run ~traced:false w in
       let name = r.Harness.r_workload in
       checkb (name ^ " ops ran") true (r.Harness.r_attempted >= 3);
       checkb (name ^ " fail_frac = 0") true (Schema.fail_frac r = 0.0);
       checkb (name ^ " correct") true (Schema.correct r);
       check_result_line ~key:"end_to_end" r;
       (* The run JSON carries every end-to-end metric with its unit. *)
       let doc = json_exn (Obs.Json.to_string (Schema.to_json r)) in
       List.iter
         (fun (m, unit_, _) ->
            match Option.bind (Obs.Json.member "metrics" doc) (Obs.Json.member m) with
            | Some j -> checks (name ^ " " ^ m) unit_ (str j "unit")
            | None -> Alcotest.failf "%s: %s missing from the run JSON" name m)
         (listed "end_to_end");
       let t = run ~traced:true w in
       checki (name ^ " spans dropped") 0 t.Harness.r_dropped;
       checkb
         (Printf.sprintf "%s layer sum within 1%% (%.4f%%)" name (100.0 *. Schema.span_sum_error t))
         true
         (Schema.span_sum_error t <= 0.01);
       check_result_line ~key:"per_layer" t)
    small

(* Every engine run goes through the plan cache, and the registry fold
   of a whole exec pass counts exactly the launches the machines saw. *)
let test_counters () =
  let seed = 1 in
  let inst = Workload.exec.Harness.w_prepare ~seed () in
  let pass = Hashtbl.create 16 in
  List.iter
    (fun (o : Harness.op) ->
       let reg = Obs.Metrics.create () in
       checkb (o.Harness.op_name ^ " ok") true (o.Harness.op_run reg);
       let one = Hashtbl.create 16 in
       Harness.fold_registry one reg;
       checkb
         (o.Harness.op_name ^ " uses the plan cache")
         true
         (Harness.total one "cache.plan_hits" +. Harness.total one "cache.plan_misses" > 0.0);
       Harness.fold_registry pass reg)
    inst.Harness.ops;
  let launches =
    List.fold_left
      (fun acc (fi : Workload.functional) ->
         let exe = Workload.compile (fi.Workload.f_build ()) in
         List.fold_left
           (fun acc g ->
              let m = Workload.machine g in
              ignore (Mekong.Multi_gpu.run ~machine:m exe);
              acc + (Gpusim.Machine.stats m).Gpusim.Machine.n_launches)
           acc Workload.exec_gpus)
      0 (Workload.exec_apps ~seed)
  in
  checki "gpusim.launches" launches (int_of_float (Harness.total pass "gpusim.launches"))

let test_seeds () =
  let serve = only [ "serve:loss" ] (Workload.serve_with ~jobs:40) in
  let a = run ~seed:1 ~traced:false serve and b = run ~seed:1 ~traced:false serve in
  checkb "same seed, same exact metrics" true (a.Harness.r_exact = b.Harness.r_exact);
  let sources seed = List.map (fun p -> p.Corpus.p_source) (Corpus.generate ~seed) in
  let labels seed = List.map (fun p -> p.Corpus.p_label) (Corpus.generate ~seed) in
  checkb "same seed, same corpus" true (sources 1 = sources 1);
  checkb "another seed, another corpus" true (sources 1 <> sources 7);
  checkb "another seed, the same labels" true (labels 1 = labels 7);
  let refs seed = List.map (fun (fi : Workload.functional) -> fi.Workload.f_ref) (Workload.exec_apps ~seed) in
  checkb "another seed, other exec inputs" true (refs 1 <> refs 7)

let () =
  Alcotest.run "suite"
    [
      ("schema", [ Alcotest.test_case "BENCHMARK.json lists the suite's metrics" `Quick test_listed_metrics ]);
      ("workloads", [ Alcotest.test_case "one item of each, plain and traced" `Quick test_one_item_each ]);
      ("counters", [ Alcotest.test_case "registry fold matches the machines" `Quick test_counters ]);
      ("seeds", [ Alcotest.test_case "the seed decides the inputs" `Quick test_seeds ]);
    ]
