(* The benchmark suite's command line.

     suite run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--json OUT]
     suite compare A B

   [run] measures one workload in this process and prints every metric
   with its unit; the last line of standard output is a one-line JSON
   result.  It exits 1 when any operation failed its oracle.
   [compare] diffs two run JSONs (or directories of them) against the
   bounds in BENCHMARK.json and exits 1 beyond a bound. *)

let usage =
  "usage: suite run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json OUT]\n\
  \       suite compare A B\n\
   workloads: "
  ^ String.concat " " (List.map (fun w -> w.Bench_suite.Harness.w_name) Bench_suite.Workload.all)

let die msg =
  prerr_endline ("suite: " ^ msg);
  prerr_endline usage;
  exit 2

let int_arg flag v =
  match int_of_string_opt v with Some n -> n | None -> die (flag ^ " expects an integer")

let print_run (r : Bench_suite.Harness.run) =
  let open Bench_suite in
  Printf.printf "workload %s, seed %d, %d domains, %d timed passes%s\n" r.Harness.r_workload
    r.Harness.r_seed r.Harness.r_domains (List.length r.Harness.r_walls)
    (if r.Harness.r_traced then ", traced" else "");
  Printf.printf "ops: %d attempted, %d failed\n" r.Harness.r_attempted r.Harness.r_failed;
  List.iter
    (fun (d : Schema.metric) ->
       Printf.printf "  %-16s %14.6g %s\n" d.Schema.name
         (Schema.end_to_end_value r d.Schema.name) d.Schema.unit_)
    Schema.end_to_end;
  Printf.printf "  op time p50 %.6g ms, p90 %.6g ms (fastest run of each of %d ops)\n"
    (Harness.percentile r.Harness.r_fastest 50.0)
    (Harness.percentile r.Harness.r_fastest 90.0)
    (List.length r.Harness.r_fastest);
  List.iter
    (fun ((d : Schema.metric), v) ->
       Printf.printf "  %-16s %14.10g %s (exact)\n" d.Schema.name v d.Schema.unit_)
    (Schema.exact_values r);
  if r.Harness.r_traced then begin
    Printf.printf "layers (self time per pass, share of the traced wall):\n";
    List.iter
      (fun (l, (a : Harness.layer_acc)) ->
         Printf.printf "  %-14s %10.6f s %6.1f%%\n" l
           (a.Harness.self_s /. Schema.passes r)
           (100.0 *. a.Harness.self_s /. Schema.traced_wall r))
      r.Harness.r_layers;
    Printf.printf "  layer sum vs traced wall: %.4f%% apart, %d spans dropped\n"
      (100.0 *. Schema.span_sum_error r) r.Harness.r_dropped;
    if Schema.bench_share r > 0.05 then
      prerr_endline "suite: warning: harness self time above 5% of the traced wall"
  end;
  if not r.Harness.r_exact_stable then
    prerr_endline "suite: deterministic metrics differed between passes"

let run_cmd args =
  let workload = ref None and seed = ref 1 and seconds = ref 12 in
  let traced = ref false and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_arg "--seconds" v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> traced := v = "1"; parse rest
    | "--json" :: v :: rest -> json := Some v; parse rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  parse args;
  if !seconds < 1 then die "--seconds must be positive";
  let w =
    match !workload with
    | None -> die "--workload is required"
    | Some name -> (
        match Bench_suite.Workload.find name with
        | Some w -> w
        | None -> die ("unknown workload " ^ name))
  in
  (* One domain, whatever the host or the environment says: on a shared
     two-core host a second domain made the same run's pass time swing
     by 10-20% between processes, more than any bound could absorb. *)
  Gpu_runtime.Dpool.set_default_domains 1;
  let r =
    Bench_suite.Harness.run ~traced:!traced ~seed:!seed
      ~seconds:(float_of_int !seconds) w
  in
  print_run r;
  Option.iter
    (fun file -> Obs.Json.write ~file (Bench_suite.Schema.to_json r))
    !json;
  print_endline (Bench_suite.Schema.result_line r);
  exit (if Bench_suite.Schema.correct r then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | [ "compare"; a; b ] -> exit (if Bench_suite.Diff.run a b > 0 then 1 else 0)
  | _ -> die "expected a command"
