(* What a run reports: the metric definitions (name, unit, clock,
   direction), how each is read off a finished run, and the two output
   forms — the full run JSON and the one-line result that closes
   standard output.  BENCHMARK.json lists the same names; the test
   checks that they agree. *)

open Harness

type clock = Host | Sim | Count
type better = Lower | Higher

type metric = { name : string; unit_ : string; clock : clock; better : better }

let clock_name = function Host -> "host" | Sim -> "sim" | Count -> "count"
let better_name = function Lower -> "lower" | Higher -> "higher"
let m name unit_ clock better = { name; unit_; clock; better }

(* End-to-end metrics every workload reports from an untraced run.
   [setup_s] is the fastest set-up and [pass_s] sums each operation's
   fastest timed run: on a shared host the minimum over repeats is what
   stays put from run to run, while medians move with the neighbours'
   load. *)
let end_to_end =
  [ m "setup_s" "s" Host Lower; m "pass_s" "s" Host Lower; m "heap_peak_mb" "MB" Host Lower ]

(* Deterministic end-to-end metrics: any change counts.  A workload
   reports the ones its operations define, and always [fail_frac]. *)
let exact =
  [
    m "sim_s" "sim_s" Sim Lower;
    m "sim_speedup" "x" Sim Higher;
    m "turnaround_p95_s" "sim_s" Sim Lower;
    m "fail_frac" "ratio" Count Lower;
  ]

let passes r = float_of_int (List.length r.r_walls)
let traced_wall r = List.fold_left ( +. ) 0.0 r.r_walls
let counter name r = total r.r_counters name

let fail_frac r =
  if r.r_attempted = 0 then 1.0
  else float_of_int r.r_failed /. float_of_int r.r_attempted

let end_to_end_value r name =
  match name with
  | "setup_s" -> List.fold_left Float.min infinity r.r_setup
  | "pass_s" -> List.fold_left ( +. ) 0.0 r.r_fastest /. 1e3
  | "heap_peak_mb" -> r.r_heap_mb
  | _ -> invalid_arg ("Schema.end_to_end_value: " ^ name)

(* The exact metrics a run defines, in schema order. *)
let exact_values r =
  List.filter_map
    (fun d ->
       if d.name = "fail_frac" then Some (d, fail_frac r)
       else Option.map (fun v -> (d, v)) (List.assoc_opt d.name r.r_exact))
    exact

let layer_acc r l =
  Option.value ~default:{ self_s = 0.0; spans = 0 } (List.assoc_opt l r.r_layers)

let ratio num dens r =
  let d = List.fold_left (fun s n -> s +. counter n r) 0.0 dens in
  if d = 0.0 then 0.0 else counter num r /. d

(* Per-layer metrics, reported by a traced run.  Self time and span
   counts are per pass, share is of the traced wall; counters are those
   of one pass, read from the registries the layers publish into.  A
   metric a workload does not exercise reads 0. *)
let per_layer : (metric * (run -> float)) list =
  List.concat_map
    (fun l ->
       [
         (m (l ^ ".self_s") "s" Host Lower, fun r -> (layer_acc r l).self_s /. passes r);
         (m (l ^ ".share") "ratio" Host Lower, fun r -> (layer_acc r l).self_s /. traced_wall r);
         ( m (l ^ ".spans") "count" Count Lower,
           fun r -> float_of_int (layer_acc r l).spans /. passes r );
       ])
    layer_names
  @ [ (m "traced_wall_s" "s" Host Lower, fun r -> traced_wall r /. passes r) ]
  @ List.map
    (fun (name, unit_, clock, better) -> (m name unit_ clock better, counter name))
    [
      ("cache.plan_hits", "count", Count, Higher);
      ("cache.plan_misses", "count", Count, Lower);
      ("engine.transfers", "count", Count, Lower);
      ("engine.chunked_launches", "count", Count, Lower);
      ("engine.chunks", "count", Count, Lower);
      ("gpusim.mem.spills", "count", Count, Lower);
      ("exec.compiles", "count", Count, Lower);
      ("exec.cache_hits", "count", Count, Higher);
      ("exec.seq_launches", "count", Count, Lower);
      ("exec.par_launches", "count", Count, Higher);
      ("exec.interpreted", "count", Count, Lower);
      ("engine.gate.safe", "count", Count, Higher);
      ("engine.gate.reducible", "count", Count, Higher);
      ("engine.gate.merges", "count", Count, Lower);
      ("verify.safe", "count", Count, Higher);
      ("verify.reducible", "count", Count, Higher);
      ("verify.racy", "count", Count, Lower);
      ("verify.unknown", "count", Count, Lower);
      ("compile.refused", "count", Count, Lower);
      ("gpusim.launches", "count", Count, Lower);
      ("gpusim.transfers", "count", Count, Lower);
      ("gpusim.h2d_bytes", "B", Count, Lower);
      ("gpusim.p2p_bytes", "B", Count, Lower);
      ("gpusim.d2h_bytes", "B", Count, Lower);
      ("gpusim.kernel_seconds", "sim_s", Sim, Lower);
      ("gpusim.transfer_seconds", "sim_s", Sim, Lower);
      ("gpusim.pattern_seconds", "sim_s", Sim, Lower);
      ("faults.retries", "count", Count, Lower);
      ("faults.replays", "count", Count, Lower);
      ("autotune.halo_blocks", "count", Count, Higher);
      ("serve.jobs.completed", "count", Count, Higher);
      ("serve.jobs.quarantined", "count", Count, Lower);
      ("serve.tenant.preemptions", "count", Count, Lower);
      ("critpath.nodes", "count", Count, Lower);
    ]
  @ [
    ( m "cache.plan_hit_ratio" "ratio" Count Higher,
      ratio "cache.plan_hits" [ "cache.plan_hits"; "cache.plan_misses" ] );
    ( m "exec.par_frac" "ratio" Count Higher,
      ratio "exec.par_launches" [ "exec.par_launches"; "exec.seq_launches" ] );
    (m "serve.utilization" "ratio" Count Higher, fun r -> mean r.r_counters "serve.utilization");
  ]
  @ List.map
    (fun d -> (d, fun r -> Option.value ~default:0.0 (List.assoc_opt d.name r.r_exact)))
    (List.filter (fun d -> d.clock = Sim) exact)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Relative gap between summed layer self times and the traced wall. *)
let span_sum_error r =
  let self = List.fold_left (fun s (_, a) -> s +. a.self_s) 0.0 r.r_layers in
  Float.abs (self -. traced_wall r) /. traced_wall r

let bench_share r = (layer_acc r "bench").self_s /. traced_wall r

(* Every operation matched its oracle, the deterministic metrics never
   moved between passes, and a traced run's spans add up. *)
let correct r =
  r.r_failed = 0 && r.r_exact_stable
  && List.for_all (fun (_, v) -> Float.is_finite v) r.r_exact
  && ((not r.r_traced) || (r.r_dropped = 0 && span_sum_error r <= 0.01))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let jnum x = Obs.Json.Float x

let metric_json d value extra =
  Obs.Json.Obj
    ([
      ("value", jnum value);
      ("unit", Obs.Json.Str d.unit_);
      ("clock", Obs.Json.Str (clock_name d.clock));
      ("better", Obs.Json.Str (better_name d.better));
    ]
     @ extra)

let samples xs = Obs.Json.List (List.map jnum xs)

let to_json r =
  let q1, _, q3 = quartiles r.r_walls in
  let e2e =
    List.map
      (fun d ->
         let extra =
           match d.name with
           | "setup_s" -> [ ("samples", samples r.r_setup) ]
           | "pass_s" -> [ ("ops", Obs.Json.Int (List.length r.r_fastest)) ]
           | _ -> []
         in
         (d.name, metric_json d (end_to_end_value r d.name) extra))
      end_to_end
  in
  let exact = List.map (fun (d, v) -> (d.name, metric_json d v [])) (exact_values r) in
  let traced =
    if not r.r_traced then []
    else
      [
        ("traced_wall_s", jnum (traced_wall r /. passes r));
        ("span_sum_error", jnum (span_sum_error r));
        ("spans_dropped", Obs.Json.Int r.r_dropped);
        ( "layers",
          Obs.Json.Obj (List.map (fun (d, f) -> (d.name, metric_json d (f r) [])) per_layer) );
      ]
  in
  Obs.Json.Obj
    ([
      ("workload", Obs.Json.Str r.r_workload);
      ("seed", Obs.Json.Int r.r_seed);
      ("traced", Obs.Json.Bool r.r_traced);
      ("domains", Obs.Json.Int r.r_domains);
      ("word_size", Obs.Json.Int Sys.word_size);
      ("ocaml", Obs.Json.Str Sys.ocaml_version);
      ( "op_ms",
        Obs.Json.Obj
          [ ("n", Obs.Json.Int (List.length r.r_fastest));
            ("p50", jnum (percentile r.r_fastest 50.0));
            ("p90", jnum (percentile r.r_fastest 90.0)) ] );
      ( "pass_walls",
        Obs.Json.Obj
          [ ("n", Obs.Json.Int (List.length r.r_walls)); ("median", jnum (median r.r_walls));
            ("q1", jnum q1); ("q3", jnum q3); ("samples", samples r.r_walls) ] );
      ("correct", Obs.Json.Bool (correct r));
      ( "ops",
        Obs.Json.Obj
          [ ("attempted", Obs.Json.Int r.r_attempted); ("failed", Obs.Json.Int r.r_failed) ] );
      ("metrics", Obs.Json.Obj (e2e @ exact));
      ( "exact",
        Obs.Json.Obj (List.map (fun (k, v) -> (k, jnum v)) r.r_exact) );
      ( "counters",
        Obs.Json.Obj
          (List.sort compare (List.of_seq (Hashtbl.to_seq r.r_counters))
           |> List.map (fun (k, (v, _)) -> (k, jnum v))) );
    ]
     @ traced)

(* The closing line of standard output: one JSON object on one line,
   with the end-to-end metrics of an untraced run or the per-layer ones
   of a traced run. *)
let number x =
  if not (Float.is_finite x) then "0"
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let result_line r =
  let metrics =
    if r.r_traced then List.map (fun (d, f) -> (d, f r)) per_layer
    else List.map (fun d -> (d, end_to_end_value r d.name)) end_to_end
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (correct r) r.r_attempted r.r_failed
    (String.concat ", "
       (List.map
          (fun (d, v) ->
             Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} d.name (number v) d.unit_)
          metrics))
