(* [suite compare A B]: two sets of run JSONs, metric by metric.

   Each side is a run JSON or a directory of them.  Host metrics are
   compared by median against the bound BENCHMARK.json fixes for them;
   a side's spread is the interquartile range of its runs.  When either
   side's spread is wider than the bound the verdict is "unresolved",
   unless every value of B beats every value of A.  Deterministic
   metrics must be equal.  A traced run compared with an untraced one
   of the same workload yields the tracing overhead instead of a
   verdict. *)

type run = { workload : string; traced : bool; doc : Obs.Json.t }

let load file =
  match Obs.Json.parse (Workload.read_file file) with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok doc -> (
      match (Obs.Json.member "workload" doc, Obs.Json.member "traced" doc) with
      | Some (Obs.Json.Str workload), Some (Obs.Json.Bool traced) ->
        { workload; traced; doc }
      | _ -> failwith (file ^ ": not a suite run JSON"))

let load_side path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (fun f -> load (Filename.concat path f))
  else [ load path ]

(* Bounds of the end-to-end metrics, from BENCHMARK.json. *)
let bounds () =
  let file = Filename.concat (Workload.root ()) "BENCHMARK.json" in
  match Obs.Json.parse (Workload.read_file file) with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc -> (
      match Obs.Json.member "end_to_end" doc with
      | Some (Obs.Json.List ms) ->
        List.filter_map
          (fun mj ->
             match (Obs.Json.member "name" mj, Option.bind (Obs.Json.member "bound" mj) Obs.Json.to_number) with
             | Some (Obs.Json.Str n), Some b -> Some (n, b)
             | _ -> None)
          ms
      | _ -> [])

(* One value per run. *)
let values runs name =
  let ( let* ) = Option.bind in
  List.filter_map
    (fun r ->
       let* metrics = Obs.Json.member "metrics" r.doc in
       let* m = Obs.Json.member name metrics in
       let* v = Obs.Json.member "value" m in
       Obs.Json.to_number v)
    runs

type verdict = Equal | Changed | Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Equal -> "equal"
  | Changed -> "CHANGED"
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

let spread xs =
  let q1, med, q3 = Harness.quartiles xs in
  if med = 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let judge ~higher ~bound a b =
  let ma = Harness.median a and mb = Harness.median b in
  let worse = if higher then (ma -. mb) /. ma else (mb -. ma) /. ma in
  let beats x y = if higher then x > y else x < y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  if Float.max (spread a) (spread b) > bound then if all_better then Improved else Unresolved
  else if worse > bound then Regressed
  else if worse < -.bound then Improved
  else Unchanged

let fmt_side xs =
  let q1, med, q3 = Harness.quartiles xs in
  Printf.sprintf "%.6g [IQR %.3g]" med (q3 -. q1)

let compare_workload ~bounds ~failed name side_a side_b =
  let pick traced runs = List.filter (fun r -> r.traced = traced) runs in
  let ua = pick false side_a and ub = pick false side_b in
  let ta = pick true side_a and tb = pick true side_b in
  let a, b = if ua <> [] && ub <> [] then (ua, ub) else if ta <> [] && tb <> [] then (ta, tb) else (side_a, side_b) in
  let mixed = (List.hd a).traced <> (List.hd b).traced in
  let row metric sa sb delta verdict =
    Printf.printf "%-8s %-18s %-28s %-28s %8s  %s\n" name metric sa sb delta verdict
  in
  List.iter
    (fun (d : Schema.metric) ->
       let xa = values a d.Schema.name and xb = values b d.Schema.name in
       if xa <> [] && xb <> [] then begin
         let ma = Harness.median xa and mb = Harness.median xb in
         let delta = if ma = 0.0 then "" else Printf.sprintf "%+.1f%%" (100.0 *. (mb -. ma) /. ma) in
         match d.Schema.clock with
         | Schema.Sim | Schema.Count ->
           let v = if ma = mb then Equal else Changed in
           if v = Changed then incr failed;
           row d.Schema.name (Printf.sprintf "%.10g" ma) (Printf.sprintf "%.10g" mb) delta (verdict_name v)
         | Schema.Host when mixed ->
           if d.Schema.name = "pass_s" then
             let traced, untraced = if (List.hd b).traced then (mb, ma) else (ma, mb) in
             row d.Schema.name (fmt_side xa) (fmt_side xb) delta
               (Printf.sprintf "trace overhead %+.1f%%" (100.0 *. ((traced /. untraced) -. 1.0)))
         | Schema.Host -> (
             match List.assoc_opt d.Schema.name bounds with
             | None -> row d.Schema.name (fmt_side xa) (fmt_side xb) delta ""
             | Some bound ->
               let v = judge ~higher:(d.Schema.better = Schema.Higher) ~bound xa xb in
               if v = Regressed then incr failed;
               row d.Schema.name (fmt_side xa) (fmt_side xb) delta
                 (Printf.sprintf "%s (bound %.0f%%)" (verdict_name v) (100.0 *. bound)))
       end)
    (Schema.end_to_end @ Schema.exact)

(* Prints the table; returns the number of regressed or changed rows. *)
let run path_a path_b =
  let side_a = load_side path_a and side_b = load_side path_b in
  let bounds = bounds () in
  let failed = ref 0 in
  Printf.printf "%-8s %-18s %-28s %-28s %8s  %s\n" "workload" "metric" "A median" "B median" "delta" "verdict";
  List.iter
    (fun (w : Harness.workload) ->
       let on side = List.filter (fun r -> r.workload = w.Harness.w_name) side in
       match (on side_a, on side_b) with
       | [], _ | _, [] -> ()
       | a, b -> compare_workload ~bounds ~failed w.Harness.w_name a b)
    Workload.all;
  !failed
