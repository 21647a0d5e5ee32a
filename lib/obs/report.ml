(* Per-run profile report: where did the simulated time and the bytes
   go?  The report is plain data — collectors in the higher layers
   (Mekong.Profile) fill it from a machine and a run result — rendered
   either as text tables for the CLI or as JSON for the bench reports
   and CI artifacts. *)

type device_row = {
  dr_device : int;
  dr_compute : float; (* busy seconds on the compute engine *)
  dr_copy_in : float; (* busy seconds on the inbound copy engine *)
  dr_copy_out : float; (* busy seconds on the outbound copy engine *)
  dr_idle : float; (* span minus compute busy time, clamped at 0 *)
  dr_util : float; (* fraction of the span the compute engine was busy *)
  dr_lost : bool; (* device fell off the bus during the run *)
}

type t = {
  rp_elapsed : float; (* total simulated span of the run *)
  rp_devices : device_row list;
  rp_host_busy : (string * float) list; (* host seconds per category *)
  rp_fabric_busy : float;
  rp_matrix : ((int * int) * int) list;
      (* bytes moved per (src, dst) device pair; -1 is the host *)
  rp_counters : (string * float) list;
      (* flattened metric read-out: cache, executor, fault counters *)
  rp_spans : Span.summary list;
  rp_trace_dropped : int; (* events evicted from the bounded trace *)
}

let endpoint_name d = if d < 0 then "host" else Printf.sprintf "dev%d" d

(* Totals of the byte matrix split by transfer direction; these must
   reconcile exactly with Machine.stats (h2d/d2h/p2p bytes) — the
   acceptance check behind `mekongc profile`. *)
let matrix_totals t =
  List.fold_left
    (fun (h2d, d2h, p2p) ((src, dst), bytes) ->
       if src < 0 then (h2d + bytes, d2h, p2p)
       else if dst < 0 then (h2d, d2h + bytes, p2p)
       else (h2d, d2h, p2p + bytes))
    (0, 0, 0) t.rp_matrix

let line width = String.make width '-'

let pp fmt t =
  let p f = Format.fprintf fmt f in
  p "profile: %.6f s simulated@." t.rp_elapsed;
  p "@.per-device breakdown (seconds; busy = compute engine, idle = span - \
     busy, util = busy/span)@.";
  p "%s@." (line 74);
  p "%-8s %10s %10s %10s %10s %8s %6s@." "device" "compute" "copy_in"
    "copy_out" "idle" "util" "state";
  p "%s@." (line 74);
  List.iter
    (fun d ->
       p "%-8s %10.6f %10.6f %10.6f %10.6f %7.1f%% %6s@."
         (endpoint_name d.dr_device) d.dr_compute d.dr_copy_in d.dr_copy_out
         d.dr_idle (d.dr_util *. 100.0)
         (if d.dr_lost then "LOST" else "ok"))
    t.rp_devices;
  p "%s@." (line 74);
  (match t.rp_host_busy with
   | [] -> ()
   | busy ->
     p "@.host busy (seconds per category)@.";
     List.iter (fun (cat, s) -> p "  %-12s %12.6f@." cat s) busy);
  if t.rp_fabric_busy > 0.0 then
    p "@.fabric busy: %.6f s@." t.rp_fabric_busy;
  (match t.rp_matrix with
   | [] -> p "@.no data movement recorded@."
   | matrix ->
     p "@.bytes moved per (src -> dst) pair@.";
     p "%s@." (line 40);
     List.iter
       (fun ((src, dst), bytes) ->
          p "  %-6s -> %-6s %14d B@." (endpoint_name src) (endpoint_name dst)
            bytes)
       matrix;
     p "%s@." (line 40);
     let h2d, d2h, p2p = matrix_totals t in
     p "  totals: h2d=%dB d2h=%dB p2p=%dB@." h2d d2h p2p);
  (match t.rp_counters with
   | [] -> ()
   | counters ->
     p "@.counters@.";
     List.iter
       (fun (name, v) ->
          if Float.is_integer v then p "  %-36s %14d@." name (int_of_float v)
          else p "  %-36s %14.6f@." name v)
       counters);
  (match t.rp_spans with
   | [] -> ()
   | spans ->
     p "@.span summary (per phase: count, wall seconds, simulated seconds)@.";
     p "%s@." (line 74);
     p "%-34s %8s %12s %12s@." "phase" "count" "wall(s)" "sim(s)";
     p "%s@." (line 74);
     List.iter
       (fun (s : Span.summary) ->
          p "%-34s %8d %12.6f %12.6f@."
            (if s.su_cat = "" then s.su_name else s.su_cat ^ "." ^ s.su_name)
            s.su_count s.su_wall s.su_sim)
       spans;
     p "%s@." (line 74));
  if t.rp_trace_dropped > 0 then
    p "@.trace ring overflowed: %d event(s) dropped@." t.rp_trace_dropped;
  (* Any dropped observability event means the tables above undercount:
     say so loudly rather than let a silently-truncated profile pass
     for a complete one. *)
  let dropped =
    List.filter
      (fun (name, v) ->
         v > 0.0 && String.length name > 12
         && String.sub name 0 12 = "obs.dropped.")
      t.rp_counters
  in
  match dropped with
  | [] -> ()
  | dropped ->
    p "@.WARNING: observability buffers overflowed; this report is \
       INCOMPLETE@.";
    List.iter
      (fun (name, v) ->
         p "  %-24s %d event(s) dropped@." name (int_of_float v))
      dropped

let to_string t = Format.asprintf "%a" pp t

let to_json t =
  let h2d, d2h, p2p = matrix_totals t in
  Json.Obj
    [
      ("elapsed_seconds", Json.Float t.rp_elapsed);
      ( "devices",
        Json.List
          (List.map
             (fun d ->
                Json.Obj
                  [
                    ("device", Json.Int d.dr_device);
                    ("compute_seconds", Json.Float d.dr_compute);
                    ("copy_in_seconds", Json.Float d.dr_copy_in);
                    ("copy_out_seconds", Json.Float d.dr_copy_out);
                    ("idle_seconds", Json.Float d.dr_idle);
                    ("utilization", Json.Float d.dr_util);
                    ("lost", Json.Bool d.dr_lost);
                  ])
             t.rp_devices) );
      ( "host_busy",
        Json.Obj (List.map (fun (c, s) -> (c, Json.Float s)) t.rp_host_busy) );
      ("fabric_busy_seconds", Json.Float t.rp_fabric_busy);
      ( "byte_matrix",
        Json.List
          (List.map
             (fun ((src, dst), bytes) ->
                Json.Obj
                  [
                    ("src", Json.Int src);
                    ("dst", Json.Int dst);
                    ("bytes", Json.Int bytes);
                  ])
             t.rp_matrix) );
      ( "byte_totals",
        Json.Obj
          [
            ("h2d", Json.Int h2d);
            ("d2h", Json.Int d2h);
            ("p2p", Json.Int p2p);
          ] );
      ( "counters",
        Json.Obj
          (List.map
             (fun (name, v) ->
                ( name,
                  if Float.is_integer v && Float.abs v < 1e15 then
                    Json.Int (int_of_float v)
                  else Json.Float v ))
             t.rp_counters) );
      ( "spans",
        Json.List
          (List.map
             (fun (s : Span.summary) ->
                Json.Obj
                  [
                    ("cat", Json.Str s.su_cat);
                    ("name", Json.Str s.su_name);
                    ("count", Json.Int s.su_count);
                    ("wall_seconds", Json.Float s.su_wall);
                    ("sim_seconds", Json.Float s.su_sim);
                  ])
             t.rp_spans) );
      ("trace_dropped", Json.Int t.rp_trace_dropped);
    ]
