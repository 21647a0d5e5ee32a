(* Chrome-trace export of one simulated run.

   Mapping (devices are processes, engines are threads):

     pid 0        "host"    tid 0 host timeline   tid 1 spans   tid 2 faults
     pid 1        "fabric"  one tid per contention lane (tid 0 "bus" on
                            the flat topology; per-island link/uplink
                            lanes on an islands topology)
     pid 2 + d    "dev d"   tid 0 compute   tid 1 copy_in   tid 2 copy_out

   Every engine lane is built from the machine's one event trace:
   device ops carry their endpoints and byte counts, host ops their
   busy category, fabric legs their lane.  Host-side spans that carried
   a simulated-time sampler are rendered on the spans lane.  Everything
   is on the *simulated* clock (microseconds) — wall-clock-only spans
   (toolchain phases) belong to the profile report, not the trace.

   Requires [Machine.enable_trace] before the run; with tracing off
   the export degrades to metadata, spans and the critical path. *)

let host_pid = 0
let fabric_pid = 1
let device_pid d = 2 + d

let host_tid_timeline = 0
let host_tid_spans = 1
let host_tid_faults = 2
let host_tid_critpath = 3

let tid_compute = 0
let tid_copy_in = 1
let tid_copy_out = 2

let us seconds = seconds *. 1e6

let metadata m =
  let open Obs.Chrome_trace in
  [
    Process_name { pid = host_pid; name = "host" };
    Thread_name { pid = host_pid; tid = host_tid_timeline; name = "host thread" };
    Thread_name { pid = host_pid; tid = host_tid_spans; name = "engine spans" };
    Thread_name { pid = host_pid; tid = host_tid_faults; name = "faults" };
    Process_name { pid = fabric_pid; name = "fabric" };
  ]
  @ List.mapi
      (fun tid (name, _) -> Thread_name { pid = fabric_pid; tid; name })
      (Machine.link_timelines m)
  @ List.concat
      (List.init (Machine.n_devices m) (fun d ->
           [
             Process_name
               { pid = device_pid d; name = Printf.sprintf "dev%d" d };
             Thread_name { pid = device_pid d; tid = tid_compute; name = "compute" };
             Thread_name { pid = device_pid d; tid = tid_copy_in; name = "copy_in" };
             Thread_name
               { pid = device_pid d; tid = tid_copy_out; name = "copy_out" };
           ]))

let endpoint d = if d < 0 then "host" else Printf.sprintf "dev%d" d

(* One machine event, spread onto the engine lane(s) it occupied. *)
let event_lanes (e : Machine.event) =
  let open Obs.Chrome_trace in
  let ts = us e.Machine.ev_start in
  let dur = us (e.Machine.ev_finish -. e.Machine.ev_start) in
  let transfer name lanes =
    let args =
      [
        ("bytes", Obs.Json.Int e.Machine.ev_bytes);
        ("src", Obs.Json.Str (endpoint e.Machine.ev_src));
        ("dst", Obs.Json.Str (endpoint e.Machine.ev_dst));
      ]
    in
    List.map
      (fun (pid, tid) ->
         Complete { name; cat = "transfer"; pid; tid; ts; dur; args })
      lanes
  in
  match e.Machine.ev_kind with
  | `Kernel ->
    [
      Complete
        {
          name = "kernel";
          cat = "kernel";
          pid = device_pid e.Machine.ev_src;
          tid = tid_compute;
          ts;
          dur;
          args = [];
        };
    ]
  | `H2d -> transfer "h2d" [ (device_pid e.Machine.ev_dst, tid_copy_in) ]
  | `D2h -> transfer "d2h" [ (device_pid e.Machine.ev_src, tid_copy_out) ]
  | `P2p ->
    let src_lane = (device_pid e.Machine.ev_src, tid_copy_out) in
    if e.Machine.ev_src = e.Machine.ev_dst then transfer "p2p" [ src_lane ]
    else
      transfer "p2p"
        [ src_lane; (device_pid e.Machine.ev_dst, tid_copy_in) ]
  | `Fault ->
    [
      Instant
        {
          name = "fault";
          cat = "fault";
          pid = host_pid;
          tid = host_tid_faults;
          ts;
          args =
            [
              ("src", Obs.Json.Str (endpoint e.Machine.ev_src));
              ("dst", Obs.Json.Str (endpoint e.Machine.ev_dst));
            ];
        };
    ]
  | `Host category ->
    [
      Complete
        { name = category; cat = "host"; pid = host_pid;
          tid = host_tid_timeline; ts; dur; args = [] };
    ]
  | `Fabric lane ->
    (* Named like the links' busy category. *)
    [
      Complete
        { name = "bus"; cat = "fabric"; pid = fabric_pid; tid = lane; ts; dur;
          args = [] };
    ]
  | `Mem ->
    (* Memory-pressure marker on the device's compute lane: emitted on
       90%-of-capacity crossings and on out-of-memory, carrying the
       bytes charged at that moment. *)
    [
      Instant
        {
          name = "mem_pressure";
          cat = "mem";
          pid = device_pid e.Machine.ev_src;
          tid = tid_compute;
          ts;
          args = [ ("used_bytes", Obs.Json.Int e.Machine.ev_bytes) ];
        };
    ]

let span_events spans =
  List.filter_map
    (fun (s : Obs.Span.record) ->
       if Float.is_nan s.Obs.Span.sp_sim_start then None
       else
         Some
           (Obs.Chrome_trace.Complete
              {
                name =
                  (if s.Obs.Span.sp_cat = "" then s.Obs.Span.sp_name
                   else s.Obs.Span.sp_cat ^ "." ^ s.Obs.Span.sp_name);
                cat = "span";
                pid = host_pid;
                tid = host_tid_spans;
                ts = us s.Obs.Span.sp_sim_start;
                dur = us (s.Obs.Span.sp_sim_stop -. s.Obs.Span.sp_sim_start);
                args =
                  [
                    ( "wall_us",
                      Obs.Json.Float
                        (us (s.Obs.Span.sp_wall_stop -. s.Obs.Span.sp_wall_start))
                    );
                    ("depth", Obs.Json.Int s.Obs.Span.sp_depth);
                  ];
              }))
    spans

(* Critical-path lane: the analysis segments tile [0, makespan], so
   the lane renders as one unbroken bar colored by category, with flow
   arrows chaining consecutive segments (the causal hand-off the
   validator checks never points backwards in time). *)
let critpath_events (an : Obs.Causal.analysis) =
  let open Obs.Chrome_trace in
  let segs = Array.of_list an.Obs.Causal.an_segments in
  List.concat
    (List.init (Array.length segs) (fun i ->
         let s = segs.(i) in
         let seg =
           Complete
             {
               name = s.Obs.Causal.sg_label;
               cat = s.Obs.Causal.sg_category;
               pid = host_pid;
               tid = host_tid_critpath;
               ts = us s.Obs.Causal.sg_start;
               dur = us (s.Obs.Causal.sg_finish -. s.Obs.Causal.sg_start);
               args =
                 [
                   ("category", Obs.Json.Str s.Obs.Causal.sg_category);
                   ("node", Obs.Json.Int s.Obs.Causal.sg_node);
                 ];
             }
         in
         if i + 1 >= Array.length segs then [ seg ]
         else
           let boundary = us s.Obs.Causal.sg_finish in
           [
             seg;
             Flow_start
               {
                 name = "critpath";
                 cat = "critpath";
                 pid = host_pid;
                 tid = host_tid_critpath;
                 ts = boundary;
                 id = i;
               };
             Flow_finish
               {
                 name = "critpath";
                 cat = "critpath";
                 pid = host_pid;
                 tid = host_tid_critpath;
                 ts = boundary;
                 id = i;
               };
           ]))

(* Lane, then time; longer events first on ties so nested spans render
   (and validate) properly.  This also guarantees per-lane monotone
   timestamps regardless of the order events were gathered in.  Flow
   starts sort before finishes on ties, preserving pairing order. *)
let lane_order a b =
  let open Obs.Chrome_trace in
  let key = function
    | Complete e -> (e.pid, e.tid, e.ts, -.e.dur)
    | Instant e -> (e.pid, e.tid, e.ts, 0.0)
    | Flow_start e -> (e.pid, e.tid, e.ts, 1.0)
    | Flow_finish e -> (e.pid, e.tid, e.ts, 2.0)
    | Process_name e -> (e.pid, -1, neg_infinity, 0.0)
    | Thread_name e -> (e.pid, e.tid, neg_infinity, 0.0)
  in
  compare (key a) (key b)

let events ?(spans = []) ?critpath m =
  let timing =
    List.concat_map event_lanes (Machine.trace m)
    @ span_events spans
    @ (match critpath with None -> [] | Some an -> critpath_events an)
  in
  let meta =
    metadata m
    @
    match critpath with
    | None -> []
    | Some _ ->
      [
        Obs.Chrome_trace.Thread_name
          { pid = host_pid; tid = host_tid_critpath; name = "critical path" };
      ]
  in
  meta @ List.stable_sort lane_order timing

let to_json ?spans ?critpath m =
  Obs.Chrome_trace.to_json (events ?spans ?critpath m)

let to_string ?spans ?critpath m =
  Obs.Chrome_trace.to_string (events ?spans ?critpath m)

let write ?spans ?critpath ~file m =
  Obs.Chrome_trace.write ~file (events ?spans ?critpath m)
