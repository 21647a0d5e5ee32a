(* The serving scheduler: a discrete-event loop over global simulated
   time.  Each dispatched job runs a partitioned engine on a fresh
   sub-machine sized to its device lease (Config.lease); fleet-wide
   scheduled losses are translated into lease-local scheduled losses
   plus an engine preemption bound, so an in-flight job hit by a loss
   self-heals through the PR-2 machinery, checkpoints into a portable
   handoff, and re-queues for the surviving devices. *)

(* The serving policy (DESIGN.md §17): failures before quarantine, the
   requeue delay after a failure (simulated seconds, doubling from the
   base to the cap), and the engine checkpoint cadence per lease. *)
let max_strikes = 3
let retry_base = 1e-3
let retry_cap = 0.25
let checkpoint_every = 4

type config = {
  fleet : Gpusim.Config.t;
  max_queue : int;
  losses : (int * float) list;
}

let config ?(max_queue = 64) ?(losses = []) fleet =
  let fleet = Gpusim.Config.validate fleet in
  let reject what = invalid_arg ("Scheduler.config: " ^ what) in
  if max_queue < 1 then reject "max_queue must be positive";
  List.iter
    (fun (d, t) ->
       if d < 0 || d >= fleet.Gpusim.Config.n_devices then
         reject
           (Printf.sprintf "loss device %d out of range [0,%d)" d
              fleet.Gpusim.Config.n_devices);
       if not (t >= 0.0) then
         reject (Printf.sprintf "loss time %g must be non-negative" t))
    losses;
  (* One loss per device: the earliest wins (a device dies once). *)
  let losses =
    List.sort compare losses
    |> List.fold_left
      (fun acc (d, t) ->
         if List.mem_assoc d acc then acc else (d, t) :: acc)
      []
    |> List.rev
  in
  { fleet; max_queue; losses }

type segment = {
  sg_job : string;
  sg_tenant : string;
  sg_devices : int list;
  sg_start : float;
  sg_stop : float;
  sg_outcome : [ `Done | `Preempted | `Timed_out | `Failed ];
}

type report = {
  r_fleet : int;
  r_jobs : Job.report list;
  r_segments : segment list;
  r_queue_log : (float * string * string) list;
  r_losses : (int * float) list;
  r_makespan : float;
  r_utilization : float;
  r_devices_lost : int;
  r_peak_queue : int;
}

(* Mutable per-job serving state. *)
type jstate = {
  js_spec : Job.spec;
  js_seq : int;  (* submission index, the final tie-breaker *)
  js_predicted : float;  (* static runtime estimate (EDF queue key) *)
  mutable js_exe : Mekong.Multi_gpu.exe option;
  mutable js_handoff : Mekong.Multi_gpu.handoff option;
  mutable js_strikes : int;
  mutable js_attempts : int;
  mutable js_preemptions : int;
  mutable js_retries : int;
  mutable js_started : float option;
  mutable js_engine_time : float;
  mutable js_outcome : Job.outcome option;
}

type fate =
  | Fate_done
  | Fate_preempt of Mekong.Multi_gpu.handoff * [ `Loss | `Deadline ]
  | Fate_fail of string

type ev =
  | Arrive of jstate
  | Release of { job : jstate; lease : int list; fate : fate }
  | Lose of int
  | Requeue of jstate

(* Admission estimate: the high-water mark of live Malloc'd elements.
   Under the linear scatter a lease of k devices holds ~1/k of every
   buffer per device, so the smallest feasible lease is
   ceil(footprint_bytes / mem_capacity).  An estimate, not a proof —
   the engine's own chunking and spilling absorb the slack, and a live
   OOM surfaces as a typed failure into the retry/quarantine path. *)
let footprint_elems (prog : Host_ir.t) =
  let live : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let cur = ref 0 and hw = ref 0 in
  let rec go (s : Host_ir.stmt) =
    match s with
    | Host_ir.Malloc (name, len) ->
      if not (Hashtbl.mem live name) then begin
        Hashtbl.replace live name len;
        cur := !cur + len;
        if !cur > !hw then hw := !cur
      end
    | Host_ir.Free name -> (
        match Hashtbl.find_opt live name with
        | Some len ->
          Hashtbl.remove live name;
          cur := !cur - len
        | None -> ())
    | Host_ir.Repeat (_, body) -> List.iter go body
    | _ -> ()
  in
  List.iter go prog.Host_ir.body;
  !hw

(* Static runtime estimate for deadline-aware admission: each launch's
   ops-per-block through the simulator's wave/autoboost formula on the
   job's requested lease size, each memcpy's bytes over the host link,
   Repeat-multiplied.  The same static walk the partition autotuner
   scores candidates with, collapsed to a single number — an ordering
   heuristic for the queue, never a promise to the job. *)
let predicted_runtime (fleet : Gpusim.Config.t) (spec : Job.spec) =
  let n = max 1 (min spec.Job.devices fleet.Gpusim.Config.n_devices) in
  let total = ref 0.0 in
  let rec go ~mult (s : Host_ir.stmt) =
    match s with
    | Host_ir.Launch { kernel; grid; block; args } ->
      let blocks = grid.Dim3.x * grid.Dim3.y * grid.Dim3.z in
      let per_dev = (blocks + n - 1) / n in
      let scalar_env =
        Mekong.Plan.launch_bindings kernel ~grid ~block ~args
      in
      let t =
        Gpusim.Config.kernel_seconds fleet ~active:n ~speed:1.0 ~blocks:per_dev
          ~ops_per_block:(Costmodel.ops_per_block kernel ~scalar_env ~block)
      in
      total := !total +. (mult *. (t +. fleet.Gpusim.Config.launch_latency))
    | Host_ir.Memcpy_h2d { src = a; _ } | Host_ir.Memcpy_d2h { dst = a; _ } ->
      total :=
        !total
        +. mult
           *. ((float_of_int (a.Host_ir.len * fleet.Gpusim.Config.elem_bytes)
                /. fleet.Gpusim.Config.pcie_bandwidth)
               +. fleet.Gpusim.Config.transfer_latency)
    | Host_ir.Repeat (k, body) ->
      List.iter (go ~mult:(mult *. float_of_int k)) body
    | _ -> ()
  in
  List.iter (go ~mult:1.0) spec.Job.prog.Host_ir.body;
  !total

let run (cfg : config) (specs : Job.spec list) : report =
  let fleet_n = cfg.fleet.Gpusim.Config.n_devices in
  (* Duplicate names would make per-job reporting (and the bench's
     bit-identity bookkeeping) ambiguous. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (s : Job.spec) ->
       if Hashtbl.mem seen s.Job.name then
         invalid_arg ("Scheduler.run: duplicate job name " ^ s.Job.name);
       Hashtbl.add seen s.Job.name ())
    specs;
  (* Every dispatch of this run (first attempts, retries, resumes)
     compiles into one kernel store, so a launch shape compiles once
     per run; nothing carries over to the next run. *)
  let kernels = Kcompile.kernels () in
  let dead = Array.make fleet_n false in
  let freedev = Array.make fleet_n true in
  let live_count () =
    Array.fold_left (fun acc d -> if d then acc else acc + 1) 0 dead
  in
  let free_list () =
    let acc = ref [] in
    for d = fleet_n - 1 downto 0 do
      if freedev.(d) && not dead.(d) then acc := d :: !acc
    done;
    !acc
  in
  let devices_lost = ref 0 in
  let pending : jstate list ref = ref [] in
  let peak_queue = ref 0 in
  let segments = ref [] in
  let queue_log = ref [] in
  let makespan = ref 0.0 in
  let events : (float * int * ev) list ref = ref [] in
  let eseq = ref 0 in
  let push t ev =
    incr eseq;
    let entry = (t, !eseq, ev) in
    let rec ins = function
      | [] -> [ entry ]
      | ((t', _, _) as hd) :: tl -> if t < t' then entry :: hd :: tl else hd :: ins tl
    in
    events := ins !events
  in
  let qlog now kind (j : jstate) =
    makespan := Float.max !makespan now;
    queue_log := (now, kind, j.js_spec.Job.name) :: !queue_log
  in
  let finish now kind (j : jstate) outcome =
    assert (j.js_outcome = None);
    j.js_outcome <- Some outcome;
    qlog now kind j
  in
  let reject now j reason =
    finish now "reject" j (Job.Rejected { at = now; reason })
  in
  let time_out now j =
    finish now "timeout" j (Job.Timed_out { at = now; started = j.js_started })
  in
  let expired now (j : jstate) =
    match j.js_spec.Job.deadline with
    | Some d -> now >= j.js_spec.Job.arrival +. d
    | None -> false
  in
  let min_lease (j : jstate) =
    let cap = cfg.fleet.Gpusim.Config.mem_capacity in
    if cap = max_int then 1
    else
      let bytes =
        footprint_elems j.js_spec.Job.prog
        * cfg.fleet.Gpusim.Config.elem_bytes
      in
      max 1 ((bytes + cap - 1) / cap)
  in
  let enqueue (j : jstate) =
    (* Deadline-aware admission order.  Within a priority band, jobs
       carrying a deadline come first, ordered by latest feasible start
       (arrival + deadline - predicted runtime): earliest-deadline-
       first weighted by each job's own predicted length, so a short-
       deadline job is not pinned behind a long job that merely
       arrived earlier.  With no deadlines pending the key collapses
       to the original (priority, arrival, seq) FIFO exactly. *)
    let key (x : jstate) =
      let deadline = x.js_spec.Job.deadline in
      let cls = if deadline = None then 1 else 0 in
      let urgency =
        match deadline with
        | Some d -> x.js_spec.Job.arrival +. d -. x.js_predicted
        | None -> x.js_spec.Job.arrival
      in
      (-x.js_spec.Job.priority, cls, urgency, x.js_seq)
    in
    pending :=
      List.merge (fun a b -> compare (key a) (key b)) !pending [ j ];
    peak_queue := max !peak_queue (List.length !pending)
  in
  let dispatch now (j : jstate) (lease : int list) =
    List.iter (fun d -> freedev.(d) <- false) lease;
    j.js_attempts <- j.js_attempts + 1;
    if j.js_started = None then j.js_started <- Some now;
    let exe = Option.get j.js_exe in
    let sub_cfg =
      Gpusim.Config.lease cfg.fleet ~n_devices:(List.length lease)
    in
    let m = Gpusim.Machine.create ~functional:true sub_cfg in
    (* Fleet-wide scheduled losses that will hit this lease, in lease-
       local device ids and machine-local time.  Injecting them makes
       the sub-machine physically honest: data on a dying device is
       only recoverable through the engine's own replica/checkpoint
       machinery, never by reading the corpse. *)
    let slot_of d =
      let rec go i = function
        | [] -> None
        | d' :: tl -> if d' = d then Some i else go (i + 1) tl
      in
      go 0 lease
    in
    let local_losses =
      List.filter_map
        (fun (d, t) ->
           if t > now && not dead.(d) then
             match slot_of d with
             | Some li -> Some (li, t -. now)
             | None -> None
           else None)
        cfg.losses
    in
    let spec_faults =
      Option.value ~default:Gpusim.Faults.null_spec j.js_spec.Job.faults
    in
    let merged =
      {
        spec_faults with
        Gpusim.Faults.scheduled_losses =
          spec_faults.Gpusim.Faults.scheduled_losses @ local_losses;
      }
    in
    if not (Gpusim.Faults.is_null merged) then
      Gpusim.Machine.inject_faults m (Gpusim.Faults.create merged);
    let deadline_left =
      Option.map
        (fun d -> j.js_spec.Job.arrival +. d -. now)
        j.js_spec.Job.deadline
    in
    let earliest_loss =
      List.fold_left
        (fun acc (_, t) ->
           match acc with
           | None -> Some t
           | Some a -> Some (Float.min a t))
        None local_losses
    in
    let abort_at, abort_kind =
      match (deadline_left, earliest_loss) with
      | None, None -> (None, `Deadline)
      | Some d, None -> (Some d, `Deadline)
      | None, Some l -> (Some l, `Loss)
      | Some d, Some l -> if l <= d then (Some l, `Loss) else (Some d, `Deadline)
    in
    let fate =
      try
        match
          Mekong.Multi_gpu.run_bounded
            ~checkpoint_every ?abort_at
            ?resume:j.js_handoff ~kernels ~machine:m exe
        with
        | Mekong.Multi_gpu.Done _ -> Fate_done
        | Mekong.Multi_gpu.Preempted (_, h) -> Fate_preempt (h, abort_kind)
      with
      | Mekong.Multi_gpu.All_devices_lost ->
        Fate_fail "every leased device lost"
      | Failure msg -> Fate_fail msg
    in
    let duration = Gpusim.Machine.elapsed m in
    j.js_engine_time <- j.js_engine_time +. duration;
    let stop = now +. duration in
    makespan := Float.max !makespan stop;
    segments :=
      {
        sg_job = j.js_spec.Job.name;
        sg_tenant = j.js_spec.Job.tenant;
        sg_devices = lease;
        sg_start = now;
        sg_stop = stop;
        sg_outcome =
          (match fate with
           | Fate_done -> `Done
           | Fate_preempt (_, `Loss) -> `Preempted
           | Fate_preempt (_, `Deadline) -> `Timed_out
           | Fate_fail _ -> `Failed);
      }
      :: !segments;
    push stop (Release { job = j; lease; fate })
  in
  let take n l =
    let rec go n = function
      | _ when n = 0 -> []
      | [] -> []
      | x :: tl -> x :: go (n - 1) tl
    in
    go n l
  in
  let try_dispatch now =
    let keep = ref [] in
    List.iter
      (fun (j : jstate) ->
         if live_count () = 0 then reject now j Job.Fleet_lost
         else if expired now j then time_out now j
         else begin
           let mink = min_lease j in
           let live = live_count () in
           if mink > live then
             reject now j
               (Job.Infeasible
                  (Printf.sprintf
                     "footprint needs a %d-device lease but only %d \
                      device%s alive"
                     mink live
                     (if live = 1 then " is" else "s are")))
           else begin
             let want = max mink (min j.js_spec.Job.devices live) in
             let free = free_list () in
             if List.length free >= want then
               dispatch now j (take want free)
             else keep := j :: !keep
           end
         end)
      !pending;
    pending := List.rev !keep
  in
  let arrive now (j : jstate) =
    qlog now "arrive" j;
    if live_count () = 0 then reject now j Job.Fleet_lost
    else if List.length !pending >= cfg.max_queue then
      reject now j (Job.Queue_full cfg.max_queue)
    else begin
      (match j.js_exe with
       | Some _ -> ()
       | None -> (
           match Mekong.Toolchain.compile j.js_spec.Job.prog with
           | Ok art -> j.js_exe <- Some art.Mekong.Toolchain.exe
           | Error e ->
             reject now j
               (Job.Compile_error (Mekong.Toolchain.error_message e))));
      if j.js_outcome = None then begin
        enqueue j;
        try_dispatch now
      end
    end
  in
  let release now (j : jstate) lease fate =
    List.iter (fun d -> if not dead.(d) then freedev.(d) <- true) lease;
    (match fate with
     | Fate_done ->
       let started = Option.get j.js_started in
       j.js_handoff <- None;
       finish now "complete" j
         (Job.Completed
            {
              started;
              finished = now;
              queue_latency = started -. j.js_spec.Job.arrival;
              turnaround = now -. j.js_spec.Job.arrival;
              engine_time = j.js_engine_time;
              attempts = j.js_attempts;
              preemptions = j.js_preemptions;
              retries = j.js_retries;
            })
     | Fate_preempt (h, `Loss) ->
       j.js_handoff <- Some h;
       j.js_preemptions <- j.js_preemptions + 1;
       push now (Requeue j)
     | Fate_preempt (_, `Deadline) -> time_out now j
     | Fate_fail msg ->
       j.js_strikes <- j.js_strikes + 1;
       if j.js_strikes >= max_strikes then
         finish now "quarantine" j
           (Job.Quarantined
              { at = now; strikes = j.js_strikes; last_error = msg })
       else begin
         j.js_retries <- j.js_retries + 1;
         let delay =
           Float.min retry_cap
             (retry_base *. (2.0 ** float_of_int (j.js_strikes - 1)))
         in
         push (now +. delay) (Requeue j)
       end);
    try_dispatch now
  in
  let lose now d =
    if not dead.(d) then begin
      dead.(d) <- true;
      freedev.(d) <- false;
      incr devices_lost;
      if live_count () = 0 then begin
        List.iter (fun j -> reject now j Job.Fleet_lost) !pending;
        pending := []
      end
      else try_dispatch now
    end
  in
  let requeue now (j : jstate) =
    if live_count () = 0 then reject now j Job.Fleet_lost
    else begin
      qlog now "requeue" j;
      enqueue j;
      try_dispatch now
    end
  in
  let jobs =
    List.mapi
      (fun i (s : Job.spec) ->
         {
           js_spec = s;
           js_seq = i;
           js_predicted = predicted_runtime cfg.fleet s;
           js_exe = s.Job.exe;
           js_handoff = None;
           js_strikes = 0;
           js_attempts = 0;
           js_preemptions = 0;
           js_retries = 0;
           js_started = None;
           js_engine_time = 0.0;
           js_outcome = None;
         })
      specs
  in
  List.iter (fun j -> push j.js_spec.Job.arrival (Arrive j)) jobs;
  List.iter (fun (d, t) -> push t (Lose d)) cfg.losses;
  let rec loop () =
    match !events with
    | [] -> ()
    | (t, _, ev) :: rest ->
      events := rest;
      (match ev with
       | Arrive j -> arrive t j
       | Release { job; lease; fate } -> release t job lease fate
       | Lose d -> lose t d
       | Requeue j -> requeue t j);
      loop ()
  in
  loop ();
  let r_jobs =
    List.map
      (fun (j : jstate) ->
         match j.js_outcome with
         | Some outcome ->
           {
             Job.r_name = j.js_spec.Job.name;
             r_tenant = j.js_spec.Job.tenant;
             r_priority = j.js_spec.Job.priority;
             r_arrival = j.js_spec.Job.arrival;
             r_outcome = outcome;
           }
         | None ->
           (* Cannot happen: the queue always drains (a pending job
              either dispatches once enough leases free up, or is
              rejected/timed out), and we only return once the event
              list is empty. *)
           failwith
             ("Scheduler.run: job without terminal outcome: "
              ^ j.js_spec.Job.name))
      jobs
  in
  let segments = List.rev !segments in
  let busy =
    List.fold_left
      (fun acc s ->
         acc
         +. ((s.sg_stop -. s.sg_start) *. float_of_int (List.length s.sg_devices)))
      0.0 segments
  in
  let live_capacity =
    let total = ref 0.0 in
    for d = 0 to fleet_n - 1 do
      let death =
        match List.assoc_opt d cfg.losses with
        | Some t -> Float.min t !makespan
        | None -> !makespan
      in
      total := !total +. death
    done;
    !total
  in
  {
    r_fleet = fleet_n;
    r_jobs;
    r_segments = segments;
    r_queue_log = List.rev !queue_log;
    r_losses = cfg.losses;
    r_makespan = !makespan;
    r_utilization = (if live_capacity > 0.0 then busy /. live_capacity else 0.0);
    r_devices_lost = !devices_lost;
    r_peak_queue = !peak_queue;
  }

let device_seconds_by_tenant (r : report) =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let secs =
         (s.sg_stop -. s.sg_start) *. float_of_int (List.length s.sg_devices)
       in
       let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.sg_tenant) in
       Hashtbl.replace tbl s.sg_tenant (prev +. secs))
    r.r_segments;
  Hashtbl.fold (fun t s acc -> (t, s) :: acc) tbl []
  |> List.sort compare

let tenants (r : report) =
  Slo.collect ~jobs:r.r_jobs ~device_seconds:(device_seconds_by_tenant r)

(* Post-hoc causal DAG of one run, built from the lease segments: one
   queue node per dispatched job covering [arrival, first dispatch]
   (category "queue_wait"), then one "run" node per lease segment on
   its devices, chained job-locally so a requeue gap (preemption,
   retry backoff) shows up as a "requeue_wait" stall.  Nodes are added
   in (finish, job, order) order — a topological order, since a job
   occupies one lease at a time and its queue node ends exactly when
   its first segment starts — so the analysis and what-if machinery
   from Obs.Causal applies unchanged to scheduler runs. *)
let causal_dag (r : report) : Obs.Causal.dag =
  let b = Obs.Causal.builder () in
  let segs_of : (string, segment list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun s ->
       let prev = Option.value ~default:[] (Hashtbl.find_opt segs_of s.sg_job) in
       Hashtbl.replace segs_of s.sg_job (s :: prev))
    r.r_segments;
  (* (time, job, job-local rank) items; rank 0 is the queue node. *)
  let items = ref [] in
  List.iter
    (fun (j : Job.report) ->
       match Hashtbl.find_opt segs_of j.Job.r_name with
       | None -> () (* never dispatched: nothing ran, nothing to blame *)
       | Some rev_segs ->
         let segs = List.rev rev_segs in
         let first = List.hd segs in
         items :=
           ((first.sg_start, j.Job.r_name, 0), `Queue (j, first.sg_start))
           :: !items;
         List.iteri
           (fun i s ->
              items := ((s.sg_stop, j.Job.r_name, i + 1), `Run s) :: !items)
           segs)
    r.r_jobs;
  let items = List.sort (fun (ka, _) (kb, _) -> compare ka kb) !items in
  let last : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (_, item) ->
       match item with
       | `Queue ((j : Job.report), first_start) ->
         let id =
           Obs.Causal.add b
             ~label:(j.Job.r_name ^ ".queue")
             ~category:"queue_wait" ~phase:j.Job.r_tenant
             ~resources:[ "job:" ^ j.Job.r_name ]
             ~ready:j.Job.r_arrival ~start:j.Job.r_arrival ~finish:first_start
             ~fixed:0.0 ~legs:[] ~deps:[] ~wait:""
         in
         Hashtbl.replace last j.Job.r_name (id, first_start)
       | `Run s ->
         let deps, ready =
           match Hashtbl.find_opt last s.sg_job with
           | Some (id, fin) -> ([ id ], fin)
           | None -> ([], s.sg_start)
         in
         let id =
           Obs.Causal.add b ~label:s.sg_job ~category:"run" ~phase:s.sg_tenant
             ~resources:
               (("job:" ^ s.sg_job)
                :: List.map (Printf.sprintf "dev%d") s.sg_devices)
             ~ready ~start:s.sg_start ~finish:s.sg_stop ~fixed:0.0 ~legs:[]
             ~deps ~wait:"requeue_wait"
         in
         Hashtbl.replace last s.sg_job (id, s.sg_stop))
    items;
  Obs.Causal.dag b

let count_outcomes (r : report) =
  List.fold_left
    (fun (c, rj, t, q) (j : Job.report) ->
       match j.Job.r_outcome with
       | Job.Completed _ -> (c + 1, rj, t, q)
       | Job.Rejected _ -> (c, rj + 1, t, q)
       | Job.Timed_out _ -> (c, rj, t + 1, q)
       | Job.Quarantined _ -> (c, rj, t, q + 1))
    (0, 0, 0, 0) r.r_jobs

let report_to_json (r : report) : Obs.Json.t =
  let open Obs.Json in
  let completed, rejected, timed_out, quarantined = count_outcomes r in
  Obj
    [ ("fleet", Int r.r_fleet);
      ("submitted", Int (List.length r.r_jobs));
      ("completed", Int completed);
      ("rejected", Int rejected);
      ("timed_out", Int timed_out);
      ("quarantined", Int quarantined);
      ("devices_lost", Int r.r_devices_lost);
      ("peak_queue", Int r.r_peak_queue);
      ("makespan_seconds", Float r.r_makespan);
      ("utilization", Float r.r_utilization);
      ("losses",
       List
         (List.map
            (fun (d, t) -> Obj [ ("device", Int d); ("at", Float t) ])
            r.r_losses));
      ("tenants", Slo.to_json (tenants r));
      ("jobs", List (List.map Job.report_to_json r.r_jobs)) ]

let publish_metrics ?(into = Obs.Metrics.default) (r : report) =
  let set ?labels n v = Obs.Metrics.set into ?labels n v in
  let seti ?labels n v = set ?labels n (float_of_int v) in
  let completed, rejected, timed_out, quarantined = count_outcomes r in
  seti "serve.jobs.submitted" (List.length r.r_jobs);
  seti "serve.jobs.completed" completed;
  seti "serve.jobs.rejected" rejected;
  seti "serve.jobs.timed_out" timed_out;
  seti "serve.jobs.quarantined" quarantined;
  seti "serve.devices_lost" r.r_devices_lost;
  seti "serve.peak_queue" r.r_peak_queue;
  set "serve.makespan_seconds" r.r_makespan;
  set "serve.utilization" r.r_utilization;
  List.iter
    (fun (t : Slo.tenant) ->
       let labels = [ ("tenant", t.Slo.t_name) ] in
       seti ~labels "serve.tenant.submitted" t.Slo.t_submitted;
       seti ~labels "serve.tenant.completed" t.Slo.t_completed;
       seti ~labels "serve.tenant.rejected" t.Slo.t_rejected;
       seti ~labels "serve.tenant.timed_out" t.Slo.t_timed_out;
       seti ~labels "serve.tenant.quarantined" t.Slo.t_quarantined;
       seti ~labels "serve.tenant.retries" t.Slo.t_retries;
       seti ~labels "serve.tenant.preemptions" t.Slo.t_preemptions;
       set ~labels "serve.tenant.queue_p50_seconds" t.Slo.t_queue_p50;
       set ~labels "serve.tenant.queue_p99_seconds" t.Slo.t_queue_p99;
       set ~labels "serve.tenant.turnaround_p50_seconds" t.Slo.t_turnaround_p50;
       set ~labels "serve.tenant.turnaround_p99_seconds" t.Slo.t_turnaround_p99;
       set ~labels "serve.tenant.device_seconds" t.Slo.t_device_seconds;
       set ~labels "serve.tenant.burn.queue_seconds" t.Slo.t_burn_queue;
       set ~labels "serve.tenant.burn.run_seconds" t.Slo.t_burn_run;
       set ~labels "serve.tenant.burn.stall_seconds" t.Slo.t_burn_stall)
    (tenants r)

let pp fmt (r : report) =
  let completed, rejected, timed_out, quarantined = count_outcomes r in
  Format.fprintf fmt
    "fleet %d (%d lost) | jobs %d: %d completed, %d rejected, %d timed out, \
     %d quarantined | makespan %.3gs | utilization %.0f%% | peak queue %d@\n"
    r.r_fleet r.r_devices_lost (List.length r.r_jobs) completed rejected
    timed_out quarantined r.r_makespan
    (100.0 *. r.r_utilization)
    r.r_peak_queue;
  Slo.pp fmt (tenants r)
