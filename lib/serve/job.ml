(* Jobs of the serving layer.  A job is a host program plus serving
   metadata; every submitted job ends in exactly one typed outcome. *)

type spec = {
  name : string;
  tenant : string;
  prog : Host_ir.t;
  exe : Mekong.Multi_gpu.exe option;
  priority : int;
  arrival : float;
  deadline : float option;
  devices : int;
  faults : Gpusim.Faults.spec option;
}

let make ?exe ?(priority = 0) ?(arrival = 0.0) ?deadline ?(devices = 1)
    ?faults ~name ~tenant prog =
  if not (arrival >= 0.0) then
    invalid_arg
      (Printf.sprintf "Job.make %s: arrival must be non-negative (got %g)"
         name arrival);
  (match deadline with
   | Some d when not (d > 0.0) ->
     invalid_arg
       (Printf.sprintf "Job.make %s: deadline must be positive (got %g)" name d)
   | _ -> ());
  if devices < 1 then
    invalid_arg
      (Printf.sprintf "Job.make %s: devices must be positive (got %d)" name
         devices);
  { name; tenant; prog; exe; priority; arrival; deadline; devices; faults }

type reject_reason =
  | Queue_full of int
  | Infeasible of string
  | Compile_error of string
  | Fleet_lost

let reject_reason_to_string = function
  | Queue_full limit -> Printf.sprintf "queue full (limit %d)" limit
  | Infeasible why -> "infeasible: " ^ why
  | Compile_error why -> "compile error: " ^ why
  | Fleet_lost -> "fleet lost"

type outcome =
  | Completed of {
      started : float;
      finished : float;
      queue_latency : float;
      turnaround : float;
      engine_time : float;
      attempts : int;
      preemptions : int;
      retries : int;
    }
  | Rejected of { at : float; reason : reject_reason }
  | Timed_out of { at : float; started : float option }
  | Quarantined of { at : float; strikes : int; last_error : string }

let outcome_name = function
  | Completed _ -> "completed"
  | Rejected _ -> "rejected"
  | Timed_out _ -> "timed_out"
  | Quarantined _ -> "quarantined"

type report = {
  r_name : string;
  r_tenant : string;
  r_priority : int;
  r_arrival : float;
  r_outcome : outcome;
}

let report_to_json (r : report) : Obs.Json.t =
  let open Obs.Json in
  let outcome_fields =
    match r.r_outcome with
    | Completed c ->
      [ ("started", Float c.started);
        ("finished", Float c.finished);
        ("queue_latency", Float c.queue_latency);
        ("turnaround", Float c.turnaround);
        ("engine_time", Float c.engine_time);
        ("attempts", Int c.attempts);
        ("preemptions", Int c.preemptions);
        ("retries", Int c.retries) ]
    | Rejected { at; reason } ->
      [ ("at", Float at); ("reason", Str (reject_reason_to_string reason)) ]
    | Timed_out { at; started } ->
      [ ("at", Float at);
        ("started",
         match started with Some s -> Float s | None -> Null) ]
    | Quarantined { at; strikes; last_error } ->
      [ ("at", Float at);
        ("strikes", Int strikes);
        ("last_error", Str last_error) ]
  in
  Obj
    ([ ("job", Str r.r_name);
       ("tenant", Str r.r_tenant);
       ("priority", Int r.r_priority);
       ("arrival", Float r.r_arrival);
       ("outcome", Str (outcome_name r.r_outcome)) ]
     @ outcome_fields)
