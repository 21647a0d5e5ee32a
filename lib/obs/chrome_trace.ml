(* Chrome trace-event JSON (the format Perfetto and chrome://tracing
   load): a {"traceEvents": [...]} document of complete ("X"), instant
   ("i") and metadata ("M") events.  Processes and threads are plain
   integer ids named through metadata events; the exporters map
   simulated devices to processes and execution engines to threads.

   Timestamps and durations are in microseconds, as the format
   requires.  [validate] is the bundled checker: it re-parses an
   exported document and enforces the structural invariants the
   exporters promise (field presence and types, non-negative
   durations, per-lane monotone timestamps, flow edges paired and
   never pointing backwards in time, critical-path lanes tiling
   contiguously). *)

type event =
  | Complete of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float; (* microseconds *)
      dur : float; (* microseconds *)
      args : (string * Json.t) list;
    }
  | Instant of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;
      args : (string * Json.t) list;
    }
  | Flow_start of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;
      id : int; (* pairs a start with its finish *)
    }
  | Flow_finish of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;
      id : int;
    }
  | Process_name of { pid : int; name : string }
  | Thread_name of { pid : int; tid : int; name : string }

let args_json = function [] -> [] | args -> [ ("args", Json.Obj args) ]

let event_json = function
  | Complete e ->
    Json.Obj
      ([
        ("name", Json.Str e.name);
        ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
        ("ph", Json.Str "X");
        ("pid", Json.Int e.pid);
        ("tid", Json.Int e.tid);
        ("ts", Json.Float e.ts);
        ("dur", Json.Float e.dur);
      ]
       @ args_json e.args)
  | Instant e ->
    Json.Obj
      ([
        ("name", Json.Str e.name);
        ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
        ("ph", Json.Str "i");
        ("s", Json.Str "t");
        ("pid", Json.Int e.pid);
        ("tid", Json.Int e.tid);
        ("ts", Json.Float e.ts);
      ]
       @ args_json e.args)
  | Flow_start e ->
    Json.Obj
      [
        ("name", Json.Str e.name);
        ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
        ("ph", Json.Str "s");
        ("id", Json.Int e.id);
        ("pid", Json.Int e.pid);
        ("tid", Json.Int e.tid);
        ("ts", Json.Float e.ts);
      ]
  | Flow_finish e ->
    Json.Obj
      [
        ("name", Json.Str e.name);
        ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
        ("ph", Json.Str "f");
        (* bind the arrow to the enclosing slice's start *)
        ("bp", Json.Str "e");
        ("id", Json.Int e.id);
        ("pid", Json.Int e.pid);
        ("tid", Json.Int e.tid);
        ("ts", Json.Float e.ts);
      ]
  | Process_name e ->
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int e.pid);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.Str e.name) ]);
      ]
  | Thread_name e ->
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int e.pid);
        ("tid", Json.Int e.tid);
        ("args", Json.Obj [ ("name", Json.Str e.name) ]);
      ]

let to_json events =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write ~file events = Json.write ~file (to_json events)

(* --- Validation -------------------------------------------------------- *)

let validate_events events =
  (* Last timestamp seen per (pid, tid) lane, for the monotonicity
     check over timing events. *)
  let last_ts : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  (* Flow bookkeeping: each id must open ("s") exactly once before its
     single finish ("f"), and the edge must not point backwards in
     time. *)
  let flow_start : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let flow_done : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Lanes named "critical path" promise contiguous tiling: each
     complete event starts where the previous one ended. *)
  let lane_names : (int * int, string) Hashtbl.t = Hashtbl.create 16 in
  let lane_end : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let check_event i ev =
    let field k =
      match Json.member k ev with
      | Some v -> Ok v
      | None -> err "event %d: missing field %S" i k
    in
    let int_field k =
      match field k with
      | Error _ as e -> e
      | Ok (Json.Int v) -> Ok v
      | Ok _ -> err "event %d: field %S is not an integer" i k
    in
    let num_field k =
      match field k with
      | Error _ as e -> e
      | Ok v -> (
          match Json.to_number v with
          | Some f -> Ok f
          | None -> err "event %d: field %S is not a number" i k)
    in
    let str_field k =
      match field k with
      | Error _ as e -> e
      | Ok (Json.Str s) -> Ok s
      | Ok _ -> err "event %d: field %S is not a string" i k
    in
    let ( let* ) = Result.bind in
    let* name = str_field "name" in
    let* ph = str_field "ph" in
    let* pid = int_field "pid" in
    let* tid = int_field "tid" in
    match ph with
    | "M" ->
      (if name = "thread_name" then
         match Json.member "args" ev with
         | Some args -> (
             match Json.member "name" args with
             | Some (Json.Str n) -> Hashtbl.replace lane_names (pid, tid) n
             | _ -> ())
         | None -> ());
      Ok ()
    | "X" | "i" ->
      let* ts = num_field "ts" in
      if not (Float.is_finite ts) then err "event %d: non-finite ts" i
      else
        let* dur =
          if ph = "X" then num_field "dur" else Ok 0.0
        in
        if not (Float.is_finite dur) then err "event %d: non-finite dur" i
        else if dur < 0.0 then err "event %d: negative dur %g" i dur
        else begin
          let lane = (pid, tid) in
          match Hashtbl.find_opt last_ts lane with
          | Some prev when ts < prev ->
            err
              "event %d: lane (pid=%d, tid=%d) timestamp %g before %g \
               (not monotone)"
              i pid tid ts prev
          | _ ->
            Hashtbl.replace last_ts lane ts;
            if ph = "X" && Hashtbl.find_opt lane_names lane = Some "critical path"
            then begin
              let tol = 1e-6 +. (1e-9 *. Float.abs ts) in
              match Hashtbl.find_opt lane_end lane with
              | Some stop when Float.abs (ts -. stop) > tol ->
                err
                  "event %d: critical-path lane (pid=%d, tid=%d) has a gap: \
                   segment starts at %g but the previous ended at %g"
                  i pid tid ts stop
              | _ ->
                Hashtbl.replace lane_end lane (ts +. dur);
                Ok ()
            end
            else Ok ()
        end
    | "s" | "f" ->
      let* ts = num_field "ts" in
      let* id = int_field "id" in
      if not (Float.is_finite ts) then err "event %d: non-finite ts" i
      else if ph = "s" then
        if Hashtbl.mem flow_start id then
          err "event %d: flow %d started twice" i id
        else begin
          Hashtbl.replace flow_start id ts;
          Ok ()
        end
      else begin
        match Hashtbl.find_opt flow_start id with
        | None -> err "event %d: flow %d finishes before it starts" i id
        | Some _ when Hashtbl.mem flow_done id ->
          err "event %d: flow %d finished twice" i id
        | Some start when ts < start ->
          err
            "event %d: flow %d points backwards in time (%g before its \
             start %g)"
            i id ts start
        | Some _ ->
          Hashtbl.replace flow_done id ();
          Ok ()
      end
    | ph -> err "event %d: unknown phase %S" i ph
  in
  let rec go i = function
    | [] ->
      Hashtbl.fold
        (fun id _ acc ->
           match acc with
           | Error _ -> acc
           | Ok () ->
             if Hashtbl.mem flow_done id then Ok ()
             else err "flow %d never finishes (dangling edge)" id)
        flow_start (Ok ())
    | ev :: rest -> (
        match check_event i ev with
        | Error _ as e -> e
        | Ok () -> go (i + 1) rest)
  in
  go 0 events

let validate json =
  match json with
  | Json.Obj _ -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) -> validate_events events
      | Some _ -> Error "\"traceEvents\" is not an array"
      | None -> Error "missing \"traceEvents\" array")
  | Json.List events ->
    (* The bare-array form is also legal Chrome trace JSON. *)
    validate_events events
  | _ -> Error "trace must be an object or an array"

let validate_string s =
  match Json.parse s with
  | Error m -> Error ("not valid JSON: " ^ m)
  | Ok j -> validate j

let validate_file ~file =
  let ic = open_in_bin file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  validate_string s

(* Distinct (pid, tid) lanes that carry timing events, for tests. *)
let lanes json =
  let events =
    match json with
    | Json.Obj _ -> (
        match Json.member "traceEvents" json with
        | Some (Json.List e) -> e
        | _ -> [])
    | Json.List e -> e
    | _ -> []
  in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ev ->
       match (Json.member "ph" ev, Json.member "pid" ev, Json.member "tid" ev) with
       | Some (Json.Str ("X" | "i")), Some (Json.Int pid), Some (Json.Int tid)
         -> Hashtbl.replace tbl (pid, tid) ()
       | _ -> ())
    events;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort compare
