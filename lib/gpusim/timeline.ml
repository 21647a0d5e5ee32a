(* A timeline models one in-order execution engine (a device stream or
   the host thread) in the discrete-event simulation.  Operations are
   appended with an issue time; the engine starts each operation no
   earlier than its previous completion and the issue time, and the
   completion time is returned.  Busy time is accumulated per
   user-supplied category for reporting.

   With logging enabled the timeline additionally keeps its individual
   operations in a bounded ring buffer — that log is what the Chrome
   trace exporter renders as this engine's lane. *)

type op = { op_start : float; op_finish : float; op_category : string }

type t = {
  name : string;
  mutable ready : float; (* completion time of the last scheduled op *)
  busy : (string, float ref) Hashtbl.t;
      (* busy seconds per category; a cell is added on a category's
         first charge and then updated in place, so the table never
         reorders and [total_busy] always sums in the same order *)
  mutable last_cat : string; (* category of [last_cell] *)
  mutable last_cell : float ref;
      (* the most recently charged category's cell ([detached] when
         none): an engine charges runs of one category, and this skips
         hashing it *)
  mutable ops : op Obs.Ring.t option; (* per-op log when enabled *)
}

(* Never charged: it only marks "no cached category". *)
let detached = ref 0.0

let create name =
  { name; ready = 0.0; busy = Hashtbl.create 8; last_cat = "";
    last_cell = detached; ops = None }

let name t = t.name
let ready t = t.ready

let reset t =
  t.ready <- 0.0;
  Hashtbl.reset t.busy;
  t.last_cell <- detached;
  match t.ops with None -> () | Some r -> Obs.Ring.clear r

let charge t category duration =
  if t.last_cell == detached || not (String.equal category t.last_cat)
  then begin
    let cell =
      match Hashtbl.find_opt t.busy category with
      | Some c -> c
      | None ->
        let c = ref 0.0 in
        Hashtbl.add t.busy category c;
        c
    in
    t.last_cat <- category;
    t.last_cell <- cell
  end;
  t.last_cell := !(t.last_cell) +. duration

(* Schedule an operation of the given duration that cannot start before
   [after].  Returns (start, finish). *)
let schedule t ~after ~duration ~category =
  if duration < 0.0 then invalid_arg "Timeline.schedule: negative duration";
  let start = Float.max t.ready after in
  let finish = start +. duration in
  t.ready <- finish;
  charge t category duration;
  (match t.ops with
   | None -> ()
   | Some r ->
     Obs.Ring.push r { op_start = start; op_finish = finish; op_category = category });
  (start, finish)

(* Record an operation at exactly [start], without clamping against
   the engine's ready time: for contention lanes whose admission is
   computed externally (time-based backfill), where a later-recorded
   operation may legitimately start before an earlier reservation
   ends.  The ready time still covers the operation's finish, so
   [elapsed]-style maxima stay correct. *)
let schedule_at t ~start ~duration ~category =
  if duration < 0.0 then invalid_arg "Timeline.schedule_at: negative duration";
  let finish = start +. duration in
  if finish > t.ready then t.ready <- finish;
  charge t category duration;
  (match t.ops with
   | None -> ()
   | Some r ->
     Obs.Ring.push r { op_start = start; op_finish = finish; op_category = category });
  (start, finish)

(* Force the engine to be idle until at least [time] (a synchronization
   barrier). *)
let wait_until t time = if time > t.ready then t.ready <- time

let busy_in t category =
  match Hashtbl.find_opt t.busy category with Some c -> !c | None -> 0.0

let total_busy t = Hashtbl.fold (fun _ c acc -> acc +. !c) t.busy 0.0

(* Sorted, so reports and JSON artifacts do not depend on hash-table
   iteration order (which varies across OCaml versions and hash
   seeds). *)
let categories t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.busy [])

(* Idle time within a span of [span] seconds: the span minus every
   busy second, clamped at zero (an engine can be scheduled past the
   span's end by in-flight work).  An empty, zero-length or undefined
   (NaN) window has no idle time — [Float.max] would propagate the NaN
   straight into reports otherwise. *)
let idle_in t ~span =
  if not (span > 0.0) then 0.0 else Float.max 0.0 (span -. total_busy t)

(* Busy fraction of a span, clamped to [0, 1]; 0 on an empty,
   zero-length or NaN window (the division would yield NaN/inf). *)
let utilization t ~span =
  if not (span > 0.0) then 0.0 else Float.min 1.0 (total_busy t /. span)

(* --- Per-operation log ------------------------------------------------- *)

let enable_log ?(capacity = 65536) t =
  match t.ops with
  | Some r when Obs.Ring.capacity r = capacity -> ()
  | _ -> t.ops <- Some (Obs.Ring.create ~capacity)

let log t = match t.ops with None -> [] | Some r -> Obs.Ring.to_list r
let log_dropped t = match t.ops with None -> 0 | Some r -> Obs.Ring.dropped r

let pp fmt t =
  Format.fprintf fmt "%s: ready=%.6fs busy=%.6fs" t.name t.ready (total_busy t)
