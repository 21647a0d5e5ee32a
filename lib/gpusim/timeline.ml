(* A timeline models one in-order execution engine (a device stream or
   the host thread) in the discrete-event simulation.  Operations are
   appended with an issue time; the engine starts each operation no
   earlier than its previous completion and the issue time.  Busy time
   is accumulated per user-supplied category for reporting.

   Every clock lives unboxed in a float array: the engine's [clock]
   cell (ready time, last start, last finish) and one busy slot per
   category.  Updating a float field of an ordinary record boxes a
   fresh float per write, and the simulator schedules millions of
   operations per run.  For the same reason scheduling returns
   nothing; a caller that needs the operation's start or finish reads
   the clock cell.

   A timeline keeps no per-operation record: the machine pushes each
   traced op onto its one event ring, which the Chrome trace renders
   lane by lane. *)

type t = {
  name : string;
  clock : float array;
      (* [| ready; last start; last finish |]: ready is the completion
         time of the latest-finishing scheduled op *)
  mutable busy : float array; (* busy seconds per category slot *)
  mutable names : string array; (* the category of each slot *)
  slots : (string, int) Hashtbl.t;
      (* category -> busy slot; a category is added on its first
         charge and never moved, so the table never reorders and
         [total_busy] always sums in the same order *)
  mutable last_slot : int;
      (* the most recently charged slot (-1 when none): an engine
         charges runs of one category, and the host alternates between
         a few, so a charge checks this slot, then scans [names], and
         hashes only a category it has never seen *)
}

let create name =
  { name; clock = Array.make 3 0.0; busy = Array.make 4 0.0;
    names = Array.make 4 ""; slots = Hashtbl.create 8; last_slot = -1 }

let name t = t.name
let clock t = t.clock
let ready t = t.clock.(0)

let reset t =
  Array.fill t.clock 0 3 0.0;
  Array.fill t.busy 0 (Array.length t.busy) 0.0;
  Array.fill t.names 0 (Array.length t.names) "";
  Hashtbl.reset t.slots;
  t.last_slot <- -1

let[@inline] is_slot t s category =
  let name = t.names.(s) in
  name == category || String.equal name category

let add_slot t category =
  let s = Hashtbl.length t.slots in
  if s = Array.length t.busy then begin
    let busy = Array.make (2 * s) 0.0 and names = Array.make (2 * s) "" in
    Array.blit t.busy 0 busy 0 s;
    Array.blit t.names 0 names 0 s;
    t.busy <- busy;
    t.names <- names
  end;
  t.names.(s) <- category;
  Hashtbl.add t.slots category s;
  s

let rec find_slot t category s =
  if s = Hashtbl.length t.slots then add_slot t category
  else if is_slot t s category then s
  else find_slot t category (s + 1)

let[@inline] charge t category duration =
  let s = t.last_slot in
  let s =
    if s >= 0 && is_slot t s category then s else find_slot t category 0
  in
  t.last_slot <- s;
  t.busy.(s) <- t.busy.(s) +. duration

(* Schedule an operation of the given duration that cannot start before
   [after]. *)
let[@inline] schedule_after t after duration category =
  if duration < 0.0 then invalid_arg "Timeline.schedule: negative duration";
  let start = Float.max t.clock.(0) after in
  let finish = start +. duration in
  t.clock.(0) <- finish;
  t.clock.(1) <- start;
  t.clock.(2) <- finish;
  charge t category duration

let schedule t ~after ~duration ~category = schedule_after t after duration category
let schedule_in t a ~category = schedule_after t a.(0) a.(1) category

(* Record an operation at exactly [start], without clamping against
   the engine's ready time: for contention lanes whose admission is
   computed externally (time-based backfill), where a later-recorded
   operation may legitimately start before an earlier reservation
   ends.  The ready time still covers the operation's finish, so
   [elapsed]-style maxima stay correct. *)
let[@inline] schedule_start t start duration category =
  if duration < 0.0 then invalid_arg "Timeline.schedule_at: negative duration";
  let finish = start +. duration in
  if finish > t.clock.(0) then t.clock.(0) <- finish;
  t.clock.(1) <- start;
  t.clock.(2) <- finish;
  charge t category duration

let schedule_at t ~start ~duration ~category = schedule_start t start duration category
let schedule_at_in t a ~category = schedule_start t a.(0) a.(1) category

(* Force the engine to be idle until at least [time] (a synchronization
   barrier). *)
let wait_until t time = if time > t.clock.(0) then t.clock.(0) <- time

let busy_in t category =
  match Hashtbl.find t.slots category with
  | s -> t.busy.(s)
  | exception Not_found -> 0.0

let total_busy t = Hashtbl.fold (fun _ s acc -> acc +. t.busy.(s)) t.slots 0.0

(* Sorted, so reports and JSON artifacts do not depend on hash-table
   iteration order (which varies across OCaml versions and hash
   seeds). *)
let categories t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.slots [])

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

let pp fmt t =
  Format.fprintf fmt "%s: ready=%.6fs busy=%.6fs" t.name (ready t) (total_busy t)
