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

(* A charge tape: (slot, seconds) charges in order, unboxed in chunks
   of at most [chunk] entries.  Chunks that small are allocated in the
   minor heap and die young once the tape stops, where one long array
   would be allocated in the major heap and raise its high-water
   mark. *)
type tape = {
  mutable on : bool;
  mutable fill : int; (* entries in the current chunk *)
  mutable c_slots : int array; (* the current chunk *)
  mutable c_amounts : float array;
  mutable full : (int array * float array) list; (* full chunks, newest first *)
}

let chunk = 128

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
  tape : tape; (* its charges, while that records *)
}

let new_tape () = { on = false; fill = 0; c_slots = [||]; c_amounts = [||]; full = [] }

let create name =
  { name; clock = Array.make 3 0.0; busy = Array.make 4 0.0;
    names = Array.make 4 ""; slots = Hashtbl.create 8; last_slot = -1;
    tape = new_tape () }

let name t = t.name
let clock t = t.clock
let ready t = t.clock.(0)

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

(* A fresh current chunk, twice the last one's size up to [chunk]. *)
let next_chunk tp =
  let n = Array.length tp.c_slots in
  if n > 0 then tp.full <- (tp.c_slots, tp.c_amounts) :: tp.full;
  let size = min chunk (max 8 (2 * n)) in
  tp.c_slots <- Array.make size 0;
  tp.c_amounts <- Array.make size 0.0;
  tp.fill <- 0

let[@inline] push tp s x =
  if tp.on then begin
    if tp.fill = Array.length tp.c_slots then next_chunk tp;
    tp.c_slots.(tp.fill) <- s;
    tp.c_amounts.(tp.fill) <- x;
    tp.fill <- tp.fill + 1
  end

let[@inline] charge t category duration =
  let s = t.last_slot in
  let s =
    if s >= 0 && is_slot t s category then s else find_slot t category 0
  in
  t.last_slot <- s;
  t.busy.(s) <- t.busy.(s) +. duration;
  push t.tape s duration

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
  if duration < 0.0 then invalid_arg "Timeline.schedule_at_in: negative duration";
  let finish = start +. duration in
  if finish > t.clock.(0) then t.clock.(0) <- finish;
  t.clock.(1) <- start;
  t.clock.(2) <- finish;
  charge t category duration

let schedule_at_in t a ~category = schedule_start t a.(0) a.(1) category

(* --- Charge tapes ---------------------------------------------------------

   A tape records the charges of a stretch of scheduling, so that they
   can be added again later without scheduling anything: the same adds,
   in the same order, per slot.  Slots are independent accumulators, so
   replaying each slot's sequence on its own gives the sums the
   interleaved charges would. *)

let timeline_tape t = t.tape

let start_tape tp =
  tp.on <- true;
  tp.fill <- 0;
  tp.c_slots <- [||];
  tp.c_amounts <- [||];
  tp.full <- []

let push_in tp s a = push tp s a.(0)

(* Stop recording and drop the chunks; per slot, in slot order, the
   amounts charged to it in charge order. *)
let stop_tape tp =
  tp.on <- false;
  if tp.fill = 0 then []
  else begin
    let chunks = List.rev ((Array.sub tp.c_slots 0 tp.fill, tp.c_amounts) :: tp.full) in
    tp.c_slots <- [||];
    tp.c_amounts <- [||];
    tp.full <- [];
    let width =
      List.fold_left
        (fun w (slots, _) -> Array.fold_left (fun w s -> max w (s + 1)) w slots)
        0 chunks
    in
    let counts = Array.make width 0 in
    List.iter (fun (slots, _) -> Array.iter (fun s -> counts.(s) <- counts.(s) + 1) slots) chunks;
    let groups = Array.map (fun n -> Array.make n 0.0) counts in
    Array.fill counts 0 width 0;
    List.iter
      (fun (slots, amounts) ->
         for i = 0 to Array.length slots - 1 do
           let s = slots.(i) in
           groups.(s).(counts.(s)) <- amounts.(i);
           counts.(s) <- counts.(s) + 1
         done)
      chunks;
    List.filter
      (fun (_, a) -> Array.length a > 0)
      (List.mapi (fun s a -> (s, a)) (Array.to_list groups))
  end

(* Add [amounts], in order, [times] times over, to [acc.(s)]. *)
let repeat_adds acc s amounts ~times =
  let x = ref acc.(s) in
  for _ = 1 to times do
    for i = 0 to Array.length amounts - 1 do
      x := !x +. amounts.(i)
    done
  done;
  acc.(s) <- !x

let recharge t s amounts ~times = repeat_adds t.busy s amounts ~times

(* Move every clock cell by [a.(0)]. *)
let shift_in t a =
  let d = a.(0) in
  for i = 0 to 2 do
    t.clock.(i) <- t.clock.(i) +. d
  done

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
