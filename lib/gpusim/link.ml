(* One contention lane of the fabric (the flat bus, an island link or
   an island uplink).  The timeline carries the busy accounting; the
   reservation window is the admission index.  The machine traces each
   admitted leg itself.

   Links arbitrate by TIME, not by issue order: a transfer whose
   dependencies resolve early may start before a later-starting
   reservation that happened to be issued first (backfill).  Without
   that, an asynchronous pipeline that eagerly issues a download
   chained behind a still-running kernel would park a far-future
   reservation on the bus and serialize every transfer issued after
   it.

   Reservations are disjoint [start, stop) intervals, with touching
   intervals coalesced on insert.  Coalescing is exact: every
   occupancy is positive, so a transfer admitted at a zero-width gap
   between two touching reservations would overlap the second one; the
   union is all admission ever looks at.  Back-to-back traffic — the
   common case on a saturated bus — therefore stays one interval.

   They live sorted in two unboxed float arrays, live over the window
   [lo, hi).  Reservations wholly before the host clock can never
   constrain a future admission (a transfer's start is at least its
   host issue time, and the host clock is monotone), so the drained
   prefix is dropped as the clock passes it, by advancing [lo].
   Admission binary-searches the window; insertion merges with a
   touching neighbour or shifts the tail by one slot.  Nothing here
   allocates except when the arrays grow. *)

type t = {
  tl : Timeline.t;
  span : float array; (* a leg's (start, occupancy) for its timeline *)
  mutable starts : float array;
  mutable stops : float array; (* stops.(i) ends starts.(i) *)
  mutable lo : int; (* first live reservation *)
  mutable hi : int; (* one past the last *)
}

let create name =
  { tl = Timeline.create name; span = Array.make 2 0.0; starts = Array.make 8 0.0;
    stops = Array.make 8 0.0; lo = 0; hi = 0 }

let timeline l = l.tl

let reservations l =
  List.init (l.hi - l.lo) (fun i -> (l.starts.(l.lo + i), l.stops.(l.lo + i)))

let live l = l.hi - l.lo

(* The live reservations' starts, then their stops, into [dst] from
   [off]. *)
let save_window l dst off =
  let n = live l in
  Array.blit l.starts l.lo dst off n;
  Array.blit l.stops l.lo dst (off + n) n

(* Move every live reservation later by [a.(0)]. *)
let shift_in l a =
  let d = a.(0) in
  for i = l.lo to l.hi - 1 do
    l.starts.(i) <- l.starts.(i) +. d;
    l.stops.(i) <- l.stops.(i) +. d
  done

(* Drop every reservation that ended at or before [now].  Reservations
   are disjoint, so ordered by start they are ordered by stop too and
   the drained ones form a prefix. *)
let[@inline] prune l ~now =
  while l.lo < l.hi && l.stops.(l.lo) <= now do
    l.lo <- l.lo + 1
  done;
  if l.lo = l.hi then begin
    l.lo <- 0;
    l.hi <- 0
  end

(* The first live index whose reservation starts after [x]. *)
let[@inline] first_after l x =
  let lo = ref l.lo and hi = ref l.hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if l.starts.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Earliest time >= [from] at which the link is continuously free for
   [dur] seconds.  Reservations starting before the last one that
   starts at or before [from] also end before it, so the walk begins
   there instead of at the head. *)
let[@inline] earliest_free l ~from ~dur =
  let i = ref (max l.lo (first_after l from - 1)) in
  let t = ref from in
  while !i < l.hi do
    let s = l.starts.(!i) and e = l.stops.(!i) in
    if e <= !t then incr i
    else if s >= !t +. dur then i := l.hi
    else begin
      t := Float.max !t e;
      incr i
    end
  done;
  !t

(* Room for one more reservation at the end of the window: slide the
   window back to 0 when it is at most half full, else double. *)
let make_room l =
  let live = l.hi - l.lo and cap = Array.length l.starts in
  if 2 * live <= cap then begin
    Array.blit l.starts l.lo l.starts 0 live;
    Array.blit l.stops l.lo l.stops 0 live
  end
  else begin
    let grow a =
      let b = Array.make (2 * cap) 0.0 in
      Array.blit a l.lo b 0 live;
      b
    in
    l.starts <- grow l.starts;
    l.stops <- grow l.stops
  end;
  l.lo <- 0;
  l.hi <- live

(* Record [start, stop), merging with a reservation that ends exactly
   at [start] and one that starts exactly at [stop].  The caller
   guarantees the interval overlaps nothing (admission found it
   free). *)
let[@inline] insert l ~start ~stop =
  let p = first_after l start in
  let joins_prev = p > l.lo && l.stops.(p - 1) = start in
  let joins_next = p < l.hi && l.starts.(p) = stop in
  if joins_prev && joins_next then begin
    l.stops.(p - 1) <- l.stops.(p);
    Array.blit l.starts (p + 1) l.starts p (l.hi - p - 1);
    Array.blit l.stops (p + 1) l.stops p (l.hi - p - 1);
    l.hi <- l.hi - 1
  end
  else if joins_prev then l.stops.(p - 1) <- stop
  else if joins_next then l.starts.(p) <- start
  else begin
    if l.hi = Array.length l.starts then make_room l;
    let p = first_after l start in
    Array.blit l.starts p l.starts (p + 1) (l.hi - p);
    Array.blit l.stops p l.stops (p + 1) (l.hi - p);
    l.starts.(p) <- start;
    l.stops.(p) <- stop;
    l.hi <- l.hi + 1
  end

(* The earliest time >= [start] at which every leg of a route is
   simultaneously free for its occupancy, then reserved on each leg:
   iterate every leg's earliest fit to a fixpoint.  [now] is the
   transfer's host issue time, a lower bound on every future
   admission.  Both arrive in [a] and the admitted time leaves in it:
   under [-opaque] a float argument or result would be boxed. *)
let admit_in a legs occupancy =
  let n = Array.length legs in
  if n > 0 then begin
    let now = a.(0) and start = a.(1) in
    for i = 0 to n - 1 do
      if not (occupancy.(i) > 0.0) then
        invalid_arg "Link.admit_in: occupancy must be positive";
      prune legs.(i) ~now
    done;
    (* A leg's earliest fit is a fixpoint of its own, so one pass
       settles a single-leg route. *)
    let t = ref start and settled = ref false in
    while not !settled do
      let acc = ref !t in
      for i = 0 to n - 1 do
        acc :=
          Float.max !acc (earliest_free legs.(i) ~from:!acc ~dur:occupancy.(i))
      done;
      settled := n = 1 || not (!acc > !t);
      t := !acc
    done;
    let s = !t in
    for i = 0 to n - 1 do
      let l = legs.(i) in
      insert l ~start:s ~stop:(s +. occupancy.(i));
      l.span.(0) <- s;
      l.span.(1) <- occupancy.(i);
      Timeline.schedule_at_in l.tl l.span ~category:"bus"
    done;
    a.(1) <- s
  end
