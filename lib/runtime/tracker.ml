(* The segment tracker (paper §8.1).

   For each virtual buffer the tracker records, as a sorted list of
   non-overlapping half-open segments, which device instance holds the
   most recently written copy of every element.  The list lives in a
   B-tree map keyed by segment start.  Shared copies are not
   representable (one owner per segment), which is exactly the paper's
   stated limitation: applications with widely shared read data pay
   redundant transfers.

   Owners are small integers: a device id, or {!host} for data whose
   freshest copy is in host memory.

   A tracker made by [create_indexed] also keeps every segment with a
   positive owner in a second B-tree keyed by (owner, start), packed
   into one int, so {!coldest} finds the smallest positive owner in one
   descent.  The vbuf residency trackers of a capacity-limited machine
   use it: their owners are LRU stamps and eviction wants the oldest.

   Both trees store their entries unboxed ([Btree]); lookups leave the
   segment they found in the map's cursor, which [found_start],
   [found_stop] and [found_owner] read, so lookups, walks and writes
   allocate nothing but the node a B-tree split makes.

   Every tracker carries a version, drawn from one process-wide clock
   when it is created and again at every write that changes the
   segments.  Versions are never reused, so one version names one
   state of one tracker: a caller that saw a version can tell, in one
   comparison, that the segments have not changed since (the engine's
   launch graphs key on this, through [Vbuf.versions]).  Writes that
   leave the map alone keep the version. *)

module B = Btree

let host = -1

type segment = { start : int; stop : int; owner : int }

type t = {
  len : int; (* extent of the tracked index space *)
  map : B.t; (* segment start -> stop, owner *)
  index : B.t option; (* [index_key]s of the positive-owner segments *)
  mutable ops : int; (* B-tree operations performed, for cost accounting *)
  mutable version : int; (* changes with every write that changes [map] *)
  mutable found_start : int; (* the segment [seek] or [coldest] found *)
  mutable found_stop : int; (* -1 after [coldest], until read *)
  mutable found_owner : int;
}

let clock = Atomic.make 0
let next_version () = Atomic.fetch_and_add clock 1 + 1

(* Index keys: owner in the high bits, start in the low
   [index_start_bits], so key order is (owner, start) order. *)
let index_start_bits = 32
let max_indexed_len = 1 lsl index_start_bits
let max_indexed_owner = max_int lsr index_start_bits

let index_key owner start = (owner lsl index_start_bits) lor start

let check_indexed_owner owner =
  if owner < 0 || owner > max_indexed_owner then
    invalid_arg
      (Printf.sprintf "Tracker: owner %d outside an indexed tracker's [0, %d]"
         owner max_indexed_owner)

(* The index holds the segments with a positive owner only: {!coldest}
   never looks below owner 1, and the zero-owner gaps of a residency
   tracker are half of its segments.  It keys on (owner, start) alone,
   so a segment whose stop changes keeps its index entry; these two
   run wherever a segment appears or goes, or its owner changes. *)
let index_add t owner start =
  match t.index with
  | Some ix when owner > 0 -> B.add ix (index_key owner start) ~stop:0 ~owner:0
  | _ -> ()

let index_remove t owner start =
  match t.index with
  | Some ix when owner > 0 -> B.remove ix (index_key owner start)
  | _ -> ()

(* Remove the segment starting at [k], which exists. *)
let drop t k =
  ignore (B.remove_first t.map ~lo:k ~hi:(k + 1));
  index_remove t t.map.B.owner k

let make ~indexed ~len ~initial_owner =
  if len <= 0 then invalid_arg "Tracker.create: empty index space";
  let t =
    {
      len;
      map = B.create ();
      index = (if indexed then Some (B.create ()) else None);
      ops = 1;
      version = next_version ();
      found_start = 0;
      found_stop = len;
      found_owner = initial_owner;
    }
  in
  B.add t.map 0 ~stop:len ~owner:initial_owner;
  index_add t initial_owner 0;
  t

let create ~len ~initial_owner = make ~indexed:false ~len ~initial_owner

let create_indexed ~len ~initial_owner =
  if len > max_indexed_len then
    invalid_arg
      (Printf.sprintf
         "Tracker.create_indexed: %d elements exceed an indexed tracker's %d"
         len max_indexed_len);
  check_indexed_owner initial_owner;
  make ~indexed:true ~len ~initial_owner

let len t = t.len
let segment_count t = t.map.B.size

let ops t = t.ops
let reset_ops t = t.ops <- 0
let version t = t.version

let bump t n = t.ops <- t.ops + n

let check_range t ~start ~stop ~what =
  if start < 0 || stop > t.len || start >= stop then
    invalid_arg
      (Printf.sprintf "Tracker.%s: bad range [%d,%d) in space of %d" what start
         stop t.len)

(* The segments cover the whole space, so the one holding an index
   inside it is the floor entry. *)
let seek t idx =
  if idx < 0 || idx >= t.len then
    invalid_arg
      (Printf.sprintf "Tracker.seek: index %d outside space of %d" idx t.len);
  bump t 1;
  let m = t.map in
  ignore (B.floor m idx);
  t.found_start <- m.B.key;
  t.found_stop <- m.B.stop;
  t.found_owner <- m.B.owner

let found_start t = t.found_start
let found_owner t = t.found_owner

(* [coldest] reads start and owner off its index key; the stop waits
   for a reader, which the eviction loop is for one vbuf only. *)
let found_stop t =
  if t.found_stop < 0 then begin
    ignore (B.floor t.map t.found_start);
    t.found_stop <- t.map.B.stop
  end;
  t.found_stop

let segment_at t idx =
  seek t idx;
  { start = found_start t; stop = found_stop t; owner = found_owner t }

let owner_at t idx =
  seek t idx;
  found_owner t

(* Walk the segments overlapping [start, stop), clipped to it, in
   order: one op for the descent plus one per entry visited, the entry
   that ends the walk included. *)
let iter_range t ~start ~stop f =
  check_range t ~start ~stop ~what:"iter_range";
  bump t (1 + B.walk t.map ~start ~stop f)

let query t ~start ~stop =
  let out = ref [] in
  iter_range t ~start ~stop (fun start stop owner ->
      out := { start; stop; owner } :: !out);
  List.rev !out

(* Record that [owner] has written [start, stop): existing segments are
   split/absorbed and the new segment is merged with equal-owner
   neighbors.

   The ops charged are those of the textbook sequence: split at
   [start] and at [stop] (3 ops for a split, 1 for a boundary already
   there), walk and remove the segments inside (one op per entry
   visited, the one that ends the walk included, and one per removal),
   probe both neighbours for a merge and insert (5).  The map itself
   takes the fewest changes that reach the same segments: the entries
   starting strictly inside the range go, the end segments' outer parts
   and a merged neighbour are rewritten in place, and at most one entry
   is added at each end.

   Most writes in a steady-state loop land inside a segment their
   writer already owns, where that sequence would split the segment,
   remove the middle and merge all three pieces back: the map ends as
   it began.  Such a write leaves the map alone and charges the same
   ops. *)
let write t ~start ~stop ~owner =
  check_range t ~start ~stop ~what:"write";
  (match t.index with Some _ -> check_indexed_owner owner | None -> ());
  let m = t.map in
  ignore (B.floor m start);
  let s0 = m.B.key and e0 = m.B.stop and o0 = m.B.owner in
  let split_left = if s0 < start then 3 else 1 in
  if o0 = owner && stop <= e0 then
    bump t
      (split_left + (if stop < e0 then 3 else 1) + 5 + if stop < t.len then 1 else 0)
  else begin
    t.version <- next_version ();
    (* The last segment overlapping the range: its stop and owner. *)
    if stop > e0 then ignore (B.floor m (stop - 1));
    let el = m.B.stop and ol = m.B.owner in
    (* Merge probes: the segment starting at [stop] and the one ending
       at [start], when the range ends on a boundary. *)
    let right = stop = el && stop < t.len && B.floor m stop && m.B.owner = owner in
    let ne = if right then m.B.stop else if stop < el && ol = owner then el else stop in
    let left = s0 = start && start > 0 && B.floor m (start - 1) && m.B.owner = owner in
    let ns = if left then m.B.key else if s0 < start && o0 = owner then s0 else start in
    (* The entries starting inside (start, stop) go; only a range
       reaching past [s0] holds any. *)
    let inside = ref 1 in
    if stop > e0 then
      while B.remove_first m ~lo:(start + 1) ~hi:stop do
        incr inside;
        index_remove t m.B.owner m.B.key
      done;
    bump t
      (split_left + (if stop < el then 3 else 1) + (2 * !inside)
       + (if stop < t.len then 1 else 0) + 3);
    (* The right end: merge the next segment, or split [el]'s owner
       off past [stop]. *)
    if right then drop t stop
    else if stop < el && ol <> owner then begin
      B.add m stop ~stop:el ~owner:ol;
      index_add t ol stop
    end;
    (* The left end: [s0]'s outer part keeps its owner, or the entry at
       [start] goes into the left neighbour or changes owner. *)
    if s0 < start && o0 <> owner then B.add m s0 ~stop:start ~owner:o0;
    if s0 = start && ns < start then drop t start
    else if s0 = start && o0 <> owner then index_remove t o0 start;
    B.add m ns ~stop:ne ~owner;
    if ns = start && not (s0 = start && o0 = owner) then index_add t owner start
  end

(* The index's first entry at or above owner 1 is the smallest positive
   owner's lowest segment. *)
let coldest t ~below =
  match t.index with
  | None -> invalid_arg "Tracker.coldest: tracker has no index"
  | Some ix ->
    B.ceil ix (index_key 1 0)
    && ix.B.key lsr index_start_bits < below
    && begin
      t.found_start <- ix.B.key land (max_indexed_len - 1);
      t.found_stop <- -1;
      t.found_owner <- ix.B.key lsr index_start_bits;
      true
    end

(* The segments a given owner holds, in order — for owner = a device
   id, exactly the ranges whose only fresh copy that device has (one
   owner per segment, so ownership here means exclusive ownership).
   This is the recovery metadata: everything device [d] owns when it
   dies must be re-synced from elsewhere or recomputed.  One op per
   segment. *)
let owned_by t ~owner:o =
  let out = ref [] in
  bump t
    (B.walk t.map ~start:0 ~stop:t.len (fun start stop owner ->
         if owner = o then out := { start; stop; owner } :: !out));
  List.rev !out

(* Elements a given owner holds (sum of its segment lengths). *)
let owned_count t ~owner =
  List.fold_left (fun acc s -> acc + (s.stop - s.start)) 0 (owned_by t ~owner)

(* All segments, in order. *)
let segments t =
  let out = ref [] in
  ignore
    (B.walk t.map ~start:0 ~stop:t.len (fun start stop owner ->
         out := { start; stop; owner } :: !out));
  List.rev !out

(* Verify the tracker invariants: full coverage, no overlap, sorted,
   maximal merging, and an index of exactly the positive-owner
   segments.  Raises [Failure] on violation. *)
let check_invariants t =
  ignore (B.validate t.map);
  let segs = segments t in
  (match t.index with
   | None -> ()
   | Some ix ->
     ignore (B.validate ix);
     let keys = ref [] in
     ignore (B.walk ix ~start:min_int ~stop:max_int (fun k _ _ -> keys := k :: !keys));
     let want =
       List.filter_map
         (fun seg -> if seg.owner > 0 then Some (index_key seg.owner seg.start) else None)
         segs
     in
     if List.rev !keys <> List.sort compare want then
       failwith "Tracker: index differs from the positive-owner segments");
  let rec go pos = function
    | [] -> if pos <> t.len then failwith "Tracker: space not fully covered"
    | { start; stop; owner = _ } :: rest ->
      if start <> pos then failwith "Tracker: gap or overlap";
      if stop <= start then failwith "Tracker: empty segment";
      go stop rest
  in
  let rec merged = function
    | a :: (b :: _ as rest) ->
      if a.stop = b.start && a.owner = b.owner then
        failwith "Tracker: unmerged neighbors";
      merged rest
    | _ -> ()
  in
  go 0 segs;
  merged segs
