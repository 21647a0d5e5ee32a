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

   A tracker made by [create_indexed] also keeps every segment in a
   second B-tree keyed by (owner, start), packed into one int, so
   {!coldest} finds the smallest positive owner in one descent.  The
   vbuf residency trackers of a capacity-limited machine use it: their
   owners are LRU stamps and eviction wants the oldest.  The index is
   updated at the same add/remove sites as the segment map, so the two
   cannot drift.

   Every tracker carries a version, drawn from one process-wide clock
   when it is created and again at every add/remove.  Versions are
   never reused, so one version names one state of one tracker: a
   caller that saw a version can tell, in one comparison, that the
   segments have not changed since ([Vbuf]'s sync memo keys on
   this).  Writes that leave the map alone keep the version. *)

module M = Btree.Int_map

let host = -1

type segment = { start : int; stop : int; owner : int }

type t = {
  len : int; (* extent of the tracked index space *)
  map : segment M.tree; (* keyed by segment start *)
  index : segment M.tree option;
      (* the same segments keyed by [index_key], when indexed *)
  mutable ops : int; (* B-tree operations performed, for cost accounting *)
  mutable version : int; (* changes with every add/remove; see above *)
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

(* Every change to the segment map goes through these two, which keep
   the index in step.  [add] may replace the entry at [seg.start]; the
   replaced segment always has [seg]'s owner, so its index key is
   [seg]'s too and is replaced with it. *)
let add t seg =
  t.version <- next_version ();
  M.add t.map seg.start seg;
  match t.index with
  | None -> ()
  | Some ix -> M.add ix (index_key seg.owner seg.start) seg

let remove t seg =
  t.version <- next_version ();
  M.remove t.map seg.start;
  match t.index with
  | None -> ()
  | Some ix -> M.remove ix (index_key seg.owner seg.start)

let make ~indexed ~len ~initial_owner =
  if len <= 0 then invalid_arg "Tracker.create: empty index space";
  let t =
    {
      len;
      map = M.create ();
      index = (if indexed then Some (M.create ()) else None);
      ops = 1;
      version = next_version ();
    }
  in
  add t { start = 0; stop = len; owner = initial_owner };
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
let segment_count t = M.size t.map

let ops t = t.ops
let reset_ops t = t.ops <- 0
let version t = t.version

let bump t n = t.ops <- t.ops + n
let add_ops = bump

let check_range t ~start ~stop ~what =
  if start < 0 || stop > t.len || start >= stop then
    invalid_arg
      (Printf.sprintf "Tracker.%s: bad range [%d,%d) in space of %d" what start
         stop t.len)

(* No segment: what [holding] finds left of index 0. *)
let absent = { start = -1; stop = -1; owner = min_int }

(* The stored segment holding [idx] ([absent] for a negative index).
   The segments cover the whole space, so for an index inside it this
   is the floor entry. *)
let holding t idx = M.floor_value t.map idx ~default:absent

let segment_at t idx =
  if idx < 0 || idx >= t.len then
    invalid_arg
      (Printf.sprintf "Tracker.segment_at: index %d outside space of %d" idx
         t.len);
  bump t 1;
  holding t idx

(* Walk the segments overlapping [start, stop), clipped to it, in
   order: one op for the descent plus one per entry visited, the entry
   that ends the walk included.  Every element of the range is covered
   (the tracker always covers the whole index space).  [f] must not
   write the tracker. *)
let iter_range t ~start ~stop f =
  check_range t ~start ~stop ~what:"iter_range";
  bump t 1;
  M.iter_from t.map (holding t start).start (fun s seg ->
      bump t 1;
      if s >= stop then false
      else begin
        if seg.stop > start then f (max s start) (min seg.stop stop) seg.owner;
        true
      end)

let query t ~start ~stop =
  check_range t ~start ~stop ~what:"query";
  let out = ref [] in
  iter_range t ~start ~stop (fun start stop owner ->
      out := { start; stop; owner } :: !out);
  List.rev !out

(* Owner of a single element. *)
let owner_at t idx =
  match query t ~start:idx ~stop:(idx + 1) with
  | [ s ] -> s.owner
  | _ -> invalid_arg "Tracker.owner_at: uncovered index"

(* Record that [owner] has written [start, stop): existing segments are
   split/absorbed and the new segment is merged with equal-owner
   neighbors.

   Most writes in a steady-state loop land inside a segment their
   writer already owns, where that sequence would split the segment,
   remove the middle and merge all three pieces back: the map ends as
   it began.  Such a write leaves the map alone and charges exactly
   the ops the sequence would have: a split (3) or a miss (1) at each
   end, the removal walk's first entry, the removal, both merge probes
   and the insert (5), and the walk's terminating entry when one
   follows the range. *)
let write t ~start ~stop ~owner =
  check_range t ~start ~stop ~what:"write";
  (match t.index with Some _ -> check_indexed_owner owner | None -> ());
  let seg = holding t start in
  if seg.owner = owner && stop <= seg.stop then
    bump t
      ((if seg.start < start then 3 else 1)
       + (if stop < seg.stop then 3 else 1)
       + 5
       + if stop < t.len then 1 else 0)
  else begin
    (* Split a segment straddling [at]. *)
    let split at =
      let seg = holding t at in
      if seg.start < at && at < seg.stop then begin
        bump t 3;
        add t { seg with stop = at };
        add t { seg with start = at }
      end
      else bump t 1
    in
    split start;
    split stop;
    (* Remove all segments fully inside [start, stop). *)
    let doomed = ref [] in
    M.iter_from t.map start (fun s seg ->
        bump t 1;
        if s < stop then begin
          doomed := seg :: !doomed;
          true
        end
        else false);
    List.iter
      (fun seg ->
         bump t 1;
         remove t seg)
      !doomed;
    (* Insert, then merge with equal-owner neighbors. *)
    let seg_start =
      let left = holding t (start - 1) in
      bump t 1;
      if left.stop = start && left.owner = owner then begin
        remove t left;
        left.start
      end
      else start
    in
    let seg_stop =
      let right = holding t stop in
      bump t 1;
      if right.start = stop && right.owner = owner then begin
        remove t right;
        right.stop
      end
      else stop
    in
    bump t 1;
    add t { start = seg_start; stop = seg_stop; owner }
  end

(* The index's first entry at or above owner 1 is the smallest positive
   owner's lowest segment. *)
let coldest t ~below =
  match t.index with
  | None -> invalid_arg "Tracker.coldest: tracker has no index"
  | Some ix ->
    let seg = M.ceil_value ix (index_key 1 0) ~default:absent in
    if seg.owner >= 1 && seg.owner < below then Some seg else None

(* The segments a given owner holds, in order — for owner = a device
   id, exactly the ranges whose only fresh copy that device has (one
   owner per segment, so ownership here means exclusive ownership).
   This is the recovery metadata: everything device [d] owns when it
   dies must be re-synced from elsewhere or recomputed. *)
let owned_by t ~owner =
  let out = ref [] in
  M.iter t.map (fun _ seg ->
      bump t 1;
      if seg.owner = owner then out := seg :: !out);
  List.rev !out

(* Elements a given owner holds (sum of its segment lengths). *)
let owned_count t ~owner =
  List.fold_left (fun acc s -> acc + (s.stop - s.start)) 0 (owned_by t ~owner)

(* All segments, in order. *)
let segments t =
  let out = ref [] in
  M.iter t.map (fun _ seg -> out := seg :: !out);
  List.rev !out

(* Verify the tracker invariants: full coverage, no overlap, sorted,
   maximal merging.  Raises [Failure] on violation. *)
let check_invariants t =
  ignore (M.validate t.map);
  let segs = segments t in
  (match t.index with
   | None -> ()
   | Some ix ->
     ignore (M.validate ix);
     if M.size ix <> M.size t.map then
       failwith "Tracker: index and segment map differ in size";
     List.iter
       (fun seg ->
          if M.find_opt ix (index_key seg.owner seg.start) <> Some seg then
            failwith "Tracker: segment missing from the index")
       segs);
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

let pp fmt t =
  Format.fprintf fmt "[%s]"
    (String.concat "; "
       (List.map
          (fun s -> Printf.sprintf "[%d,%d)->%d" s.start s.stop s.owner)
          (segments t)))
