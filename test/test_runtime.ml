(* Tests for the runtime library: B-tree map (model-checked against
   Stdlib.Map), segment tracker (model-checked against a flat owner
   array) and virtual buffers on the simulated machine. *)

open Gpu_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module B = Btree
module IM = Map.Make (Int)

(* ---------------- B-tree ---------------- *)

(* The cursor after a lookup, or [None] when it found nothing. *)
let cursor tr found = if found then Some (tr.B.key, tr.B.stop, tr.B.owner) else None

let entries tr =
  let out = ref [] in
  ignore (B.walk tr ~start:min_int ~stop:max_int (fun k s o -> out := (k, s, o) :: !out));
  List.rev !out

let test_btree_basic () =
  let t = B.create () in
  checki "empty" 0 t.B.size;
  B.add t 5 ~stop:50 ~owner:1;
  B.add t 1 ~stop:10 ~owner:2;
  B.add t 9 ~stop:90 ~owner:3;
  checki "size" 3 t.B.size;
  let opt = Alcotest.(option (triple int int int)) in
  Alcotest.check opt "floor 5" (Some (5, 50, 1)) (cursor t (B.floor t 5));
  Alcotest.check opt "floor 7" (Some (5, 50, 1)) (cursor t (B.floor t 7));
  Alcotest.check opt "floor 0" None (cursor t (B.floor t 0));
  Alcotest.check opt "ceil 6" (Some (9, 90, 3)) (cursor t (B.ceil t 6));
  Alcotest.check opt "ceil 10" None (cursor t (B.ceil t 10));
  B.add t 5 ~stop:55 ~owner:4;
  checki "size after replace" 3 t.B.size;
  Alcotest.check opt "replaced" (Some (5, 55, 4)) (cursor t (B.floor t 5));
  Alcotest.check opt "remove_first [2, 9)" (Some (5, 55, 4))
    (cursor t (B.remove_first t ~lo:2 ~hi:9));
  checkb "nothing left in [2, 9)" false (B.remove_first t ~lo:2 ~hi:9);
  checki "size after remove" 2 t.B.size;
  Alcotest.(check (list (triple int int int))) "entries" [ (1, 10, 2); (9, 90, 3) ] (entries t);
  ignore (B.validate t)

let test_btree_bulk () =
  (* Enough keys to force several levels of splits, then of merges. *)
  let t = B.create () in
  let n = 2000 in
  for i = 0 to n - 1 do
    let k = (i * 7919) mod n in
    B.add t k ~stop:(k + 1) ~owner:(k mod 7)
  done;
  checkb "three levels" true (B.validate t >= 3);
  checki "all distinct" n t.B.size;
  checkb "sorted" true
    (entries t = List.init n (fun k -> (k, k + 1, k mod 7)));
  (* Delete every third key, validating along the way. *)
  for i = 0 to n - 1 do
    if i mod 3 = 0 then B.remove t i;
    if i mod 97 = 0 then ignore (B.validate t)
  done;
  ignore (B.validate t);
  checki "size after deletes" (n - ((n + 2) / 3)) t.B.size;
  for i = 0 to n - 1 do
    checkb (Printf.sprintf "key %d" i) (i mod 3 <> 0) (B.floor t i && t.B.key = i)
  done;
  for i = 0 to n - 1 do B.remove t i done;
  checki "emptied" 0 t.B.size;
  checki "back to one leaf" 1 (B.validate t)

let test_btree_iter_from () =
  let t = B.create () in
  List.iter (fun k -> B.add t k ~stop:(k + 2) ~owner:(k * 10)) [ 2; 4; 6; 8; 10; 12 ];
  let walk start stop =
    let seen = ref [] in
    let n = B.walk t ~start ~stop (fun s e o -> seen := (s, e, o) :: !seen) in
    (n, List.rev !seen)
  in
  let check = Alcotest.(check (pair int (list (triple int int int)))) in
  (* From the floor of 5, clipped to [5, 10); the entry at 10 ends it. *)
  check "walk [5, 10)" (4, [ (5, 6, 40); (6, 8, 60); (8, 10, 80) ]) (walk 5 10);
  check "walk past the end"
    (6, [ (2, 4, 20); (4, 6, 40); (6, 8, 60); (8, 10, 80); (10, 12, 100); (12, 14, 120) ])
    (walk 0 max_int);
  (* A walk nested in another's callback leaves the outer count alone. *)
  let inner = ref 0 in
  checki "nested walk" 4
    (B.walk t ~start:5 ~stop:10 (fun _ _ _ ->
         inner := !inner + B.walk t ~start:2 ~stop:3 (fun _ _ _ -> ())));
  checki "inner walks" 6 !inner

(* Model-based test: random interleavings of add/remove/floor/ceil and
   range removal against Stdlib.Map, on key spaces small enough to
   collide and large enough for several levels. *)
type op = Add of int * int | Remove of int | Remove_first of int * int | Floor of int

let gen_op keys =
  QCheck.Gen.(
    int_range 0 keys >>= fun k ->
    int_range 0 999 >>= fun v ->
    int_range 0 8 >>= fun w ->
    frequency
      [ (4, return (Add (k, v))); (1, return (Remove k)); (1, return (Remove_first (k, k + w)));
        (2, return (Floor k)) ])

let print_op = function
  | Add (k, v) -> Printf.sprintf "Add(%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Remove_first (lo, hi) -> Printf.sprintf "Remove_first[%d,%d)" lo hi
  | Floor k -> Printf.sprintf "Floor %d" k

let prop_btree_model =
  QCheck.Test.make ~name:"btree matches Map model" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print_op l))
       QCheck.Gen.(
         oneofl [ 199; 1999 ] >>= fun keys -> list_size (int_range 0 1500) (gen_op keys)))
    (fun ops ->
      let t = B.create () in
      let model = ref IM.empty in
      let entry (k, v) = (k, v, -v) in
      List.for_all
        (fun op ->
          match op with
          | Add (k, v) ->
              B.add t k ~stop:v ~owner:(-v);
              model := IM.add k v !model;
              true
          | Remove k ->
              B.remove t k;
              model := IM.remove k !model;
              true
          | Remove_first (lo, hi) ->
              let want = IM.find_first_opt (fun k -> k >= lo) !model in
              let want = match want with Some (k, _) when k < hi -> want | _ -> None in
              Option.iter (fun (k, _) -> model := IM.remove k !model) want;
              cursor t (B.remove_first t ~lo ~hi) = Option.map entry want
          | Floor k ->
              cursor t (B.floor t k)
              = Option.map entry (IM.find_last_opt (fun k' -> k' <= k) !model)
              && cursor t (B.ceil t k)
                 = Option.map entry (IM.find_first_opt (fun k' -> k' >= k) !model))
        ops
      && (ignore (B.validate t);
          t.B.size = IM.cardinal !model
          && entries t = List.map entry (IM.bindings !model)))

(* ---------------- Tracker ---------------- *)

let test_tracker_basic () =
  let t = Tracker.create ~len:100 ~initial_owner:0 in
  Tracker.check_invariants t;
  checki "one segment" 1 (Tracker.segment_count t);
  Tracker.write t ~start:10 ~stop:20 ~owner:1;
  Tracker.check_invariants t;
  checki "three segments" 3 (Tracker.segment_count t);
  checki "owner at 15" 1 (Tracker.owner_at t 15);
  checki "owner at 5" 0 (Tracker.owner_at t 5);
  checki "owner at 20" 0 (Tracker.owner_at t 20);
  (* Overwrite with the same owner as neighbours: everything merges
     back to one segment. *)
  Tracker.write t ~start:10 ~stop:20 ~owner:0;
  Tracker.check_invariants t;
  checki "merged back" 1 (Tracker.segment_count t)

let test_tracker_query_clip () =
  let t = Tracker.create ~len:100 ~initial_owner:0 in
  Tracker.write t ~start:30 ~stop:60 ~owner:2;
  let segs = Tracker.query t ~start:40 ~stop:80 in
  Alcotest.(check (list (triple int int int)))
    "clipped query"
    [ (40, 60, 2); (60, 80, 0) ]
    (List.map (fun s -> Tracker.(s.start, s.stop, s.owner)) segs)

let test_tracker_spanning_write () =
  let t = Tracker.create ~len:100 ~initial_owner:0 in
  Tracker.write t ~start:10 ~stop:20 ~owner:1;
  Tracker.write t ~start:30 ~stop:40 ~owner:2;
  Tracker.write t ~start:50 ~stop:60 ~owner:3;
  Tracker.check_invariants t;
  (* A write spanning several existing segments absorbs them all. *)
  Tracker.write t ~start:5 ~stop:95 ~owner:4;
  Tracker.check_invariants t;
  checki "absorbed" 3 (Tracker.segment_count t);
  checki "owner mid" 4 (Tracker.owner_at t 50);
  checki "owner head" 0 (Tracker.owner_at t 2);
  checki "owner tail" 0 (Tracker.owner_at t 97)

(* The shapes the tracker properties run on, each plain and indexed: a
   small space, where random ranges hit every boundary case, and a
   space first cut into 2,200 segments, so that writes split and merge
   B-tree nodes on several levels.  A range is a start and a width
   class: narrow ranges keep the cut space fragmented, space-wide ones
   absorb hundreds of segments at once. *)
type shape = { len : int; indexed : bool; cut : bool }

let shapes =
  List.concat_map
    (fun indexed ->
       [ { len = 100; indexed; cut = false }; { len = 2400; indexed; cut = true } ])
    [ false; true ]

let print_shape sh =
  Printf.sprintf "%s%s len=%d" (if sh.indexed then "indexed" else "plain")
    (if sh.cut then " cut" else "") sh.len

(* The cut: element [2i] written by owner [1 + i mod 3] for i < 1100. *)
let cut_writes sh =
  if sh.cut then List.init 1100 (fun i -> (2 * i, (2 * i) + 1, 1 + (i mod 3))) else []

let shaped_tracker sh ~initial_owner =
  let t =
    (if sh.indexed then Tracker.create_indexed else Tracker.create) ~len:sh.len ~initial_owner
  in
  List.iter (fun (start, stop, owner) -> Tracker.write t ~start ~stop ~owner) (cut_writes sh);
  t

let gen_range =
  QCheck.Gen.(triple (int_range 0 1_000_000) (int_range 0 1_000_000) (oneofl [ 3; 40; max_int ]))

let range sh (a, b, w) =
  let lo = a mod sh.len in
  (lo, min sh.len (lo + 1 + (b mod min w sh.len)))

(* Model-based: the tracker against a flat per-element owner array. *)
let gen_tracker_op =
  QCheck.Gen.(
    int_range 0 99 >>= fun a ->
    int_range 0 99 >>= fun b ->
    int_range 0 3 >>= fun owner ->
    bool >>= fun is_write ->
    let lo = min a b and hi = max a b + 1 in
    return (is_write, lo, hi, owner))

let prop_tracker_model =
  QCheck.Test.make ~name:"tracker matches flat-array model" ~count:300
    (QCheck.make
       ~print:(fun (sh, l) ->
         print_shape sh ^ " "
         ^ String.concat "; "
             (List.map
                (fun (w, r, o) ->
                  let lo, hi = range sh r in
                  Printf.sprintf "%s[%d,%d)o%d" (if w then "W" else "Q") lo hi o)
                l))
       QCheck.Gen.(
         pair (oneofl shapes) (list_size (int_range 1 60) (triple bool gen_range (int_range 0 3)))))
    (fun (sh, ops) ->
      let t = shaped_tracker sh ~initial_owner:0 in
      let model = Array.make sh.len 0 in
      List.iter (fun (lo, hi, owner) -> Array.fill model lo (hi - lo) owner) (cut_writes sh);
      List.for_all
        (fun (is_write, r, owner) ->
          let lo, hi = range sh r in
          if is_write then begin
            Tracker.write t ~start:lo ~stop:hi ~owner;
            Array.fill model lo (hi - lo) owner;
            Tracker.check_invariants t;
            true
          end
          else
            let segs = Tracker.query t ~start:lo ~stop:hi in
            (* coverage and agreement *)
            let covered = Array.make (hi - lo) false in
            List.for_all
              (fun { Tracker.start; stop; owner } ->
                let ok = ref true in
                for i = start to stop - 1 do
                  if model.(i) <> owner then ok := false;
                  if covered.(i - lo) then ok := false;
                  covered.(i - lo) <- true
                done;
                !ok)
              segs
            && Array.for_all (fun c -> c) covered)
        ops)

(* The split/remove/merge tracker that [Tracker] refined, kept as the
   differential oracle: every write splits at both ends, removes the
   covered segments, re-inserts and merges, charging one op per B-tree
   step; a query walks the covered entries into a list. *)
module Oracle_tracker = struct
  type t = { mutable map : (int * int) IM.t; mutable ops : int }

  let create ~len ~initial_owner =
    { map = IM.singleton 0 (len, initial_owner); ops = 1 }

  let bump t n = t.ops <- t.ops + n
  let floor t k = IM.find_last_opt (fun k' -> k' <= k) t.map
  let add t k v = t.map <- IM.add k v t.map
  let remove t k = t.map <- IM.remove k t.map

  (* The entries from key [k] on, while [f] returns true. *)
  let iter_from t k f =
    let rec go seq = match seq () with Seq.Cons ((k, v), rest) when f k v -> go rest | _ -> () in
    go (IM.to_seq_from k t.map)

  let query t ~start ~stop =
    bump t 1;
    let out = ref [] in
    let from_key = match floor t start with Some (k, _) -> k | None -> start in
    iter_from t from_key (fun s (e, owner) ->
        bump t 1;
        if s >= stop then false
        else begin
          if e > start then
            out := { Tracker.start = max s start; stop = min e stop; owner } :: !out;
          true
        end);
    List.rev !out

  let write t ~start ~stop ~owner =
    let split at =
      match floor t at with
      | Some (s, (e, o)) when s < at && at < e ->
        bump t 3;
        add t s (at, o);
        add t at (e, o)
      | _ -> bump t 1
    in
    split start;
    split stop;
    let doomed = ref [] in
    iter_from t start (fun s _ ->
        bump t 1;
        if s < stop then begin
          doomed := s :: !doomed;
          true
        end
        else false);
    List.iter
      (fun s ->
         bump t 1;
         remove t s)
      !doomed;
    let seg_start = ref start and seg_stop = ref stop in
    (match floor t (start - 1) with
     | Some (s, (e, o)) when e = start && o = owner ->
       bump t 1;
       remove t s;
       seg_start := s
     | _ -> bump t 1);
    (match floor t stop with
     | Some (s, (e, o)) when s = stop && o = owner ->
       bump t 1;
       remove t s;
       seg_stop := e
     | _ -> bump t 1);
    bump t 1;
    add t !seg_start (!seg_stop, owner)

  let segments t =
    List.map (fun (s, (e, o)) -> { Tracker.start = s; stop = e; owner = o })
      (IM.bindings t.map)
end

(* One differential step.  [Rewrite] picks, when it runs, an existing
   segment and a sub-range of it by fractions and writes it with the
   segment's own owner: the no-op shapes a steady-state loop takes,
   which random ranges rarely hit. *)
type tracker_step =
  | Write of (int * int * int) * int (* a range, owner *)
  | Rewrite of int * int * int (* segment pick, two endpoint picks *)
  | Query of (int * int * int)
  | Iter of (int * int * int)

let gen_tracker_step =
  QCheck.Gen.(
    let owner = int_range (-1) 3 and pick = int_range 0 1000 in
    frequency
      [
        (3, map2 (fun r o -> Write (r, o)) gen_range owner);
        (3, map3 (fun i a b -> Rewrite (i, a, b)) pick pick pick);
        (1, map (fun r -> Query r) gen_range);
        (1, map (fun r -> Iter r) gen_range);
      ])

let print_tracker_step sh = function
  | Write (r, o) -> let a, b = range sh r in Printf.sprintf "W(%d,%d,o%d)" a b o
  | Rewrite (i, a, b) -> Printf.sprintf "R(%d,%d,%d)" i a b
  | Query r -> let a, b = range sh r in Printf.sprintf "Q(%d,%d)" a b
  | Iter r -> let a, b = range sh r in Printf.sprintf "I(%d,%d)" a b

(* Every step also keeps the version contract: the version moves
   exactly when the segments change. *)
let prop_tracker_matches_oracle =
  QCheck.Test.make ~name:"tracker matches the split/merge oracle" ~count:600
    (QCheck.make
       ~print:(fun (sh, o, steps) ->
         Printf.sprintf "%s owner=%d %s" (print_shape sh) o
           (String.concat " " (List.map (print_tracker_step sh) steps)))
       QCheck.Gen.(
         triple
           (oneof
              [ oneofl shapes; map (fun len -> { len; indexed = false; cut = false }) (int_range 1 64) ])
           (int_range (-1) 3)
           (list_size (int_range 1 80) gen_tracker_step)))
    (fun (sh, initial_owner, steps) ->
      (* An indexed tracker takes no negative owner: shift them all. *)
      let shift o = if sh.indexed then o + 1 else o in
      let initial_owner = shift initial_owner in
      let t = shaped_tracker sh ~initial_owner in
      let o = Oracle_tracker.create ~len:sh.len ~initial_owner in
      List.iter
        (fun (start, stop, owner) -> Oracle_tracker.write o ~start ~stop ~owner)
        (cut_writes sh);
      let same_delta f g =
        let t0 = Tracker.ops t and o0 = o.Oracle_tracker.ops in
        let got = f () and want = g () in
        got = want && Tracker.ops t - t0 = o.Oracle_tracker.ops - o0
      in
      Tracker.segments t = Oracle_tracker.segments o
      && List.for_all
        (fun step ->
           let segs = Tracker.segments t and version = Tracker.version t in
           let ok =
             match step with
             | Write (r, owner) ->
               let start, stop = range sh r and owner = shift owner in
               same_delta
                 (fun () -> Tracker.write t ~start ~stop ~owner)
                 (fun () -> Oracle_tracker.write o ~start ~stop ~owner)
             | Rewrite (i, a, b) ->
               let seg = List.nth segs (i mod List.length segs) in
               let span = seg.Tracker.stop - seg.Tracker.start in
               let a = seg.Tracker.start + (a mod span) and b = seg.Tracker.start + (b mod span) in
               let start = min a b and stop = max a b + 1 in
               let owner = seg.Tracker.owner in
               same_delta
                 (fun () -> Tracker.write t ~start ~stop ~owner)
                 (fun () -> Oracle_tracker.write o ~start ~stop ~owner)
             | Query r ->
               let start, stop = range sh r in
               same_delta
                 (fun () -> Tracker.query t ~start ~stop)
                 (fun () -> Oracle_tracker.query o ~start ~stop)
             | Iter r ->
               let start, stop = range sh r in
               same_delta
                 (fun () ->
                    let out = ref [] in
                    Tracker.iter_range t ~start ~stop (fun start stop owner ->
                        out := { Tracker.start; stop; owner } :: !out);
                    List.rev !out)
                 (fun () -> Oracle_tracker.query o ~start ~stop)
           in
           let segs' = Tracker.segments t in
           ok && segs' = Oracle_tracker.segments o
           && (Tracker.version t <> version) = (segs' <> segs))
        steps)

(* The stamp index against a linear scan.  Writes mix owner 0 (not
   resident) with stamps reused from earlier writes and fresh ones, the
   way vbuf residency writes them.  After every write the indexed
   tracker must be sound ([check_invariants] covers the index) and, for
   every bound (a sample of them on a cut space), [coldest ~below] must
   pick what a scan of [segments] picks: the smallest owner in [1,
   below), the lowest start among equals. *)
type stamp_pick = Unstamp | Reuse of int | Fresh

let print_stamp_pick = function
  | Unstamp -> "0"
  | Reuse i -> Printf.sprintf "r%d" i
  | Fresh -> "f"

let coldest_segment t ~below =
  if Tracker.coldest t ~below then
    Some
      { Tracker.start = Tracker.found_start t; stop = Tracker.found_stop t;
        owner = Tracker.found_owner t }
  else None

let prop_tracker_coldest =
  QCheck.Test.make ~name:"indexed tracker coldest matches a scan" ~count:400
    (QCheck.make
       ~print:(fun (sh, steps) ->
         Printf.sprintf "%s %s" (print_shape sh)
           (String.concat " "
              (List.map
                 (fun (r, p) ->
                    let a, b = range sh r in
                    Printf.sprintf "W(%d,%d,%s)" a b (print_stamp_pick p))
                 steps)))
       QCheck.Gen.(
         pair
           (oneof
              [ map (fun len -> { len; indexed = true; cut = false }) (int_range 1 64);
                return { len = 2400; indexed = true; cut = true } ])
           (list_size (int_range 1 60)
              (pair gen_range
                 (frequency
                    [
                      (2, return Unstamp);
                      (3, map (fun i -> Reuse i) (int_range 0 1000));
                      (3, return Fresh);
                    ])))))
    (fun (sh, steps) ->
      let t = shaped_tracker sh ~initial_owner:0 in
      (* The cut stamps 1 to 3. *)
      let used = ref (if sh.cut then [ 1; 2; 3 ] else []) in
      let next = ref (if sh.cut then 4 else 1) in
      let scan below =
        List.fold_left
          (fun acc (seg : Tracker.segment) ->
             if seg.owner >= 1 && seg.owner < below then
               match acc with
               | Some (best : Tracker.segment) when best.owner <= seg.owner -> acc
               | _ -> Some seg
             else acc)
          None (Tracker.segments t)
      in
      List.for_all
        (fun (r, pick) ->
           let start, stop = range sh r in
           let owner =
             match (pick, !used) with
             | Unstamp, _ | Reuse _, [] -> 0
             | Reuse i, l -> List.nth l (i mod List.length l)
             | Fresh, _ ->
               let s = !next in
               incr next;
               used := s :: !used;
               s
           in
           Tracker.write t ~start ~stop ~owner;
           Tracker.check_invariants t;
           List.for_all
             (fun below -> coldest_segment t ~below = scan below)
             (max_int
              :: (if sh.cut then [ 0; 1; 2; 3; 4; !next / 2; !next; !next + 1 ]
                  else List.init (!next + 1) Fun.id)))
        steps)

let test_tracker_index_limits () =
  let raises what f =
    checkb what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "index longer than 2^32" (fun () ->
      Tracker.create_indexed ~len:(Tracker.max_indexed_len + 1)
        ~initial_owner:0);
  raises "negative initial owner" (fun () ->
      Tracker.create_indexed ~len:10 ~initial_owner:Tracker.host);
  let t = Tracker.create_indexed ~len:10 ~initial_owner:0 in
  raises "negative owner" (fun () ->
      Tracker.write t ~start:0 ~stop:5 ~owner:Tracker.host);
  raises "owner past the key" (fun () ->
      Tracker.write t ~start:0 ~stop:5 ~owner:(Tracker.max_indexed_owner + 1));
  Tracker.write t ~start:3 ~stop:5 ~owner:Tracker.max_indexed_owner;
  Tracker.write t ~start:7 ~stop:9 ~owner:Tracker.max_indexed_owner;
  Tracker.check_invariants t;
  checkb "largest owner found, lowest start first" true
    (coldest_segment t ~below:max_int
     = Some { Tracker.start = 3; stop = 5; owner = Tracker.max_indexed_owner });
  checkb "bound excludes it" true
    (coldest_segment t ~below:Tracker.max_indexed_owner = None);
  raises "unindexed tracker has no coldest" (fun () ->
      Tracker.coldest (Tracker.create ~len:10 ~initial_owner:1) ~below:2)

(* The tracker's hot path allocates nothing: a write inside a segment
   its owner holds, a write that changes the segments without a B-tree
   split (an owner flip of one segment, both ways), a walk with a
   callback made beforehand, a lookup and, indexed, [coldest].  Words
   are counted over many calls, so one boxed float from [Gc] rounds
   away. *)
let test_tracker_hot_path_alloc () =
  let words f =
    for _ = 1 to 10 do f () done;
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do f () done;
    truncate ((Gc.minor_words () -. before) /. 1000.)
  in
  List.iter
    (fun indexed ->
       let t =
         (if indexed then Tracker.create_indexed else Tracker.create) ~len:4096 ~initial_owner:0
       in
       for i = 0 to 1023 do
         Tracker.write t ~start:(4 * i) ~stop:((4 * i) + 2) ~owner:(1 + (i mod 3))
       done;
       checki "2048 segments" 2048 (Tracker.segment_count t);
       let name what = Printf.sprintf "%s, %s" what (if indexed then "indexed" else "plain") in
       (* [400, 402) is owner 2's, between gaps of owner 0. *)
       checki (name "in-segment write") 0
         (words (fun () -> Tracker.write t ~start:400 ~stop:401 ~owner:2));
       let version = ref (Tracker.version t) and flips = ref 0 in
       checki (name "owner flip") 0
         (words (fun () ->
              Tracker.write t ~start:400 ~stop:402 ~owner:3;
              Tracker.write t ~start:400 ~stop:402 ~owner:2;
              if Tracker.version t <> !version then incr flips;
              version := Tracker.version t));
       checki (name "every flip moved the version") 1010 !flips;
       let f _ _ _ = () in
       checki (name "iter_range over 16 segments") 0
         (words (fun () -> Tracker.iter_range t ~start:100 ~stop:132 f));
       checki (name "seek") 0 (words (fun () -> Tracker.seek t 777));
       if indexed then
         checki (name "coldest") 0
           (words (fun () -> ignore (Tracker.coldest t ~below:max_int)));
       Tracker.check_invariants t)
    [ false; true ]

(* Ownership queries never lose or double-count an element: after any
   sequence of random owned-range writes, the per-owner segment lists
   partition the index space exactly like the flat model, stay
   coalesced, and their lengths sum to the full extent. *)
let prop_tracker_ownership =
  QCheck.Test.make ~name:"tracker ownership partitions the space" ~count:300
    (QCheck.make
       ~print:(fun l ->
         String.concat "; "
           (List.map
              (fun (_, lo, hi, o) -> Printf.sprintf "W[%d,%d)o%d" lo hi o)
              l))
       QCheck.Gen.(list_size (int_range 1 60) gen_tracker_op))
    (fun ops ->
      let t = Tracker.create ~len:100 ~initial_owner:0 in
      let model = Array.make 100 0 in
      List.iter
        (fun (_, lo, hi, owner) ->
          Tracker.write t ~start:lo ~stop:hi ~owner;
          Array.fill model lo (hi - lo) owner)
        ops;
      Tracker.check_invariants t;
      let owners = [ 0; 1; 2; 3 ] in
      let owned_count t ~owner =
        List.fold_left (fun acc (s : Tracker.segment) -> acc + s.stop - s.start) 0 (Tracker.owned_by t ~owner)
      in
      (* every element accounted for exactly once across owners *)
      List.fold_left (fun acc o -> acc + owned_count t ~owner:o) 0 owners
      = 100
      && List.for_all
           (fun o ->
             let segs = Tracker.owned_by t ~owner:o in
             (* segments agree with the model and are coalesced *)
             List.for_all
               (fun { Tracker.start; stop; owner } ->
                 owner = o
                 && (let ok = ref true in
                     for i = start to stop - 1 do
                       if model.(i) <> o then ok := false
                     done;
                     !ok))
               segs
             && (let rec no_adjacent = function
                   | a :: (b :: _ as rest) ->
                     a.Tracker.stop < b.Tracker.start && no_adjacent rest
                   | _ -> true
                 in
                 no_adjacent segs)
             (* and no model element of this owner is missed *)
             && owned_count t ~owner:o
                = Array.fold_left
                    (fun acc x -> if x = o then acc + 1 else acc)
                    0 model)
           owners)

(* ---------------- Virtual buffers ---------------- *)

let machine4 () =
  Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:4 ())

(* A buffer in a space of its own: its eviction pool is itself. *)
let vbuf ?cfg m ~name ~len = Vbuf.create (Vbuf.space ?cfg m) ~name ~len

(* One range list's sync or write outside any launch: a fresh stamp and
   no enumerator emissions. *)
let vsync ?(batch = false) m vb ~dev ~ranges =
  Vbuf.sync_for_read vb ~dev ~batch ~stamp:(Gpusim.Machine.lru_tick m) ~raw:0
    ~ranges

let vwrite m vb ~dev ~ranges =
  Vbuf.update_for_write vb ~dev ~stamp:(Gpusim.Machine.lru_tick m) ~raw:0
    ~ranges

let test_vbuf_h2d_d2h_roundtrip () =
  let m = machine4 () in
  let vb = vbuf m ~name:"a" ~len:103 in
  let src = Array.init 103 (fun i -> float_of_int i *. 0.5) in
  Vbuf.h2d vb ~src:(Some src);
  Tracker.check_invariants (Vbuf.tracker vb);
  (* Linear distribution: 4 devices get ceil(103/4)=26-element chunks. *)
  checki "4 segments" 4 (Tracker.segment_count (Vbuf.tracker vb));
  checki "owner of 0" 0 (Tracker.owner_at (Vbuf.tracker vb) 0);
  checki "owner of 60" 2 (Tracker.owner_at (Vbuf.tracker vb) 60);
  checki "owner of 102" 3 (Tracker.owner_at (Vbuf.tracker vb) 102);
  let dst = Array.make 103 nan in
  Vbuf.d2h vb ~dst:(Some dst);
  checkb "roundtrip" true (src = dst)

let test_vbuf_sync_for_read () =
  let m = machine4 () in
  let vb = vbuf m ~name:"a" ~len:100 in
  let src = Array.init 100 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Device 1 wants to read [0, 50): elements [0,25) live on device 0,
     [25,50) already on device 1. *)
  let n = vsync m vb ~dev:1 ~ranges:[ (0, 50) ] in
  checki "one transfer issued" 1 n;
  let inst1 = Gpusim.Buffer.data_exn (Vbuf.instance vb 1) in
  checkb "data arrived" true (inst1.(10) = 10.0);
  (* Owners unchanged by reads. *)
  checki "owner still 0" 0 (Tracker.owner_at (Vbuf.tracker vb) 10);
  (* Writes change ownership. *)
  vwrite m vb ~dev:1 ~ranges:[ (0, 50) ];
  checki "owner now 1" 1 (Tracker.owner_at (Vbuf.tracker vb) 10);
  Tracker.check_invariants (Vbuf.tracker vb)

let test_vbuf_gather_after_writes () =
  let m = machine4 () in
  let vb = vbuf m ~name:"a" ~len:40 in
  let src = Array.init 40 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Each device overwrites its chunk with dev-id marks. *)
  for d = 0 to 3 do
    let inst = Gpusim.Buffer.data_exn (Vbuf.instance vb d) in
    for i = d * 10 to (d * 10) + 9 do
      inst.(i) <- float_of_int (1000 + d)
    done;
    vwrite m vb ~dev:d ~ranges:[ (d * 10, (d * 10) + 10) ]
  done;
  let dst = Array.make 40 nan in
  Vbuf.d2h vb ~dst:(Some dst);
  checkb "gather picks owners" true
    (Array.for_all (fun v -> v >= 1000.0) dst);
  checkb "right owners" true
    (dst.(5) = 1000.0 && dst.(15) = 1001.0 && dst.(25) = 1002.0
     && dst.(35) = 1003.0)

let test_vbuf_beta_gamma () =
  (* beta: patterns on, transfers off -> tracker changes, no transfer
     stats.  gamma: nothing. *)
  let cfg_m = Gpusim.Config.test_box ~n_devices:2 () in
  let m = Gpusim.Machine.create ~functional:false cfg_m in
  let vb = vbuf ~cfg:Rconfig.beta m ~name:"a" ~len:100 in
  let src = Array.make 100 0.0 in
  Vbuf.h2d vb ~src:(Some src);
  checki "beta: no h2d bytes" 0 (Gpusim.Machine.stats m).Gpusim.Machine.h2d_bytes;
  checki "beta: tracker updated" 2 (Tracker.segment_count (Vbuf.tracker vb));
  let n = vsync m vb ~dev:1 ~ranges:[ (0, 100) ] in
  checki "beta: stale segments counted" 1 n;
  checki "beta: no p2p bytes" 0 (Gpusim.Machine.stats m).Gpusim.Machine.p2p_bytes;
  let vb2 = vbuf ~cfg:Rconfig.gamma m ~name:"b" ~len:100 in
  Vbuf.h2d vb2 ~src:(Some src);
  checki "gamma: tracker untouched" 1 (Tracker.segment_count (Vbuf.tracker vb2));
  checki "gamma: no sync work" 0
    (vsync m vb2 ~dev:1 ~ranges:[ (0, 100) ])

let test_linear_chunk () =
  (* Chunks partition [0,len) and are balanced. *)
  List.iter
    (fun (len, n) ->
      let stops = ref 0 in
      for d = 0 to n - 1 do
        let a, b = Vbuf.linear_chunk ~len ~n_devices:n d in
        checkb "ordered" true (a <= b);
        if d = 0 then checki "starts at 0" 0 a;
        if d > 0 then begin
          let _, prev_b = Vbuf.linear_chunk ~len ~n_devices:n (d - 1) in
          checki "contiguous" prev_b a
        end;
        stops := b
      done;
      checki "covers len" len !stops)
    [ (100, 4); (103, 4); (7, 16); (16, 16); (1, 3) ]

let test_vbuf_host_array_validation () =
  let m = machine4 () in
  let vb = vbuf m ~name:"temps" ~len:10 in
  Alcotest.check_raises "h2d length mismatch"
    (Invalid_argument
       "Vbuf.h2d(temps): host array has 7 elements, buffer has 10 across 4 devices")
    (fun () -> Vbuf.h2d vb ~src:(Some (Array.make 7 0.0)));
  Vbuf.h2d vb ~src:(Some (Array.make 10 1.0));
  Alcotest.check_raises "d2h length mismatch"
    (Invalid_argument
       "Vbuf.d2h(temps): host array has 11 elements, buffer has 10 across 4 devices")
    (fun () -> Vbuf.d2h vb ~dst:(Some (Array.make 11 0.0)))

(* ---------------- Checkpoint / restore / recovery ---------------- *)

(* A functional machine with fault state attached (rates all zero:
   deterministic, but validity tracking is armed) so Vbuf maintains
   replica-freshness metadata.  Device 1's loss is scheduled past every
   operation of these tests; [lose_device1] makes it happen. *)
let loss_time = 1e9

let faulty_machine4 () =
  let m = machine4 () in
  Gpusim.Machine.inject_faults m
    (Gpusim.Faults.create
       { Gpusim.Faults.null_spec with seed = 1; scheduled_losses = [ (1, loss_time) ] });
  m

let lose_device1 m =
  let fs = Option.get (Gpusim.Machine.fault_state m) in
  checkb "device 1 lost" true (Gpusim.Faults.kernel_outcome fs ~device:1 ~now:loss_time = `Lost)

let test_vbuf_checkpoint_restore () =
  let m = faulty_machine4 () in
  let vb = vbuf m ~name:"a" ~len:50 in
  let v1 = Array.init 50 float_of_int in
  Vbuf.h2d vb ~src:(Some v1);
  let snap = Vbuf.checkpoint vb in
  (* Overwrite with different content... *)
  Vbuf.h2d vb ~src:(Some (Array.make 50 (-1.0)));
  let mid = Array.make 50 nan in
  Vbuf.d2h vb ~dst:(Some mid);
  checkb "overwritten" true (Array.for_all (fun x -> x = -1.0) mid);
  (* ...and roll back: the snapshot content returns bit-identically. *)
  Vbuf.restore vb snap;
  let out = Array.make 50 nan in
  Vbuf.d2h vb ~dst:(Some out);
  checkb "restored" true (out = v1);
  Tracker.check_invariants (Vbuf.tracker vb);
  (* a snapshot of one buffer cannot restore another *)
  let other = vbuf m ~name:"b" ~len:50 in
  checkb "wrong-buffer restore rejected" true
    (try
       Vbuf.restore other snap;
       false
     with Invalid_argument _ -> true)

(* An h2d copies its source only where a host-owned segment may later
   be read from the copy; nowhere may a d2h see the source change after
   the h2d returned.  Uncapped and fault-free, nothing is host-owned; a
   capacity below a chunk leaves a host-owned remainder; under fault
   injection, recovery re-homes a lost device's segments to the host. *)
let test_vbuf_h2d_source_mutation () =
  let run what m ?(after = fun _ -> ()) () =
    let vb = vbuf m ~name:"s" ~len:100 in
    let src = Array.init 100 float_of_int in
    Vbuf.h2d vb ~src:(Some src);
    let want = Array.copy src in
    Array.fill src 0 100 (-1.0);
    after vb;
    let dst = Array.make 100 nan in
    Vbuf.d2h vb ~dst:(Some dst);
    checkb what true (dst = want);
    vb
  in
  ignore (run "uncapped" (machine4 ()) ());
  let capped =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:4 ~mem_capacity:40 ())
  in
  let vb = run "capped, with a host-owned remainder" capped () in
  checki "the remainder is host-owned" Tracker.host (Tracker.owner_at (Vbuf.tracker vb) 99);
  let m = faulty_machine4 () in
  ignore
    (run "faulted, device 1 lost" m
       ~after:(fun vb ->
           lose_device1 m;
           checkb "nothing lost" true (Vbuf.recover vb ~dev:1 ~live:[ 0; 2; 3 ] = []);
           checki "re-homed to the host" Tracker.host (Tracker.owner_at (Vbuf.tracker vb) 30))
       ())

let test_vbuf_recover_fresh_replica () =
  let m = faulty_machine4 () in
  let vb = vbuf m ~name:"a" ~len:40 in
  let src = Array.init 40 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Device 1 owns [10,20); the host holds a fresh copy of everything
     (the h2d source), so losing device 1 loses no data. *)
  lose_device1 m;
  let lost = Vbuf.recover vb ~dev:1 ~live:[ 0; 2; 3 ] in
  checkb "nothing lost" true (lost = []);
  checkb "dead device owns nothing" true
    (Tracker.owned_by (Vbuf.tracker vb) ~owner:1 = []);
  Tracker.check_invariants (Vbuf.tracker vb);
  (* the gather still produces the full content, without device 1 *)
  let out = Array.make 40 nan in
  Vbuf.d2h vb ~dst:(Some out);
  checkb "content intact" true (out = src)

let test_vbuf_recover_lost_data () =
  let m = faulty_machine4 () in
  let vb = vbuf m ~name:"a" ~len:40 in
  Vbuf.h2d vb ~src:(Some (Array.init 40 float_of_int));
  (* Device 1 writes [12,18): that range now exists nowhere else. *)
  vwrite m vb ~dev:1 ~ranges:[ (12, 18) ];
  lose_device1 m;
  let lost = Vbuf.recover vb ~dev:1 ~live:[ 0; 2; 3 ] in
  checkb "exactly the written range is lost" true (lost = [ (12, 18) ]);
  (* The unrecoverable hole stays owned by the dead device: reading it
     before the replay raises instead of serving wrong data silently. *)
  checkb "only the hole remains on the dead device" true
    (List.map
       (fun s -> Tracker.(s.start, s.stop))
       (Tracker.owned_by (Vbuf.tracker vb) ~owner:1)
    = [ (12, 18) ]);
  Tracker.check_invariants (Vbuf.tracker vb)

(* Model-based virtual-buffer property: a random interleaving of
   device writes (update_for_write + direct stores into the instance)
   and reads (sync_for_read on a random device) must keep every synced
   range equal to a flat reference array. *)
type vop =
  | VWrite of int * int * int (* device, lo, hi *)
  | VRead of int * int * int (* device, lo, hi *)

let gen_vop =
  QCheck.Gen.(
    int_range 0 3 >>= fun dev ->
    int_range 0 79 >>= fun a ->
    int_range 0 79 >>= fun b ->
    bool >>= fun w ->
    let lo = min a b and hi = max a b + 1 in
    return (if w then VWrite (dev, lo, hi) else VRead (dev, lo, hi)))

let print_vop = function
  | VWrite (d, l, h) -> Printf.sprintf "W%d[%d,%d)" d l h
  | VRead (d, l, h) -> Printf.sprintf "R%d[%d,%d)" d l h

let prop_vbuf_model =
  QCheck.Test.make ~name:"vbuf coherence matches flat model" ~count:150
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print_vop l))
       QCheck.Gen.(list_size (int_range 1 40) gen_vop))
    (fun ops ->
      let len = 80 in
      let m =
        Gpusim.Machine.create ~functional:true
          (Gpusim.Config.test_box ~n_devices:4 ())
      in
      let vb = vbuf m ~name:"v" ~len in
      let model = Array.make len 0.0 in
      let init = Array.init len float_of_int in
      Vbuf.h2d vb ~src:(Some init);
      Array.blit init 0 model 0 len;
      let stamp = ref 100.0 in
      let ok = ref true in
      List.iter
        (fun op ->
           match op with
           | VWrite (dev, lo, hi) ->
             (* the device produces new values for [lo,hi) *)
             stamp := !stamp +. 1.0;
             let inst = Gpusim.Buffer.data_exn (Vbuf.instance vb dev) in
             for i = lo to hi - 1 do
               inst.(i) <- !stamp +. float_of_int i;
               model.(i) <- !stamp +. float_of_int i
             done;
             vwrite m vb ~dev ~ranges:[ (lo, hi) ];
             Tracker.check_invariants (Vbuf.tracker vb)
           | VRead (dev, lo, hi) ->
             ignore (vsync m vb ~dev ~ranges:[ (lo, hi) ]);
             let inst = Gpusim.Buffer.data_exn (Vbuf.instance vb dev) in
             for i = lo to hi - 1 do
               if inst.(i) <> model.(i) then ok := false
             done)
        ops;
      (* final gather agrees with the model *)
      let out = Array.make len nan in
      Vbuf.d2h vb ~dst:(Some out);
      !ok && out = model)

(* Regression: segments owned by the host must be served from the host
   copy (d2h) or uploaded over PCIe (sync_for_read) — never gathered
   from a device instance, whose copy may be stale. *)
let test_vbuf_host_owned_segments () =
  let m = machine4 () in
  let vb = vbuf m ~name:"h" ~len:40 in
  let src = Array.init 40 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Spill [10,20) from device 1, which owns it: the host copy now
     holds it and the host owns it.  Then corrupt every device instance
     there, so any device gather returns garbage. *)
  checki "spilled" 40 (Vbuf.spill vb ~dev:1 ~ranges:[ (10, 20) ]);
  checki "host-owned" Tracker.host (Tracker.owner_at (Vbuf.tracker vb) 15);
  for d = 0 to 3 do
    let inst = Gpusim.Buffer.data_exn (Vbuf.instance vb d) in
    for i = 10 to 19 do
      inst.(i) <- -1.0
    done
  done;
  let dst = Array.make 40 nan in
  Vbuf.d2h vb ~dst:(Some dst);
  checkb "d2h serves host-owned from host copy" true (dst = src);
  let p2p_before = (Gpusim.Machine.stats m).Gpusim.Machine.p2p_bytes in
  let h2d_before = (Gpusim.Machine.stats m).Gpusim.Machine.h2d_bytes in
  let n = vsync m vb ~dev:2 ~ranges:[ (10, 20) ] in
  checki "one upload" 1 n;
  let inst2 = Gpusim.Buffer.data_exn (Vbuf.instance vb 2) in
  checkb "sync uploads host data" true
    (Array.for_all (fun i -> inst2.(i) = src.(i)) (Array.init 10 (fun i -> i + 10)));
  let stats = Gpusim.Machine.stats m in
  checki "no peer traffic" p2p_before stats.Gpusim.Machine.p2p_bytes;
  checkb "went over PCIe" true (stats.Gpusim.Machine.h2d_bytes > h2d_before);
  (* Batch mode cannot pack host-owned segments into a peer copy. *)
  let n = vsync ~batch:true m vb ~dev:3 ~ranges:[ (10, 20) ] in
  checki "batch uploads individually" 1 n;
  let inst3 = Gpusim.Buffer.data_exn (Vbuf.instance vb 3) in
  checkb "batch data correct" true (inst3.(15) = 15.0)

(* Regression: enumerator ranges over-approximate, so both ends must be
   clamped to the buffer and empty/out-of-bounds ranges dropped (the
   tracker rejects them with Invalid_argument). *)
let test_vbuf_range_clamping () =
  let m = machine4 () in
  let vb = vbuf m ~name:"c" ~len:100 in
  let src = Array.init 100 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  let wild = [ (-5, 3); (95, 200); (150, 160); (4, 4) ] in
  let n = vsync m vb ~dev:1 ~ranges:wild in
  checkb "some transfers" true (n > 0);
  let inst1 = Gpusim.Buffer.data_exn (Vbuf.instance vb 1) in
  checkb "head synced" true (inst1.(0) = 0.0 && inst1.(2) = 2.0);
  checkb "tail synced" true (inst1.(95) = 95.0 && inst1.(99) = 99.0);
  vwrite m vb ~dev:1 ~ranges:wild;
  Tracker.check_invariants (Vbuf.tracker vb);
  checki "head owned" 1 (Tracker.owner_at (Vbuf.tracker vb) 0);
  checki "tail owned" 1 (Tracker.owner_at (Vbuf.tracker vb) 99);
  checki "middle untouched" 2 (Tracker.owner_at (Vbuf.tracker vb) 60)

(* Tracker op counts are charged to simulated time as the runtime's
   "pattern" seconds, so they are pinned exactly, by hand, for every
   write shape: a change that moves them must fail here. *)
let test_tracker_ops_accounting () =
  let t = Tracker.create ~len:100 ~initial_owner:0 in
  checki "create" 1 (Tracker.ops t);
  let charged what expected f =
    let before = Tracker.ops t in
    f ();
    checki what expected (Tracker.ops t - before)
  in
  let write start stop owner () = Tracker.write t ~start ~stop ~owner in
  (* Splits at both ends (3 + 3), the removal walk's two entries, the
     removal, two merge probes and the insert. *)
  charged "interior write" 12 (write 10 20 1);
  (* No split at 0, a split at 5, and no left neighbour to probe. *)
  charged "write at 0" 10 (write 0 5 2);
  (* A split at 90, none at [len], and no entry after the range. *)
  charged "write ending at len" 9 (write 90 100 3);
  let segs () =
    List.map (fun s -> Tracker.(s.start, s.stop, s.owner)) (Tracker.segments t)
  in
  let before = segs () in
  (* Writes inside a segment their owner already holds ([20, 90) is
     device 0's): (s < start ? 3 : 1) + (stop < e ? 3 : 1) + 5 +
     (stop < len ? 1 : 0). *)
  charged "no-op, inside both ends" 12 (write 30 40 0);
  charged "no-op, from the segment start" 10 (write 20 40 0);
  charged "no-op, to the segment end" 10 (write 30 90 0);
  charged "no-op, the whole segment" 8 (write 20 90 0);
  charged "no-op, ending at len" 9 (write 95 100 3);
  Alcotest.(check (list (triple int int int)))
    "no-op writes keep the segments" before (segs ());
  (* One op for the descent, one per entry from the floor of 7 up to
     the first one starting at or past 85: [5,10), [10,20), [20,90) and
     the terminating [90,100). *)
  charged "query over three segments" 5 (fun () ->
      checki "three segments" 3
        (List.length (Tracker.query t ~start:7 ~stop:85)));
  charged "iter_range charges like query" 5 (fun () ->
      Tracker.iter_range t ~start:7 ~stop:85 (fun _ _ _ -> ()))

let test_rconfig () =
  checkb "alpha valid" true (Rconfig.is_valid Rconfig.alpha);
  checkb "beta valid" true (Rconfig.is_valid Rconfig.beta);
  checkb "gamma valid" true (Rconfig.is_valid Rconfig.gamma);
  checkb "transfers without patterns invalid" false
    (Rconfig.is_valid { Rconfig.transfers = true; patterns = false })

(* ---------------- Tracker versions ---------------- *)

(* A 100-element buffer scattered over 4 devices, with [30, 35) then
   written by device 3: a read of [10, 90) on device 0 makes five
   transfers, from devices 1, 3, 1, 2 and 3.  Tracing is on, so every
   issued transfer is visible with its simulated times. *)
let version_machine () =
  let m =
    Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:4 ())
  in
  Gpusim.Machine.enable_trace m;
  m

let version_buffer m space =
  let vb = Vbuf.create space ~name:"a" ~len:100 in
  Vbuf.h2d vb ~src:(Some (Array.init 100 float_of_int));
  vwrite m vb ~dev:3 ~ranges:[ (30, 35) ];
  vb

let pattern_seconds m =
  Gpusim.Timeline.busy_in (Gpusim.Machine.host_timeline m) "pattern"

(* One sync of [10, 90) onto device 0: the transfers it reported, the
   tracker ops it charged and the kinds, endpoints and bytes of the
   machine events it issued. *)
let read_walk m vb space =
  let ops = Vbuf.tracker_ops space in
  let seen = List.length (Gpusim.Machine.trace m) in
  let n = vsync m vb ~dev:0 ~ranges:[ (10, 90) ] in
  ( n,
    Vbuf.tracker_ops space - ops,
    List.filter_map
      (fun (e : Gpusim.Machine.event) ->
         match e.Gpusim.Machine.ev_kind with
         | `Fabric _ | `Host _ -> None
         | k -> Some (k, e.Gpusim.Machine.ev_src, e.Gpusim.Machine.ev_dst, e.Gpusim.Machine.ev_bytes))
      (List.filteri (fun i _ -> i >= seen) (Gpusim.Machine.trace m)) )

(* Launch graphs key a period on [Vbuf.versions]: a call that leaves
   them as it found them changed nothing, so issuing it again from
   the same versions issues the same transfers and charges the same
   ops.  The first read makes its range resident; from then on reads
   keep the versions and repeat one walk, and so does a write into the
   device's own resident segment.  A write by another device moves the
   ownership version, and the walk changes with it. *)
let test_vbuf_versions () =
  let m = version_machine () in
  let space = Vbuf.space m in
  let vb = version_buffer m space in
  let v0 = Vbuf.versions vb in
  checki "ownership plus one residency version per device" 5 (Array.length v0);
  ignore (read_walk m vb space);
  let v1 = Vbuf.versions vb in
  checkb "the first read makes device 0 resident" true (v1.(1) <> v0.(1));
  checkb "the first read leaves ownership" true (v1.(0) = v0.(0));
  let walk = read_walk m vb space in
  let n, ops, copies = walk in
  checkb "five transfers, charged ops, five copies" true
    (n = 5 && ops > 0 && List.length copies = 5);
  checkb "a settled read keeps the versions" true (Vbuf.versions vb = v1);
  checkb "and repeats its walk" true (read_walk m vb space = walk);
  vwrite m vb ~dev:0 ~ranges:[ (10, 12) ];
  checkb "a write into an owned resident segment keeps them" true
    (Vbuf.versions vb = v1);
  vwrite m vb ~dev:1 ~ranges:[ (60, 70) ];
  let v2 = Vbuf.versions vb in
  checkb "a write by another device moves ownership" true (v2.(0) <> v1.(0));
  let n', _, _ = read_walk m vb space in
  checki "and the walk fetches the new owner's range" 7 n';
  checkb "that read settled nothing new" true (Vbuf.versions vb = v2)

(* ---------------- The charge contract ---------------- *)

(* Each charging call adds exactly ops x tracker_op_seconds + raw x
   range_seconds to the host's "pattern" busy seconds, where ops is its
   own tracker's ops delta, and adds ops to the space's tracker-op count and its
   sync transfers to the transfer count; the other calls add
   nothing. *)
let test_vbuf_charges () =
  let m = faulty_machine4 () in
  let host = (Gpusim.Machine.config m).Gpusim.Config.host in
  let space = Vbuf.space m in
  let vb = Vbuf.create space ~name:"a" ~len:100 in
  let other = Vbuf.create space ~name:"b" ~len:100 in
  let counts () =
    (Vbuf.tracker_ops space, Vbuf.transfers space, pattern_seconds m)
  in
  (* [f] returns its transfer count and the raw emissions it passed. *)
  let charges what f =
    let ops0, tr0, busy0 = counts () in
    let tops0 = Tracker.ops (Vbuf.tracker vb) in
    let transfers, raw = f () in
    let ops = Tracker.ops (Vbuf.tracker vb) - tops0 in
    let seconds =
      (float_of_int ops *. host.Gpusim.Config.tracker_op_seconds)
      +. (float_of_int raw *. host.Gpusim.Config.range_seconds)
    in
    checkb (what ^ ": did tracker work") true (ops > 0);
    Alcotest.(check (triple int int (float 0.0)))
      what
      (ops0 + ops, tr0 + transfers, busy0 +. seconds)
      (counts ())
  in
  let free what f =
    let before = counts () in
    f ();
    Alcotest.(check (triple int int (float 0.0))) what before (counts ())
  in
  let src = Some (Array.init 100 float_of_int) in
  charges "h2d" (fun () ->
      Vbuf.h2d vb ~src;
      (0, 0));
  Vbuf.h2d other ~src;
  charges "sync_for_read" (fun () ->
      let stamp = Gpusim.Machine.lru_tick m in
      let n =
        Vbuf.sync_for_read vb ~dev:0 ~batch:false ~stamp ~raw:3
          ~ranges:[ (10, 90) ]
      in
      (n, 3));
  charges "batched sync_for_read" (fun () ->
      let stamp = Gpusim.Machine.lru_tick m in
      let n =
        Vbuf.sync_for_read vb ~dev:1 ~batch:true ~stamp ~raw:1
          ~ranges:[ (0, 100) ]
      in
      (n, 1));
  charges "update_for_write" (fun () ->
      let stamp = Gpusim.Machine.lru_tick m in
      Vbuf.update_for_write vb ~dev:2 ~stamp ~raw:2 ~ranges:[ (20, 40) ];
      (0, 2));
  charges "d2h" (fun () ->
      Vbuf.d2h vb ~dst:(Some (Array.make 100 0.0));
      (0, 0));
  let snap = ref None in
  free "checkpoint" (fun () -> snap := Some (Vbuf.checkpoint vb));
  free "ensure_resident" (fun () ->
      Vbuf.ensure_resident vb ~dev:3 ~ranges:[ (0, 100) ]);
  free "spill" (fun () -> ignore (Vbuf.spill vb ~dev:2 ~ranges:[ (0, 100) ]));
  free "recover" (fun () -> ignore (Vbuf.recover vb ~dev:1 ~live:[ 0; 2; 3 ]));
  free "restore" (fun () -> Vbuf.restore vb (Option.get !snap));
  (* A call that raises charges nothing. *)
  free "failed h2d" (fun () ->
      match Vbuf.h2d vb ~src:(Some [||]) with
      | () -> Alcotest.fail "short host array accepted"
      | exception Invalid_argument _ -> ())

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "runtime"
    [
      ( "btree",
        [
          Alcotest.test_case "basic" `Quick test_btree_basic;
          Alcotest.test_case "bulk insert/delete" `Quick test_btree_bulk;
          Alcotest.test_case "iter_from" `Quick test_btree_iter_from;
          qtest prop_btree_model;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "basic" `Quick test_tracker_basic;
          Alcotest.test_case "query clipping" `Quick test_tracker_query_clip;
          Alcotest.test_case "spanning write" `Quick test_tracker_spanning_write;
          qtest prop_tracker_model;
          qtest prop_tracker_ownership;
          qtest prop_tracker_matches_oracle;
          qtest prop_tracker_coldest;
          Alcotest.test_case "index limits" `Quick test_tracker_index_limits;
          Alcotest.test_case "tracker hot path allocation" `Quick test_tracker_hot_path_alloc;
        ] );
      ( "vbuf",
        [
          Alcotest.test_case "h2d/d2h roundtrip" `Quick test_vbuf_h2d_d2h_roundtrip;
          Alcotest.test_case "sync for read" `Quick test_vbuf_sync_for_read;
          Alcotest.test_case "gather after writes" `Quick test_vbuf_gather_after_writes;
          Alcotest.test_case "beta/gamma configs" `Quick test_vbuf_beta_gamma;
          Alcotest.test_case "linear chunks" `Quick test_linear_chunk;
          Alcotest.test_case "host-owned segments" `Quick test_vbuf_host_owned_segments;
          Alcotest.test_case "range clamping" `Quick test_vbuf_range_clamping;
          Alcotest.test_case "tracker ops accounting" `Quick test_tracker_ops_accounting;
          Alcotest.test_case "rconfig" `Quick test_rconfig;
          Alcotest.test_case "versions key a repeated walk" `Quick test_vbuf_versions;
          Alcotest.test_case "charge contract" `Quick test_vbuf_charges;
          qtest prop_vbuf_model;
        ] );
      ( "fault-recovery",
        [
          Alcotest.test_case "host-array validation" `Quick
            test_vbuf_host_array_validation;
          Alcotest.test_case "checkpoint/restore" `Quick
            test_vbuf_checkpoint_restore;
          Alcotest.test_case "h2d source mutated afterwards" `Quick
            test_vbuf_h2d_source_mutation;
          Alcotest.test_case "recover via fresh replicas" `Quick
            test_vbuf_recover_fresh_replica;
          Alcotest.test_case "recover reports lost data" `Quick
            test_vbuf_recover_lost_data;
        ] );
    ]
