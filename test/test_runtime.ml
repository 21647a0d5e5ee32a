(* Tests for the runtime library: B-tree map (model-checked against
   Stdlib.Map), segment tracker (model-checked against a flat owner
   array) and virtual buffers on the simulated machine. *)

open Gpu_runtime

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module M = Btree.Int_map
module IM = Map.Make (Int)

(* ---------------- B-tree ---------------- *)

let test_btree_basic () =
  let t = M.create () in
  checkb "empty" true (M.is_empty t);
  M.add t 5 "five";
  M.add t 1 "one";
  M.add t 9 "nine";
  checki "size" 3 (M.size t);
  Alcotest.(check (option string)) "find 5" (Some "five") (M.find_opt t 5);
  Alcotest.(check (option string)) "find 2" None (M.find_opt t 2);
  M.add t 5 "FIVE";
  checki "size after replace" 3 (M.size t);
  Alcotest.(check (option string)) "replaced" (Some "FIVE") (M.find_opt t 5);
  Alcotest.(check (option (pair int string)))
    "floor 7" (Some (5, "FIVE")) (M.floor t 7);
  Alcotest.(check (option (pair int string)))
    "floor 5" (Some (5, "FIVE")) (M.floor t 5);
  Alcotest.(check (option (pair int string))) "floor 0" None (M.floor t 0);
  Alcotest.(check (option (pair int string)))
    "min" (Some (1, "one")) (M.min_binding t);
  Alcotest.(check (option (pair int string)))
    "max" (Some (9, "nine")) (M.max_binding t);
  M.remove t 5;
  checki "size after remove" 2 (M.size t);
  Alcotest.(check (option string)) "removed" None (M.find_opt t 5);
  ignore (M.validate t)

let test_btree_bulk () =
  (* Enough keys to force several levels of splits. *)
  let t = M.create () in
  let n = 2000 in
  for i = 0 to n - 1 do
    M.add t ((i * 7919) mod n) ((i * 7919) mod n)
  done;
  ignore (M.validate t);
  checki "all distinct" n (M.size t);
  let sorted = M.to_list t in
  checkb "sorted" true
    (List.for_all2
       (fun (k, _) i -> k = i)
       sorted
       (List.init n (fun i -> i)));
  (* Delete every third key, validating along the way. *)
  for i = 0 to n - 1 do
    if i mod 3 = 0 then M.remove t i
  done;
  ignore (M.validate t);
  checki "size after deletes" (n - ((n + 2) / 3)) (M.size t);
  for i = 0 to n - 1 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" i)
      (if i mod 3 = 0 then None else Some i)
      (M.find_opt t i)
  done

let test_btree_iter_from () =
  let t = M.create () in
  List.iter (fun k -> M.add t k (k * 10)) [ 2; 4; 6; 8; 10; 12 ];
  let seen = ref [] in
  M.iter_from t 5 (fun k _ ->
      seen := k :: !seen;
      k < 10);
  Alcotest.(check (list int)) "iter_from 5 until >= 10" [ 6; 8; 10 ]
    (List.rev !seen);
  let all = ref [] in
  M.iter_from t 0 (fun k _ ->
      all := k :: !all;
      true);
  Alcotest.(check (list int)) "iter_from 0" [ 2; 4; 6; 8; 10; 12 ]
    (List.rev !all)

(* Model-based test: random interleavings of add/remove/find/floor
   against Stdlib.Map; a [Floor] step checks [ceil_value] too. *)
type op = Add of int * int | Remove of int | Find of int | Floor of int

let gen_op =
  QCheck.Gen.(
    int_range 0 199 >>= fun k ->
    int_range 0 999 >>= fun v ->
    oneof
      [ return (Add (k, v)); return (Remove k); return (Find k);
        return (Floor k) ])

let print_op = function
  | Add (k, v) -> Printf.sprintf "Add(%d,%d)" k v
  | Remove k -> Printf.sprintf "Remove %d" k
  | Find k -> Printf.sprintf "Find %d" k
  | Floor k -> Printf.sprintf "Floor %d" k

let prop_btree_model =
  QCheck.Test.make ~name:"btree matches Map model" ~count:200
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print_op l))
       QCheck.Gen.(list_size (int_range 0 400) gen_op))
    (fun ops ->
      let t = M.create () in
      let model = ref IM.empty in
      List.for_all
        (fun op ->
          match op with
          | Add (k, v) ->
              M.add t k v;
              model := IM.add k v !model;
              true
          | Remove k ->
              M.remove t k;
              model := IM.remove k !model;
              true
          | Find k -> M.find_opt t k = IM.find_opt k !model
          | Floor k ->
              let expected = IM.fold
                  (fun k' v' acc -> if k' <= k then Some (k', v') else acc)
                  !model None
              in
              let above =
                match IM.find_first_opt (fun k' -> k' >= k) !model with
                | Some (_, v) -> v
                | None -> -1
              in
              M.floor t k = expected && M.ceil_value t k ~default:(-1) = above)
        ops
      && (ignore (M.validate t);
          M.size t = IM.cardinal !model
          && M.to_list t = IM.bindings !model))

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
       ~print:(fun l ->
         String.concat "; "
           (List.map
              (fun (w, lo, hi, o) ->
                Printf.sprintf "%s[%d,%d)o%d" (if w then "W" else "Q") lo hi o)
              l))
       QCheck.Gen.(list_size (int_range 1 60) gen_tracker_op))
    (fun ops ->
      let t = Tracker.create ~len:100 ~initial_owner:0 in
      let model = Array.make 100 0 in
      List.for_all
        (fun (is_write, lo, hi, owner) ->
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
  type t = { map : (int * int) M.tree; mutable ops : int }

  let create ~len ~initial_owner =
    let map = M.create () in
    M.add map 0 (len, initial_owner);
    { map; ops = 1 }

  let bump t n = t.ops <- t.ops + n

  let query t ~start ~stop =
    bump t 1;
    let out = ref [] in
    let from_key =
      match M.floor t.map start with Some (k, _) -> k | None -> start
    in
    M.iter_from t.map from_key (fun s (e, owner) ->
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
      match M.floor t.map at with
      | Some (s, (e, o)) when s < at && at < e ->
        bump t 3;
        M.add t.map s (at, o);
        M.add t.map at (e, o)
      | _ -> bump t 1
    in
    split start;
    split stop;
    let doomed = ref [] in
    M.iter_from t.map start (fun s _ ->
        bump t 1;
        if s < stop then begin
          doomed := s :: !doomed;
          true
        end
        else false);
    List.iter
      (fun s ->
         bump t 1;
         M.remove t.map s)
      !doomed;
    let seg_start = ref start and seg_stop = ref stop in
    (match M.floor t.map (start - 1) with
     | Some (s, (e, o)) when e = start && o = owner ->
       bump t 1;
       M.remove t.map s;
       seg_start := s
     | _ -> bump t 1);
    (match M.floor t.map stop with
     | Some (s, (e, o)) when s = stop && o = owner ->
       bump t 1;
       M.remove t.map s;
       seg_stop := e
     | _ -> bump t 1);
    bump t 1;
    M.add t.map !seg_start (!seg_stop, owner)

  let segments t =
    List.map (fun (s, (e, o)) -> { Tracker.start = s; stop = e; owner = o })
      (M.to_list t.map)
end

(* One differential step.  [Rewrite] picks, when it runs, an existing
   segment and a sub-range of it by fractions and writes it with the
   segment's own owner: the no-op shapes a steady-state loop takes,
   which random ranges rarely hit. *)
type tracker_step =
  | Write of int * int * int (* two endpoints, owner *)
  | Rewrite of int * int * int (* segment pick, two endpoint picks *)
  | Query of int * int
  | Iter of int * int

let gen_tracker_step =
  QCheck.Gen.(
    let owner = int_range (-1) 3 and pick = int_range 0 1000 in
    frequency
      [
        (3, map3 (fun a b o -> Write (a, b, o)) pick pick owner);
        (3, map3 (fun i a b -> Rewrite (i, a, b)) pick pick pick);
        (1, map2 (fun a b -> Query (a, b)) pick pick);
        (1, map2 (fun a b -> Iter (a, b)) pick pick);
      ])

let print_tracker_step = function
  | Write (a, b, o) -> Printf.sprintf "W(%d,%d,o%d)" a b o
  | Rewrite (i, a, b) -> Printf.sprintf "R(%d,%d,%d)" i a b
  | Query (a, b) -> Printf.sprintf "Q(%d,%d)" a b
  | Iter (a, b) -> Printf.sprintf "I(%d,%d)" a b

let prop_tracker_matches_oracle =
  QCheck.Test.make ~name:"tracker matches the split/merge oracle" ~count:600
    (QCheck.make
       ~print:(fun (len, o, steps) ->
         Printf.sprintf "len=%d owner=%d %s" len o
           (String.concat " " (List.map print_tracker_step steps)))
       QCheck.Gen.(
         triple (int_range 1 64) (int_range (-1) 3)
           (list_size (int_range 1 80) gen_tracker_step)))
    (fun (len, initial_owner, steps) ->
      let t = Tracker.create ~len ~initial_owner in
      let o = Oracle_tracker.create ~len ~initial_owner in
      (* A range [lo, hi) inside [0, len) from two picks. *)
      let range ~base ~span a b =
        let a = base + (a mod span) and b = base + (b mod span) in
        (min a b, max a b + 1)
      in
      let same_delta f g =
        let t0 = Tracker.ops t and o0 = o.Oracle_tracker.ops in
        let got = f () and want = g () in
        got = want && Tracker.ops t - t0 = o.Oracle_tracker.ops - o0
      in
      List.for_all
        (fun step ->
           let ok =
             match step with
             | Write (a, b, owner) ->
               let start, stop = range ~base:0 ~span:len a b in
               same_delta
                 (fun () -> Tracker.write t ~start ~stop ~owner)
                 (fun () -> Oracle_tracker.write o ~start ~stop ~owner)
             | Rewrite (i, a, b) ->
               let segs = Tracker.segments t in
               let seg = List.nth segs (i mod List.length segs) in
               let start, stop =
                 range ~base:seg.Tracker.start
                   ~span:(seg.Tracker.stop - seg.Tracker.start) a b
               in
               let owner = seg.Tracker.owner in
               same_delta
                 (fun () -> Tracker.write t ~start ~stop ~owner)
                 (fun () -> Oracle_tracker.write o ~start ~stop ~owner)
             | Query (a, b) ->
               let start, stop = range ~base:0 ~span:len a b in
               same_delta
                 (fun () -> Tracker.query t ~start ~stop)
                 (fun () -> Oracle_tracker.query o ~start ~stop)
             | Iter (a, b) ->
               let start, stop = range ~base:0 ~span:len a b in
               same_delta
                 (fun () ->
                    let out = ref [] in
                    Tracker.iter_range t ~start ~stop (fun start stop owner ->
                        out := { Tracker.start; stop; owner } :: !out);
                    List.rev !out)
                 (fun () -> Oracle_tracker.query o ~start ~stop)
           in
           ok && Tracker.segments t = Oracle_tracker.segments o)
        steps)

(* The stamp index against a linear scan.  Writes mix owner 0 (not
   resident) with stamps reused from earlier writes and fresh ones, the
   way vbuf residency writes them.  After every write the indexed
   tracker must be sound ([check_invariants] covers the index) and, for
   every bound, [coldest ~below] must pick what a scan of [segments]
   picks: the smallest owner in [1, below), the lowest start among
   equals. *)
type stamp_pick = Unstamp | Reuse of int | Fresh

let print_stamp_pick = function
  | Unstamp -> "0"
  | Reuse i -> Printf.sprintf "r%d" i
  | Fresh -> "f"

let prop_tracker_coldest =
  QCheck.Test.make ~name:"indexed tracker coldest matches a scan" ~count:400
    (QCheck.make
       ~print:(fun (len, steps) ->
         Printf.sprintf "len=%d %s" len
           (String.concat " "
              (List.map
                 (fun (a, b, p) ->
                    Printf.sprintf "W(%d,%d,%s)" a b (print_stamp_pick p))
                 steps)))
       QCheck.Gen.(
         pair (int_range 1 64)
           (list_size (int_range 1 60)
              (triple (int_range 0 1000) (int_range 0 1000)
                 (frequency
                    [
                      (2, return Unstamp);
                      (3, map (fun i -> Reuse i) (int_range 0 1000));
                      (3, return Fresh);
                    ])))))
    (fun (len, steps) ->
      let t = Tracker.create_indexed ~len ~initial_owner:0 in
      let used = ref [] and next = ref 1 in
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
        (fun (a, b, pick) ->
           let start = min (a mod len) (b mod len)
           and stop = max (a mod len) (b mod len) + 1 in
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
             (fun below -> Tracker.coldest t ~below = scan below)
             (max_int :: List.init (!next + 1) Fun.id))
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
    (Tracker.coldest t ~below:max_int
     = Some { Tracker.start = 3; stop = 5; owner = Tracker.max_indexed_owner });
  checkb "bound excludes it" true
    (Tracker.coldest t ~below:Tracker.max_indexed_owner = None);
  raises "unindexed tracker has no coldest" (fun () ->
      Tracker.coldest (Tracker.create ~len:10 ~initial_owner:1) ~below:2)

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
      (* every element accounted for exactly once across owners *)
      List.fold_left (fun acc o -> acc + Tracker.owned_count t ~owner:o) 0 owners
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
             && Tracker.owned_count t ~owner:o
                = Array.fold_left
                    (fun acc x -> if x = o then acc + 1 else acc)
                    0 model)
           owners)

(* ---------------- Virtual buffers ---------------- *)

let machine4 () =
  Gpusim.Machine.create ~functional:true (Gpusim.Config.test_box ~n_devices:4 ())

let test_vbuf_h2d_d2h_roundtrip () =
  let m = machine4 () in
  let vb = Vbuf.create m ~name:"a" ~len:103 in
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
  let vb = Vbuf.create m ~name:"a" ~len:100 in
  let src = Array.init 100 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Device 1 wants to read [0, 50): elements [0,25) live on device 0,
     [25,50) already on device 1. *)
  let n = Vbuf.sync_for_read vb ~dev:1 ~ranges:[ (0, 50) ] in
  checki "one transfer issued" 1 n;
  let inst1 = Gpusim.Buffer.data_exn (Vbuf.instance vb 1) in
  checkb "data arrived" true (inst1.(10) = 10.0);
  (* Owners unchanged by reads. *)
  checki "owner still 0" 0 (Tracker.owner_at (Vbuf.tracker vb) 10);
  (* Writes change ownership. *)
  Vbuf.update_for_write vb ~dev:1 ~ranges:[ (0, 50) ];
  checki "owner now 1" 1 (Tracker.owner_at (Vbuf.tracker vb) 10);
  Tracker.check_invariants (Vbuf.tracker vb)

let test_vbuf_gather_after_writes () =
  let m = machine4 () in
  let vb = Vbuf.create m ~name:"a" ~len:40 in
  let src = Array.init 40 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Each device overwrites its chunk with dev-id marks. *)
  for d = 0 to 3 do
    let inst = Gpusim.Buffer.data_exn (Vbuf.instance vb d) in
    for i = d * 10 to (d * 10) + 9 do
      inst.(i) <- float_of_int (1000 + d)
    done;
    Vbuf.update_for_write vb ~dev:d ~ranges:[ (d * 10, (d * 10) + 10) ]
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
  let vb = Vbuf.create m ~name:"a" ~len:100 in
  let src = Array.make 100 0.0 in
  Vbuf.h2d ~cfg:Rconfig.beta vb ~src:(Some src);
  checki "beta: no h2d bytes" 0 (Gpusim.Machine.stats m).Gpusim.Machine.h2d_bytes;
  checki "beta: tracker updated" 2 (Tracker.segment_count (Vbuf.tracker vb));
  let n = Vbuf.sync_for_read ~cfg:Rconfig.beta vb ~dev:1 ~ranges:[ (0, 100) ] in
  checki "beta: stale segments counted" 1 n;
  checki "beta: no p2p bytes" 0 (Gpusim.Machine.stats m).Gpusim.Machine.p2p_bytes;
  let vb2 = Vbuf.create m ~name:"b" ~len:100 in
  Vbuf.h2d ~cfg:Rconfig.gamma vb2 ~src:(Some src);
  checki "gamma: tracker untouched" 1 (Tracker.segment_count (Vbuf.tracker vb2));
  checki "gamma: no sync work" 0
    (Vbuf.sync_for_read ~cfg:Rconfig.gamma vb2 ~dev:1 ~ranges:[ (0, 100) ])

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
  let vb = Vbuf.create m ~name:"temps" ~len:10 in
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
   replica-freshness metadata. *)
let faulty_machine4 () =
  let m = machine4 () in
  Gpusim.Machine.inject_faults m
    (Gpusim.Faults.create { Gpusim.Faults.null_spec with seed = 1 });
  m

let test_vbuf_checkpoint_restore () =
  let m = faulty_machine4 () in
  let vb = Vbuf.create m ~name:"a" ~len:50 in
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
  let other = Vbuf.create m ~name:"b" ~len:50 in
  checkb "wrong-buffer restore rejected" true
    (try
       Vbuf.restore other snap;
       false
     with Invalid_argument _ -> true)

let test_vbuf_recover_fresh_replica () =
  let m = faulty_machine4 () in
  let vb = Vbuf.create m ~name:"a" ~len:40 in
  let src = Array.init 40 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Device 1 owns [10,20); the host holds a fresh copy of everything
     (the h2d source), so losing device 1 loses no data. *)
  Gpusim.Faults.mark_lost (Option.get (Gpusim.Machine.fault_state m)) 1;
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
  let vb = Vbuf.create m ~name:"a" ~len:40 in
  Vbuf.h2d vb ~src:(Some (Array.init 40 float_of_int));
  (* Device 1 writes [12,18): that range now exists nowhere else. *)
  Vbuf.update_for_write vb ~dev:1 ~ranges:[ (12, 18) ];
  Gpusim.Faults.mark_lost (Option.get (Gpusim.Machine.fault_state m)) 1;
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
      let vb = Vbuf.create m ~name:"v" ~len in
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
             Vbuf.update_for_write vb ~dev ~ranges:[ (lo, hi) ];
             Tracker.check_invariants (Vbuf.tracker vb)
           | VRead (dev, lo, hi) ->
             ignore (Vbuf.sync_for_read vb ~dev ~ranges:[ (lo, hi) ]);
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
  let vb = Vbuf.create m ~name:"h" ~len:40 in
  let src = Array.init 40 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  (* Pretend the host re-produced [10,20) (e.g. a host-side loop
     between launches): mark it host-owned and corrupt every device
     instance there, so any device gather returns garbage. *)
  Tracker.write (Vbuf.tracker vb) ~start:10 ~stop:20 ~owner:Tracker.host;
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
  let n = Vbuf.sync_for_read vb ~dev:2 ~ranges:[ (10, 20) ] in
  checki "one upload" 1 n;
  let inst2 = Gpusim.Buffer.data_exn (Vbuf.instance vb 2) in
  checkb "sync uploads host data" true
    (Array.for_all (fun i -> inst2.(i) = src.(i)) (Array.init 10 (fun i -> i + 10)));
  let stats = Gpusim.Machine.stats m in
  checki "no peer traffic" p2p_before stats.Gpusim.Machine.p2p_bytes;
  checkb "went over PCIe" true (stats.Gpusim.Machine.h2d_bytes > h2d_before);
  (* Batch mode cannot pack host-owned segments into a peer copy. *)
  let n = Vbuf.sync_for_read ~batch:true vb ~dev:3 ~ranges:[ (10, 20) ] in
  checki "batch uploads individually" 1 n;
  let inst3 = Gpusim.Buffer.data_exn (Vbuf.instance vb 3) in
  checkb "batch data correct" true (inst3.(15) = 15.0)

(* Regression: enumerator ranges over-approximate, so both ends must be
   clamped to the buffer and empty/out-of-bounds ranges dropped (the
   tracker rejects them with Invalid_argument). *)
let test_vbuf_range_clamping () =
  let m = machine4 () in
  let vb = Vbuf.create m ~name:"c" ~len:100 in
  let src = Array.init 100 float_of_int in
  Vbuf.h2d vb ~src:(Some src);
  let wild = [ (-5, 3); (95, 200); (150, 160); (4, 4) ] in
  let n = Vbuf.sync_for_read vb ~dev:1 ~ranges:wild in
  checkb "some transfers" true (n > 0);
  let inst1 = Gpusim.Buffer.data_exn (Vbuf.instance vb 1) in
  checkb "head synced" true (inst1.(0) = 0.0 && inst1.(2) = 2.0);
  checkb "tail synced" true (inst1.(95) = 95.0 && inst1.(99) = 99.0);
  Vbuf.update_for_write vb ~dev:1 ~ranges:wild;
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
  Tracker.reset_ops t;
  checki "reset" 0 (Tracker.ops t);
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
    (Rconfig.is_valid { Rconfig.transfers = true; patterns = false });
  Alcotest.(check string) "names" "alpha,beta,gamma"
    (String.concat ","
       (List.map Rconfig.name [ Rconfig.alpha; Rconfig.beta; Rconfig.gamma ]))

(* ---------------- Sync memo ---------------- *)

(* A 100-element buffer scattered over 4 devices, with [30, 35) then
   written by device 3: a read of [10, 90) on device 0 makes five
   transfers, from devices 1, 3, 1, 2 and 3.  Tracing is on, so every issued
   transfer is visible with its simulated times. *)
let memo_machine ?mem_capacity ?(faults = false) () =
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:4 ?mem_capacity ())
  in
  if faults then
    Gpusim.Machine.inject_faults m
      (Gpusim.Faults.create { Gpusim.Faults.null_spec with seed = 1 });
  Gpusim.Machine.enable_trace m;
  m

let memo_buffer ?(name = "a") m =
  let vb = Vbuf.create m ~name ~len:100 in
  Vbuf.h2d vb ~src:(Some (Array.init 100 float_of_int));
  Vbuf.update_for_write vb ~dev:3 ~ranges:[ (30, 35) ];
  vb

(* One sync of [10, 90) onto device 0: the transfers it reported, the
   ownership-tracker ops it added and the machine events it issued. *)
let memo_sync ?memo ?stats ?batch m vb =
  let tr = Vbuf.tracker vb in
  let ops = Tracker.ops tr and seen = List.length (Gpusim.Machine.trace m) in
  let n = Vbuf.sync_for_read ?batch ?memo ?stats vb ~dev:0 ~ranges:[ (10, 90) ] in
  (n, Tracker.ops tr - ops, List.filteri (fun i _ -> i >= seen) (Gpusim.Machine.trace m))

let check_stats what (hits, misses) (s : Vbuf.memo_stats) =
  Alcotest.(check (pair int int)) what (hits, misses) (s.Vbuf.hits, s.Vbuf.misses)

let test_vbuf_sync_memo () =
  (* A hit does what a live walk from the same state does: the same
     transfers at the same simulated times, the same tracker ops, the
     same data.  The first sync makes the read set resident, so it is
     not recorded; the second records; the third hits. *)
  let live_m = memo_machine () and memo_m = memo_machine () in
  let live = memo_buffer live_m and memoed = memo_buffer memo_m in
  let memo = Vbuf.memo () and stats = { Vbuf.hits = 0; misses = 0 } in
  let same ?(transfers = 5) what =
    let a = memo_sync live_m live and b = memo_sync ~memo ~stats memo_m memoed in
    checkb what true (a = b);
    let (n, _, evs) = b in
    checkb (what ^ ": transfers issued") true (n = transfers && evs <> [])
  in
  same "first sync";
  same "second sync";
  check_stats "two misses" (0, 2) stats;
  same "hit";
  check_stats "then a hit" (1, 2) stats;
  checkb "same data" true
    (Gpusim.Buffer.data_exn (Vbuf.instance live 0)
     = Gpusim.Buffer.data_exn (Vbuf.instance memoed 0));
  (* A write by another device changes the ownership tracker: the next
     sync misses, and it and the syncs after it also fetch the new
     owner's range, which splits device 2's. *)
  Vbuf.update_for_write live ~dev:1 ~ranges:[ (60, 70) ];
  Vbuf.update_for_write memoed ~dev:1 ~ranges:[ (60, 70) ];
  same ~transfers:7 "after a write";
  check_stats "the write forces a miss" (1, 3) stats;
  (* Device 0's residency is as it was, so that miss recorded. *)
  same ~transfers:7 "hit again";
  check_stats "then hits again" (2, 3) stats;
  (* The memo is never looked up under fault injection or under a
     finite capacity, for syncs or writes, nor for a batched sync. *)
  let never what ?batch m =
    let vb = memo_buffer m and stats = { Vbuf.hits = 0; misses = 0 } in
    let memo = Vbuf.memo () in
    for _ = 1 to 4 do
      ignore (memo_sync ?batch ~memo ~stats m vb);
      if batch = None then
        Vbuf.update_for_write ~memo ~stats vb ~dev:0 ~ranges:[ (0, 5) ]
    done;
    check_stats what (0, 0) stats
  in
  never "faults: no lookups" (memo_machine ~faults:true ());
  never "finite capacity: no lookups" (memo_machine ~mem_capacity:(1 lsl 20) ());
  never "batch: no lookups" ~batch:true (memo_machine ());
  (* A slot keeps the four latest outcomes: after recording five
     buffers, the four newest hit and the oldest misses. *)
  let m = memo_machine () in
  let bufs = List.init 5 (fun i -> memo_buffer ~name:(string_of_int i) m) in
  let memo = Vbuf.memo () and stats = { Vbuf.hits = 0; misses = 0 } in
  List.iter
    (fun vb -> for _ = 1 to 2 do ignore (memo_sync ~memo ~stats m vb) done)
    bufs;
  check_stats "five buffers recorded" (0, 10) stats;
  List.iter (fun vb -> ignore (memo_sync ~memo ~stats m vb)) (List.rev (List.tl bufs));
  check_stats "the four newest hit" (4, 10) stats;
  ignore (memo_sync ~memo ~stats m (List.hd bufs));
  check_stats "the oldest was dropped" (4, 11) stats;
  (* A Swap alternating one name between two buffers: one slot serves
     both, and once each is recorded both hit. *)
  let m = memo_machine () in
  let x = memo_buffer ~name:"x" m and y = memo_buffer ~name:"y" m in
  let memo = Vbuf.memo () and stats = { Vbuf.hits = 0; misses = 0 } in
  for _ = 1 to 4 do
    ignore (memo_sync ~memo ~stats m x);
    ignore (memo_sync ~memo ~stats m y)
  done;
  check_stats "both buffers hit" (4, 4) stats

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
          Alcotest.test_case "sync memo" `Quick test_vbuf_sync_memo;
          qtest prop_vbuf_model;
        ] );
      ( "fault-recovery",
        [
          Alcotest.test_case "host-array validation" `Quick
            test_vbuf_host_array_validation;
          Alcotest.test_case "checkpoint/restore" `Quick
            test_vbuf_checkpoint_restore;
          Alcotest.test_case "recover via fresh replicas" `Quick
            test_vbuf_recover_fresh_replica;
          Alcotest.test_case "recover reports lost data" `Quick
            test_vbuf_recover_lost_data;
        ] );
    ]
