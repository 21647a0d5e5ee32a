(* Tests for the device-memory capacity model end to end: the engine's
   memory-pressure-adaptive launching (spill + chunking), the OOM
   diagnostics, composition with fault injection, and a model-based
   property over random spill/ensure/checkpoint/restore schedules.

   The headline invariant (DESIGN.md §15): for any capacity under
   which the run is feasible, functional results are bit-identical to
   the uncapped run; infeasible runs fail with a one-line diagnostic
   naming the buffer, the device and the shortfall. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

open Gpu_runtime

let compile prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> failwith (Mekong.Toolchain.error_message e)

let run_with ?mem_capacity ?faults ?checkpoint_every ~devices prog =
  let machine =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.k80_box ~n_devices:devices ?mem_capacity ())
  in
  (match faults with
   | Some spec -> Gpusim.Machine.inject_faults machine (Gpusim.Faults.create spec)
   | None -> ());
  let r = Mekong.Multi_gpu.run ?checkpoint_every ~machine (compile prog) in
  (r, machine)

(* No chunked launch, chunk or live-OOM refinement in the run. *)
let no_mem_machinery (r : Mekong.Multi_gpu.result) =
  List.for_all
    (fun n -> Obs.Metrics.get r.Mekong.Multi_gpu.metrics n = 0.0)
    [ "engine.chunked_launches"; "engine.chunks"; "engine.oom_refinements" ]

let high_water m =
  let hw = ref 0 in
  for d = 0 to Gpusim.Machine.n_devices m - 1 do
    hw := max !hw (Gpusim.Machine.mem_high_water m d)
  done;
  !hw

(* ---------------- Feasible capped runs are bit-identical ----------- *)

(* The acceptance experiment: matmul capped at a quarter of its own
   uncapped per-device high-water mark must still complete, with the
   engine visibly working for it (nonzero spill traffic and chunked
   launches), and produce bit-identical output. *)
let test_matmul_quarter_capacity () =
  (* n must be large enough that a quarter of the high-water clears the
     single-axis chunking floor: the per-chunk footprint cannot drop
     below one partition's full band of A, which is hw/(g+2) plus one
     block-column of B — about 22% of hw at n = 256, g = 4. *)
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:256 in
  let r0, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  checkb "uncapped run uses no mem machinery" true (no_mem_machinery r0);
  checki "uncapped run spills nothing" 0
    (Gpusim.Machine.stats m0).Gpusim.Machine.n_spills;
  let hw = high_water m0 in
  checkb "high water measured" true (hw > 0);
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:256 in
  let r, m = run_with ~devices:4 ~mem_capacity:(hw / 4) prog in
  checkb "quarter-capacity output bit-identical" true (out = baseline);
  let st = Gpusim.Machine.stats m in
  checkb "nonzero spill bytes" true (st.Gpusim.Machine.spill_bytes > 0);
  checkb "nonzero spills" true (st.Gpusim.Machine.n_spills > 0);
  let mem name = Obs.Metrics.get r.Mekong.Multi_gpu.metrics ("engine." ^ name) in
  checkb "chunked launches happened" true (mem "chunked_launches" > 0.0);
  checkb "multiple chunks per launch" true
    (mem "chunks" > mem "chunked_launches");
  checkb "capacity respected" true (high_water m <= hw / 4);
  checkb "capped run is not faster" true
    (r.Mekong.Multi_gpu.time >= r0.Mekong.Multi_gpu.time)

(* The same invariant on a stencil with halo exchanges, at 50% and 25%
   of the uncapped high-water. *)
let test_hotspot_under_pressure () =
  let mk () = Apps.Workloads.functional_hotspot ~n:64 ~iterations:6 in
  let prog, out, _ = mk () in
  let _, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  let hw = high_water m0 in
  List.iter
    (fun denom ->
       let prog, out, _ = mk () in
       let r, m = run_with ~devices:4 ~mem_capacity:(hw / denom) prog in
       checkb
         (Printf.sprintf "1/%d capacity bit-identical" denom)
         true (out = baseline);
       checkb
         (Printf.sprintf "1/%d capacity spilled" denom)
         true
         ((Gpusim.Machine.stats m).Gpusim.Machine.spill_bytes > 0);
       ignore r)
    [ 2; 4 ]

(* A capacity above the uncapped working set must change nothing at
   all: same output, same simulated time, no spills, no chunking. *)
let test_loose_capacity_is_invisible () =
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:64 in
  let r0, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  let hw = high_water m0 in
  let prog, out, _ = Apps.Workloads.functional_matmul ~n:64 in
  let r, m = run_with ~devices:4 ~mem_capacity:hw prog in
  checkb "output identical" true (out = baseline);
  checkb "time identical" true
    (r.Mekong.Multi_gpu.time = r0.Mekong.Multi_gpu.time);
  checki "no spills" 0 (Gpusim.Machine.stats m).Gpusim.Machine.n_spills;
  checkb "no chunking" true (no_mem_machinery r)

(* ---------------- Infeasibility diagnostics ----------------------- *)

let one_line msg = not (String.contains msg '\n')

let test_infeasible_diagnostic () =
  let prog, _, _ = Apps.Workloads.functional_matmul ~n:64 in
  match run_with ~devices:4 ~mem_capacity:2048 prog with
  | _ -> Alcotest.fail "infeasible run completed"
  | exception Failure msg ->
    checkb "one line" true (one_line msg);
    let has s =
      Str.string_match (Str.regexp (".*" ^ Str.quote s)) msg 0
    in
    checkb "names the kernel" true (has "matmul");
    checkb "says infeasible" true (has "infeasible");
    checkb "names a buffer" true (has "buffer");
    checkb "names the device" true (has "device");
    checkb "states the shortfall" true (has "short")

(* Capacities below one element: nothing of the scatter fits, and the
   run still ends at the infeasibility diagnostic. *)
let test_sub_element_capacity () =
  List.iter
    (fun cap ->
       let prog, _, _ = Apps.Workloads.functional_vecadd ~n:4096 in
       match run_with ~devices:2 ~mem_capacity:cap prog with
       | _ -> Alcotest.failf "cap %d: infeasible run completed" cap
       | exception Failure msg ->
         checkb
           (Printf.sprintf "cap %d says infeasible" cap)
           true
           (Str.string_match (Str.regexp ".*infeasible") msg 0)
       | exception Invalid_argument msg ->
         Alcotest.failf "cap %d: Invalid_argument %s" cap msg)
    [ 1; 2; 3 ]

let test_non_launch_oom_diagnostic () =
  (* An Out_of_memory escaping anything but a launch (here: forced
     directly against the machine) is not retryable; the engine turns
     it into a one-line failure rather than leaking the exception. *)
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:2 ~mem_capacity:100 ())
  in
  match Gpusim.Machine.mem_reserve m ~device:1 ~bytes:200 with
  | _ -> Alcotest.fail "over-capacity reserve accepted"
  | exception Gpusim.Machine.Out_of_memory { device; requested; free } ->
    checki "device" 1 device;
    checki "requested" 200 requested;
    checki "free" 100 free

(* A capped machine's residency trackers pack (stamp, start) into one
   int key, so a buffer too long to pack is refused up front, in one
   line naming it; an uncapped machine keeps no index and no limit. *)
let test_capped_length_limit () =
  let len = Tracker.max_indexed_len + 1 in
  let capped =
    Gpusim.Machine.create ~functional:false
      (Gpusim.Config.test_box ~n_devices:2 ~mem_capacity:1024 ())
  in
  match Vbuf.create (Vbuf.space capped) ~name:"huge" ~len with
  | _ -> Alcotest.fail "unpackable capped vbuf accepted"
  | exception Invalid_argument msg ->
    checkb "one line" true (one_line msg);
    checkb "names the buffer" true
      (Str.string_match (Str.regexp ".*(huge)") msg 0)

(* ---------------- Composition with fault injection ----------------- *)

(* Memory pressure and self-healing are orthogonal robustness layers;
   the guarantee is their conjunction: under a capped machine AND a PR-2
   fault schedule (transient faults plus one permanent loss, >= 1
   survivor), outputs still match the uncapped fault-free baseline. *)
let test_capped_run_survives_faults () =
  let mk () = Apps.Workloads.functional_hotspot ~n:64 ~iterations:6 in
  let prog, out, _ = mk () in
  let _, m0 = run_with ~devices:4 prog in
  let baseline = Array.copy out in
  let hw = high_water m0 in
  let cap = hw / 2 in
  (* capped, fault-free: gives the loss schedule a realistic time *)
  let prog, out, _ = mk () in
  let r1, _ = run_with ~devices:4 ~mem_capacity:cap prog in
  checkb "capped clean run bit-identical" true (out = baseline);
  List.iter
    (fun seed ->
       let prog, out, _ = mk () in
       let spec =
         {
           Gpusim.Faults.null_spec with
           seed;
           (* Spilling multiplies the transfers per statement, so the
              per-transfer rate must stay low enough that a whole
              attempt can pass within the backoff budget. *)
           kernel_fault_rate = 0.01;
           transfer_fault_rate = 0.002;
           scheduled_losses = [ (2, 0.3 *. r1.Mekong.Multi_gpu.time) ];
         }
       in
       let r, _ =
         run_with ~devices:4 ~mem_capacity:cap ~faults:spec
           ~checkpoint_every:3 prog
       in
       checkb
         (Printf.sprintf "seed %d: capped+faulty bit-identical" seed)
         true (out = baseline);
       checki
         (Printf.sprintf "seed %d: loss fired" seed)
         1
         r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost)
    [ 11; 42; 1337 ]

(* ---------------- Model-based residency property ------------------ *)

(* The full-scan eviction choice that the residency trackers' stamp
   index replaced, kept as the differential oracle: it visits every
   segment of every pool vbuf's residency on [dev] and keeps the first
   with the smallest stamp below [stamp], so ties go to pool order,
   then to the lowest start. *)
let scan_coldest pool ~dev ~stamp =
  List.fold_left
    (fun acc v ->
       List.fold_left
         (fun acc (seg : Tracker.segment) ->
            if seg.owner > 0 && seg.owner < stamp then
              match acc with
              | Some (_, (best : Tracker.segment)) when best.owner <= seg.owner
                -> acc
              | _ -> Some (v, seg)
            else acc)
         acc
         (Tracker.segments (Vbuf.residency v ~dev)))
    None pool

(* Random schedules over one space of 2-3 vbufs on a capacity-limited
   machine, created in name order or in reverse (the pool is in name
   order either way): device writes, synced reads, explicit spills,
   ensure_resident calls, launches whose reads and writes over several
   vbufs share one stamp (so stamps tie across the pool), and
   checkpoint/restore cycles.  After every operation the segment
   trackers must satisfy their invariants and the residency accounting
   must be consistent (Vbuf.check_residency); every synced read and
   the final gathers must agree with flat reference arrays; and every
   eviction, (vbuf, device, start, stop) in order, must be the one the
   full-scan oracle picks at that moment. *)
type mop =
  | MWrite of int * int * int * int (* vbuf, device, lo, hi *)
  | MRead of int * int * int * int
  | MSpill of int * int * int * int
  | MEnsure of int * int * int * int
  | MLaunch of int * (int * int * int) list (* device, (vbuf, lo, hi) *)
  | MCheckpoint
  | MRestore

let gen_range ~width =
  QCheck.Gen.(
    int_range 0 79 >>= fun a ->
    int_range 0 width >>= fun w -> return (min a 79, min (a + 1 + w) 80))

let gen_mop =
  QCheck.Gen.(
    int_range 0 2 >>= fun vb ->
    int_range 0 3 >>= fun dev ->
    gen_range ~width:23 >>= fun (lo, hi) ->
    frequency
      [
        (4, return (MWrite (vb, dev, lo, hi)));
        (4, return (MRead (vb, dev, lo, hi)));
        (2, return (MSpill (vb, dev, lo, hi)));
        (2, return (MEnsure (vb, dev, lo, hi)));
        ( 3,
          list_size (int_range 1 3)
            (pair (int_range 0 2) (gen_range ~width:15))
          >|= fun parts ->
          MLaunch (dev, List.map (fun (v, (lo, hi)) -> (v, lo, hi)) parts) );
        (1, return MCheckpoint);
        (1, return MRestore);
      ])

let print_mop = function
  | MWrite (v, d, l, h) -> Printf.sprintf "W%d.%d[%d,%d)" v d l h
  | MRead (v, d, l, h) -> Printf.sprintf "R%d.%d[%d,%d)" v d l h
  | MSpill (v, d, l, h) -> Printf.sprintf "S%d.%d[%d,%d)" v d l h
  | MEnsure (v, d, l, h) -> Printf.sprintf "E%d.%d[%d,%d)" v d l h
  | MLaunch (d, parts) ->
    Printf.sprintf "L%d{%s}" d
      (String.concat ","
         (List.map (fun (v, l, h) -> Printf.sprintf "%d[%d,%d)" v l h) parts))
  | MCheckpoint -> "C"
  | MRestore -> "X"

let residency_model ~name ~reverse =
  QCheck.Test.make ~name ~count:150
    (QCheck.make
       ~print:(fun (n, l) ->
         Printf.sprintf "%d vbufs: %s" n
           (String.concat "; " (List.map print_mop l)))
       QCheck.Gen.(
         pair (int_range 2 3) (list_size (int_range 1 40) gen_mop)))
    (fun (n, ops) ->
      let len = 80 in
      let m =
        Gpusim.Machine.create ~functional:true
          (* 32 four-byte elements per device: every single op range
             (<= 24 elements) fits after eviction, but no whole buffer
             does, so the schedule constantly spills and faults back.
             A launch's parts (<= 48 elements) may not fit together. *)
          (Gpusim.Config.test_box ~n_devices:4 ~mem_capacity:128 ())
      in
      let space = Vbuf.space m and order = List.init n Fun.id in
      let created =
        List.map
          (fun i ->
             (i, Vbuf.create space ~name:(String.make 1 (Char.chr (97 + i))) ~len))
          (if reverse then List.rev order else order)
      in
      let vbs = Array.init n (fun i -> List.assoc i created) in
      (* The oracle scans the buffers in name order. *)
      let pool = Array.to_list vbs in
      let models =
        Array.init n (fun i ->
            Array.init len (fun j -> float_of_int ((1000 * i) + j)))
      in
      let evicted = ref [] and oracle = ref [] in
      let named = function
        | Some (v, (seg : Tracker.segment)) ->
          Some (Vbuf.name v, seg.Tracker.start, seg.Tracker.stop)
        | None -> None
      in
      Vbuf.set_eviction_hook
        (Some
           (fun v ~dev ~stamp ~start ~stop ->
              evicted := (Vbuf.name v, dev, start, stop) :: !evicted;
              oracle := (dev, named (scan_coldest pool ~dev ~stamp)) :: !oracle));
      Fun.protect ~finally:(fun () -> Vbuf.set_eviction_hook None)
      @@ fun () ->
      Array.iteri
        (fun i vb -> Vbuf.h2d vb ~src:(Some (Array.copy models.(i))))
        vbs;
      let snap = ref None in
      let tag = ref 100.0 in
      let ok = ref true in
      let validate () =
        Array.iter
          (fun vb ->
             Tracker.check_invariants (Vbuf.tracker vb);
             Vbuf.check_residency vb)
          vbs
      in
      let stamp_or s =
        match s with Some s -> s | None -> Gpusim.Machine.lru_tick m
      in
      let read ?stamp vi dev lo hi =
        ignore
          (Vbuf.sync_for_read vbs.(vi) ~dev ~batch:false ~stamp:(stamp_or stamp)
             ~raw:0 ~ranges:[ (lo, hi) ]);
        let inst = Gpusim.Buffer.data_exn (Vbuf.instance vbs.(vi) dev) in
        for i = lo to hi - 1 do
          if inst.(i) <> models.(vi).(i) then ok := false
        done
      in
      (* Make the range resident first, then store through the instance
         like a kernel would, then declare the write. *)
      let write ?stamp vi dev lo hi =
        tag := !tag +. 1.0;
        Vbuf.ensure_resident ?stamp vbs.(vi) ~dev ~ranges:[ (lo, hi) ];
        let inst = Gpusim.Buffer.data_exn (Vbuf.instance vbs.(vi) dev) in
        for i = lo to hi - 1 do
          inst.(i) <- !tag +. float_of_int i;
          models.(vi).(i) <- !tag +. float_of_int i
        done;
        Vbuf.update_for_write vbs.(vi) ~dev ~stamp:(stamp_or stamp)
          ~raw:0 ~ranges:[ (lo, hi) ]
      in
      validate ();
      List.iter
        (fun op ->
           (match op with
            | MWrite (vi, dev, lo, hi) -> write (vi mod n) dev lo hi
            | MRead (vi, dev, lo, hi) -> read (vi mod n) dev lo hi
            | MSpill (vi, dev, lo, hi) ->
              ignore (Vbuf.spill vbs.(vi mod n) ~dev ~ranges:[ (lo, hi) ])
            | MEnsure (vi, dev, lo, hi) ->
              Vbuf.ensure_resident vbs.(vi mod n) ~dev ~ranges:[ (lo, hi) ]
            | MLaunch (dev, parts) -> (
                (* One stamp for the whole launch: none of its parts can
                   evict another, and they all tie for later evictions. *)
                let stamp = Gpusim.Machine.lru_tick m in
                try
                  List.iter
                    (fun (vi, lo, hi) ->
                       read ~stamp (vi mod n) dev lo hi;
                       write ~stamp (vi mod n) dev lo hi)
                    parts
                with Gpusim.Machine.Out_of_memory _ -> ())
            | MCheckpoint ->
              snap :=
                Some
                  (Array.map (fun vb -> Vbuf.checkpoint vb) vbs,
                   Array.map Array.copy models)
            | MRestore -> (
                match !snap with
                | Some (s, saved) ->
                  Array.iteri (fun i vb -> Vbuf.restore vb s.(i)) vbs;
                  Array.iteri
                    (fun i a -> Array.blit a 0 models.(i) 0 len)
                    saved
                | None -> ()));
           validate ())
        ops;
      let gathered =
        Array.for_all2
          (fun vb model ->
             let out = Array.make len nan in
             Vbuf.d2h vb ~dst:(Some out);
             out = model)
          vbs models
      in
      let want =
        List.map (fun (name, dev, start, stop) -> (dev, Some (name, start, stop)))
          !evicted
      in
      !ok && gathered && want = !oracle)

(* ---------------- The eviction loop against a spill-built loop ----------------

   [ensure_resident] evicts one segment per round: stamp the range,
   then take the pool's coldest segment older than the stamp and evict
   it, until the range's gaps fit.  The oracle is that loop built from
   public calls and a scan of every residency segment: before each
   range it evicts with [Vbuf.spill], one segment at a time, and then
   the real [ensure_resident] finds room without evicting.  The real
   loop stamps the range first so no part of it can be picked; the
   oracle instead clips the target's segments to outside the range,
   which yields the same pieces (a straddling segment's outer part).
   Two worlds run the same schedule, one through [ensure_resident] and
   one through the oracle, and must agree after every step: the
   victims in order, every ownership and residency tracker (segments
   and, for ownership, the ops the pattern charge reads), resident
   bytes, device memory and [Machine.stats] (spill counters and
   pattern seconds included), and the final gathers.  This checks
   [Tracker.write]'s in-place merges and lookup hint where eviction
   cuts the residency maps finest. *)

type world = { w_m : Gpusim.Machine.t; w_space : Vbuf.space; w_vbs : Vbuf.t array }

let make_world ~n ~fault_seed =
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:2 ~mem_capacity:128 ())
  in
  Option.iter
    (fun seed ->
       Gpusim.Machine.inject_faults m
         (Gpusim.Faults.create
            { Gpusim.Faults.null_spec with seed; transfer_fault_rate = 0.15 }))
    fault_seed;
  let space = Vbuf.space m in
  let vbs = Array.init n (fun i -> Vbuf.create space ~name:(String.make 1 (Char.chr (97 + i))) ~len:80) in
  { w_m = m; w_space = space; w_vbs = vbs }

(* The pieces of [seg] outside [rs, re). *)
let outside (seg : Tracker.segment) (rs, re) =
  List.filter
    (fun (s, e) -> s < e)
    [ (seg.Tracker.start, min seg.Tracker.stop rs); (max seg.Tracker.start re, seg.Tracker.stop) ]

let old_coldest w t ~dev ~stamp range =
  let best = ref None in
  List.iteri
    (fun pi v ->
       List.iter
         (fun (seg : Tracker.segment) ->
            if seg.owner > 0 && seg.owner < stamp then
              List.iter
                (fun (s, e) ->
                   match !best with
                   | Some (key, _) when compare key (seg.owner, pi, s) <= 0 -> ()
                   | _ -> best := Some ((seg.owner, pi, s), (v, s, e)))
                (if v == t then outside seg range else [ (seg.Tracker.start, seg.Tracker.stop) ]))
         (Tracker.segments (Vbuf.residency v ~dev)))
    (Vbuf.members w.w_space);
  Option.map snd !best

(* The oracle loop for each range, then the real ensure.  [fault_at k]
   raises [Exit] just before the k-th victim (from 0) of a loop.  On
   any exception the range ends re-stamped over its resident parts,
   as [ensure_resident]'s handler leaves it. *)
let old_ensure ?(fault_at = -1) w t ~dev ~stamp ~log ranges =
  List.iter
    (fun (rs, re) ->
       let res = Vbuf.residency t ~dev in
       let gaps = ref [] in
       Tracker.iter_range res ~start:rs ~stop:re (fun s e owner ->
           if owner = 0 then gaps := (s, e) :: !gaps);
       let needed = 4 * List.fold_left (fun acc (s, e) -> acc + e - s) 0 !gaps in
       let k = ref 0 in
       (try
          while Gpusim.Machine.mem_free w.w_m dev < needed do
            match old_coldest w t ~dev ~stamp (rs, re) with
            | None ->
              raise
                (Gpusim.Machine.Out_of_memory
                   { device = dev; requested = needed; free = Gpusim.Machine.mem_free w.w_m dev })
            | Some (v, s, e) ->
              if !k = fault_at then raise Exit;
              incr k;
              log := (Vbuf.name v, dev, s, e) :: !log;
              ignore (Vbuf.spill v ~dev ~ranges:[ (s, e) ])
          done
        with exn ->
          Tracker.write res ~start:rs ~stop:re ~owner:stamp;
          List.iter (fun (s, e) -> Tracker.write res ~start:s ~stop:e ~owner:0) !gaps;
          raise exn);
       Vbuf.ensure_resident ~stamp t ~dev ~ranges:[ (rs, re) ])
    ranges

(* Everything the two worlds must agree on. *)
let snapshot w =
  let per_vbuf v =
    let tr = Vbuf.tracker v in
    ( Tracker.segments tr,
      Tracker.ops tr,
      List.init 2 (fun dev -> (Tracker.segments (Vbuf.residency v ~dev), Vbuf.resident_bytes v ~dev)) )
  in
  ( Array.map per_vbuf w.w_vbs,
    List.init 2 (Gpusim.Machine.mem_used w.w_m),
    Gpusim.Machine.stats w.w_m )

type pop =
  | PLaunch of int * (int * int * int) list (* device, (vbuf, lo, hi) *)
  | PEnsure of int * int * (int * int) list (* vbuf, device, ranges *)

let gen_pop =
  QCheck.Gen.(
    let range = int_range 0 74 >>= fun lo -> int_range 1 6 >|= fun w -> (lo, lo + w) in
    int_range 0 2 >>= fun vb ->
    int_range 0 1 >>= fun dev ->
    frequency
      [
        ( 3,
          list_size (int_range 1 3) (pair (int_range 0 2) range)
          >|= fun parts -> PLaunch (dev, List.map (fun (v, (lo, hi)) -> (v, lo, hi)) parts) );
        (2, list_size (int_range 1 3) range >|= fun rs -> PEnsure (vb, dev, rs));
      ])

let print_pop = function
  | PLaunch (d, parts) ->
    Printf.sprintf "L%d{%s}" d
      (String.concat "," (List.map (fun (v, l, h) -> Printf.sprintf "%d[%d,%d)" v l h) parts))
  | PEnsure (v, d, rs) ->
    Printf.sprintf "E%d.%d{%s}" v d
      (String.concat "," (List.map (fun (l, h) -> Printf.sprintf "[%d,%d)" l h) rs))

let outcome f =
  match f () with
  | () -> "ok"
  | exception Gpusim.Machine.Out_of_memory _ -> "oom"
  | exception Gpusim.Machine.Transient_fault _ -> "fault"

(* Run one schedule in a world; [ensure] is the world's eviction.
   Returns the per-step outcomes and snapshots, and the gathers. *)
let run_world w ~ensure ops =
  let n = Array.length w.w_vbs in
  let models = Array.init n (fun i -> Array.init 80 (fun j -> float_of_int ((100 * i) + j))) in
  let steps =
    List.map
      (fun op ->
         let r =
           match op with
           | PEnsure (vi, dev, ranges) ->
             outcome (fun () ->
                 ensure w w.w_vbs.(vi mod n) ~dev ~stamp:(Gpusim.Machine.lru_tick w.w_m) ranges)
           | PLaunch (dev, parts) ->
             let stamp = Gpusim.Machine.lru_tick w.w_m in
             outcome (fun () ->
                 List.iter
                   (fun (vi, lo, hi) ->
                      let v = w.w_vbs.(vi mod n) in
                      ensure w v ~dev ~stamp [ (lo, hi) ];
                      ignore (Vbuf.sync_for_read v ~dev ~batch:false ~stamp ~raw:0 ~ranges:[ (lo, hi) ]);
                      let inst = Gpusim.Buffer.data_exn (Vbuf.instance v dev) in
                      for i = lo to hi - 1 do
                        inst.(i) <- inst.(i) +. 1.0
                      done;
                      Vbuf.update_for_write v ~dev ~stamp ~raw:0 ~ranges:[ (lo, hi) ])
                   parts)
         in
         (r, snapshot w))
      ops
  in
  ignore models;
  let gathers =
    Array.map
      (fun v ->
         let out = Array.make 80 nan in
         (try Vbuf.d2h v ~dst:(Some out) with Gpusim.Machine.Transient_fault _ -> ());
         Array.map Int64.bits_of_float out)
      w.w_vbs
  in
  (steps, gathers)

let with_hook f body =
  Vbuf.set_eviction_hook (Some f);
  Fun.protect ~finally:(fun () -> Vbuf.set_eviction_hook None) body

let loop_vs_oracle ~name ~faults =
  QCheck.Test.make ~name ~count:200
    (QCheck.make
       ~print:(fun (n, seed, l) ->
         Printf.sprintf "%d vbufs, fault seed %d: %s" n seed (String.concat "; " (List.map print_pop l)))
       QCheck.Gen.(triple (int_range 2 3) (int_range 0 1000) (list_size (int_range 1 30) gen_pop)))
    (fun (n, seed, ops) ->
       let fault_seed = if faults then Some seed else None in
       let setup w =
         Array.iteri
           (fun i v ->
              try Vbuf.h2d v ~src:(Some (Array.init 80 (fun j -> float_of_int ((100 * i) + j))))
              with Gpusim.Machine.Transient_fault _ -> ())
           w.w_vbs
       in
       let wa = make_world ~n ~fault_seed and wb = make_world ~n ~fault_seed in
       setup wa;
       setup wb;
       let real_log = ref [] and old_log = ref [] in
       let a =
         with_hook
           (fun v ~dev ~stamp:_ ~start ~stop -> real_log := (Vbuf.name v, dev, start, stop) :: !real_log)
           (fun () ->
              run_world wa
                ~ensure:(fun _ v ~dev ~stamp ranges -> Vbuf.ensure_resident ~stamp v ~dev ~ranges)
                ops)
       in
       let b =
         with_hook
           (fun _ ~dev:_ ~stamp:_ ~start:_ ~stop:_ -> failwith "the oracle world's ensure evicted")
           (fun () ->
              run_world wb
                ~ensure:(fun w v ~dev ~stamp ranges -> old_ensure w v ~dev ~stamp ~log:old_log ranges)
                ops)
       in
       !real_log = !old_log && a = b)

(* An eviction of three victims, broken before its k-th: the victims
   before k are evicted (host-owned, not resident), the rest stay
   resident, and the world matches the oracle broken at the same
   victim. *)
let test_fault_at_kth_victim () =
  let setup () =
    let w = make_world ~n:1 ~fault_seed:None in
    let v = w.w_vbs.(0) in
    (* Eight 16-byte segments of distinct stamps fill the device. *)
    List.iter
      (fun i -> Vbuf.ensure_resident v ~dev:0 ~ranges:[ (8 * i, (8 * i) + 4) ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ];
    (w, v)
  in
  let victims = [ (0, 4); (8, 12); (16, 20) ] in
  List.iter
    (fun k ->
       let wa, va = setup () and wb, vb = setup () in
       let stamp = Gpusim.Machine.lru_tick wa.w_m in
       ignore (Gpusim.Machine.lru_tick wb.w_m);
       let seen = ref [] in
       let ra =
         with_hook
           (fun _ ~dev:_ ~stamp:_ ~start ~stop ->
              if List.length !seen = k then raise Exit;
              seen := (start, stop) :: !seen)
           (fun () ->
              match Vbuf.ensure_resident ~stamp va ~dev:0 ~ranges:[ (64, 76) ] with
              | () -> "ok"
              | exception Exit -> "broken")
       in
       let rb =
         match old_ensure ~fault_at:k wb vb ~dev:0 ~stamp ~log:(ref []) [ (64, 76) ] with
         | () -> "ok"
         | exception Exit -> "broken"
       in
       let what = Printf.sprintf "break at victim %d" k in
       Alcotest.(check string) (what ^ ": raised") "broken" ra;
       Alcotest.(check string) (what ^ ": oracle raised") "broken" rb;
       checkb (what ^ ": same state as the oracle") true (snapshot wa = snapshot wb);
       List.iteri
         (fun i (s, e) ->
            let owner = Tracker.owner_at (Vbuf.tracker va) s in
            let resident = (Tracker.segment_at (Vbuf.residency va ~dev:0) s).Tracker.owner > 0 in
            checkb (Printf.sprintf "%s: victim %d [%d,%d) evicted" what i s e) (i < k) (not resident);
            checki (Printf.sprintf "%s: victim %d owner" what i) (if i < k then Tracker.host else 0) owner)
         victims;
       checki (what ^ ": spills") k (Gpusim.Machine.stats wa.w_m).Gpusim.Machine.n_spills)
    [ 0; 1; 2 ]

(* A space's pool is its live buffers in name order: [create] joins it
   whatever the creation order, [free] leaves it, and [restore] of a
   freed buffer (a replay to a checkpoint taken before a [Free])
   re-joins it. *)
let test_pool_membership () =
  let m =
    Gpusim.Machine.create ~functional:true
      (Gpusim.Config.test_box ~n_devices:2 ~mem_capacity:1024 ())
  in
  let space = Vbuf.space m in
  let names () = List.map Vbuf.name (Vbuf.members space) in
  let pool = Alcotest.(check (list string)) in
  let c = Vbuf.create space ~name:"c" ~len:16 in
  let a = Vbuf.create space ~name:"a" ~len:16 in
  let b = Vbuf.create space ~name:"b" ~len:16 in
  pool "name order" [ "a"; "b"; "c" ] (names ());
  Vbuf.h2d b ~src:(Some (Array.make 16 1.0));
  let snap = Vbuf.checkpoint b in
  Vbuf.free b;
  pool "free leaves" [ "a"; "c" ] (names ());
  Vbuf.restore b snap;
  pool "restore re-joins" [ "a"; "b"; "c" ] (names ());
  Vbuf.restore b snap;
  pool "restore of a member keeps it once" [ "a"; "b"; "c" ] (names ());
  Vbuf.free a;
  Vbuf.free c;
  pool "one left" [ "b" ] (names ())

let qtest t = QCheck_alcotest.to_alcotest t

let () =
  Alcotest.run "mem"
    [
      ( "engine",
        [
          Alcotest.test_case "matmul @ 25% capacity" `Quick
            test_matmul_quarter_capacity;
          Alcotest.test_case "hotspot under pressure" `Quick
            test_hotspot_under_pressure;
          Alcotest.test_case "loose capacity invisible" `Quick
            test_loose_capacity_is_invisible;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "infeasible one-liner" `Quick
            test_infeasible_diagnostic;
          Alcotest.test_case "typed OOM payload" `Quick
            test_non_launch_oom_diagnostic;
          Alcotest.test_case "capacity below one element" `Quick
            test_sub_element_capacity;
          Alcotest.test_case "capped vbuf length limit" `Quick
            test_capped_length_limit;
        ] );
      ( "faults",
        [
          Alcotest.test_case "capped + fault schedule" `Quick
            test_capped_run_survives_faults;
        ] );
      ( "residency",
          [
            qtest
              (residency_model ~name:"capped vbuf matches flat model"
                 ~reverse:false);
            qtest
              (residency_model
                 ~name:"capped vbuf matches flat model, reverse creation"
                 ~reverse:true);
            Alcotest.test_case "pool membership" `Quick test_pool_membership;
          ] );
      ( "evict loop",
          [
            qtest (loop_vs_oracle ~name:"ensure == oracle loop" ~faults:false);
            qtest (loop_vs_oracle ~name:"ensure == oracle loop, faults" ~faults:true);
            Alcotest.test_case "fault at the k-th victim" `Quick test_fault_at_kth_victim;
          ] );
    ]
