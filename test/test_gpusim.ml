(* Tests for the machine simulator: timelines, transfer/kernel timing
   semantics, fabric contention, autoboost derating, and the
   functional-mode data movement. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg a b = Alcotest.check (Alcotest.float 1e-12) msg a b

open Gpusim

(* ---------------- Timeline ---------------- *)

(* Schedule one op, then read its (start, finish) off the clock cell. *)
let last_op t =
  let c = Timeline.clock t in
  (c.(1), c.(2))

let sched t ~after ~duration ~category =
  Timeline.schedule t ~after ~duration ~category;
  last_op t

let sched_at t ~start ~duration ~category =
  Timeline.schedule_at_in t [| start; duration |] ~category;
  last_op t

let test_timeline_order () =
  let t = Timeline.create "t" in
  let s1, e1 = sched t ~after:0.0 ~duration:1.0 ~category:"a" in
  checkf "starts at 0" 0.0 s1;
  checkf "ends at 1" 1.0 e1;
  (* next op cannot start before the previous completes *)
  let s2, e2 = sched t ~after:0.5 ~duration:0.25 ~category:"a" in
  checkf "serialized start" 1.0 s2;
  checkf "serialized end" 1.25 e2;
  (* an op issued after idle time starts at its issue time *)
  let s3, _ = sched t ~after:5.0 ~duration:0.1 ~category:"b" in
  checkf "idle gap respected" 5.0 s3;
  checkf "busy a" 1.25 (Timeline.busy_in t "a");
  checkf "busy b" 0.1 (Timeline.busy_in t "b");
  checkf "total busy" 1.35 (Timeline.total_busy t)

(* Regression: zero-length and empty measurement windows must yield 0,
   not NaN (0/0) or a negative idle.  Hand-computed: 1.5s busy in a 2s
   window = 75% utilization, 0.5s idle; the same timeline against a
   zero, negative or NaN window reports 0. *)
let test_timeline_empty_windows () =
  let t = Timeline.create "t" in
  checkf "empty utilization" 0.0 (Timeline.utilization t ~span:0.0);
  checkf "empty idle" 0.0 (Timeline.idle_in t ~span:0.0);
  ignore (Timeline.schedule t ~after:0.0 ~duration:1.5 ~category:"k");
  checkf "busy" 1.5 (Timeline.total_busy t);
  checkf "utilization 75%" 0.75 (Timeline.utilization t ~span:2.0);
  checkf "idle 0.5s" 0.5 (Timeline.idle_in t ~span:2.0);
  checkf "zero window utilization" 0.0 (Timeline.utilization t ~span:0.0);
  checkf "zero window idle" 0.0 (Timeline.idle_in t ~span:0.0);
  checkf "negative window utilization" 0.0 (Timeline.utilization t ~span:(-1.0));
  checkf "negative window idle" 0.0 (Timeline.idle_in t ~span:(-1.0));
  checkf "nan window utilization" 0.0 (Timeline.utilization t ~span:nan);
  checkf "nan window idle" 0.0 (Timeline.idle_in t ~span:nan);
  (* a window shorter than the busy time clamps instead of exceeding 1 *)
  checkf "clamped utilization" 1.0 (Timeline.utilization t ~span:1.0);
  checkf "clamped idle" 0.0 (Timeline.idle_in t ~span:1.0)

(* Regression: [categories] must come back sorted regardless of
   insertion order, so reports and JSON artifacts are stable across
   hash-table seeds and OCaml versions. *)
let test_timeline_categories_sorted () =
  let t = Timeline.create "t" in
  List.iter
    (fun c -> ignore (Timeline.schedule t ~after:0.0 ~duration:0.1 ~category:c))
    [ "zeta"; "alpha"; "mid"; "beta" ];
  Alcotest.(check (list string))
    "sorted" [ "alpha"; "beta"; "mid"; "zeta" ] (Timeline.categories t)

(* schedule_at_in records at exactly the given start, without clamping
   against ready — a later-recorded op may start before an earlier
   reservation ends — while ready still covers every finish. *)
let test_timeline_schedule_at () =
  let t = Timeline.create "t" in
  let s1, e1 = sched_at t ~start:10.0 ~duration:2.0 ~category:"bus" in
  checkf "parked start" 10.0 s1;
  checkf "parked end" 12.0 e1;
  let s2, e2 = sched_at t ~start:1.0 ~duration:3.0 ~category:"bus" in
  checkf "backfilled start not clamped" 1.0 s2;
  checkf "backfilled end" 4.0 e2;
  checkf "ready covers the latest finish" 12.0 (Timeline.ready t);
  checkf "busy accumulates" 5.0 (Timeline.busy_in t "bus")

(* ---------------- Machine timing ---------------- *)

let quiet_cfg n =
  (* A machine with zeroed latencies for precise arithmetic checks. *)
  {
    (Config.k80_box ~n_devices:n ()) with
    Config.transfer_latency = 0.0;
    launch_latency = 0.0;
    sync_device_seconds = 0.0;
    pcie_bandwidth = 1e9;
    p2p_bandwidth = 1e9;
    fabric_bandwidth = 2e9;
    autoboost_derate = 0.0;
    elem_bytes = 4;
  }

let test_transfer_time () =
  let m = Machine.create (quiet_cfg 2) in
  let b = Machine.alloc m ~device:0 ~len:1_000_000 in
  (* 4 MB at 1 GB/s = 4 ms on the copy engine. *)
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b ~dst_off:0 ~len:1_000_000;
  Machine.synchronize m;
  let t = Machine.host_time m in
  checkb "h2d takes ~4ms" true (t >= 0.004 && t < 0.0045);
  checki "bytes counted" 4_000_000 (Machine.stats m).Machine.h2d_bytes

let test_fabric_contention () =
  (* Two h2d transfers to different devices share the fabric: with
     fabric at 2 GB/s and links at 1 GB/s, each link alone would give
     4ms, but fabric admission spaces the second transfer by 2ms. *)
  let m = Machine.create (quiet_cfg 2) in
  let b0 = Machine.alloc m ~device:0 ~len:1_000_000 in
  let b1 = Machine.alloc m ~device:1 ~len:1_000_000 in
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b0 ~dst_off:0 ~len:1_000_000;
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b1 ~dst_off:0 ~len:1_000_000;
  Machine.synchronize m;
  let t = Machine.host_time m in
  checkb "fabric spacing observed" true (t >= 0.006 && t < 0.0066)

let test_p2p_double_fabric () =
  (* p2p charges the fabric twice (through-host staging). *)
  let m = Machine.create (quiet_cfg 2) in
  let b0 = Machine.alloc m ~device:0 ~len:500_000 in
  let b1 = Machine.alloc m ~device:1 ~len:500_000 in
  Machine.p2p m ~src:b0 ~src_off:0 ~dst:b1 ~dst_off:0 ~len:500_000;
  let fabric = Machine.fabric_timeline m in
  (* 2 MB crossing twice at 2 GB/s = 2 ms of bus. *)
  checkf "double bus time" 0.002 (Timeline.busy_in fabric "bus")

let test_p2p_same_device () =
  (* Regression: a copy between two buffers on the same device never
     crosses the fabric — it moves at device-memory bandwidth with zero
     bus occupancy (a cudaMemcpyDeviceToDevice within one GPU). *)
  let cfg = { (quiet_cfg 2) with Config.dmem_bandwidth = 4e9 } in
  let m = Machine.create cfg in
  let a = Machine.alloc m ~device:0 ~len:1_000_000 in
  let b = Machine.alloc m ~device:0 ~len:1_000_000 in
  Machine.p2p m ~src:a ~src_off:0 ~dst:b ~dst_off:0 ~len:1_000_000;
  Machine.synchronize m;
  let fabric = Machine.fabric_timeline m in
  checkf "no bus time" 0.0 (Timeline.busy_in fabric "bus");
  (* 4 MB at 4 GB/s = 1 ms, not the 4 ms the 1 GB/s peer path charges. *)
  let t = Machine.host_time m in
  checkb "device-memory bandwidth" true (t >= 0.001 && t < 0.0015);
  checki "bytes still counted" 4_000_000 (Machine.stats m).Machine.p2p_bytes;
  (* the packed variant takes the same shortcut *)
  Machine.p2p_multi m ~src:a ~dst:b
    ~segments:[ (0, 0, 1000); (5000, 5000, 1000) ];
  Machine.synchronize m;
  checkf "multi: still no bus time" 0.0 (Timeline.busy_in fabric "bus")

let test_kernel_time_waves () =
  let cfg = { (quiet_cfg 1) with Config.ops_per_sm = 1e9; sms_per_device = 10; blocks_per_sm = 2 } in
  let m = Machine.create cfg in
  (* 20 slots; 40 blocks of 1e6 ops: per-block time = 1e6*2/1e9 = 2ms;
     40/20 = 2 "waves" -> 4ms. *)
  Machine.launch m ~device:0 ~blocks:40 ~ops_per_block:1e6 ~run:(fun () -> ());
  Machine.synchronize m;
  checkf "two waves" 0.004 (Machine.device_time m 0);
  (* below full occupancy: one block still takes one block-time *)
  let m2 = Machine.create cfg in
  Machine.launch m2 ~device:0 ~blocks:1 ~ops_per_block:1e6 ~run:(fun () -> ());
  Machine.synchronize m2;
  checkf "latency bound" 0.002 (Machine.device_time m2 0)

let test_autoboost () =
  let cfg =
    { (quiet_cfg 16) with Config.ops_per_sm = 1e9; sms_per_device = 10;
      blocks_per_sm = 2; autoboost_derate = 0.15; total_dies = 16 }
  in
  (* one active die: full speed *)
  let wave active = Config.kernel_seconds cfg ~active ~speed:1.0 ~blocks:20 ~ops_per_block:1e6 in
  checkf "boost alone" 0.002 (wave 1);
  checkf "boost all" (0.002 /. 0.85) (wave 16);
  let m = Machine.create cfg in
  Machine.set_active_devices m 16;
  Machine.launch m ~device:0 ~blocks:20 ~ops_per_block:1e6 ~run:(fun () -> ());
  Machine.synchronize m;
  (* 20 blocks = 1 wave at 2ms/0.85 *)
  checkb "derated" true
    (abs_float (Machine.device_time m 0 -. (0.002 /. 0.85)) < 1e-9)

let test_default_stream_ordering () =
  (* A kernel issued after an h2d to the same device must wait for it. *)
  let m = Machine.create (quiet_cfg 1) in
  let b = Machine.alloc m ~device:0 ~len:1_000_000 in
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b ~dst_off:0 ~len:1_000_000;
  Machine.launch m ~device:0 ~blocks:1 ~ops_per_block:0.0 ~run:(fun () -> ());
  Machine.synchronize m;
  checkb "kernel after transfer" true (Machine.device_time m 0 >= 0.004)

let test_p2p_waits_src_compute () =
  (* A p2p reading a buffer must wait for the source device's kernel. *)
  let cfg = { (quiet_cfg 2) with Config.ops_per_sm = 1e9; sms_per_device = 10; blocks_per_sm = 2 } in
  let m = Machine.create cfg in
  let b0 = Machine.alloc m ~device:0 ~len:1000 in
  let b1 = Machine.alloc m ~device:1 ~len:1000 in
  Machine.launch m ~device:0 ~blocks:20 ~ops_per_block:1e6 ~run:(fun () -> ());
  (* kernel: 2ms *)
  Machine.p2p m ~src:b0 ~src_off:0 ~dst:b1 ~dst_off:0 ~len:1000;
  Machine.synchronize m;
  checkb "transfer after source kernel" true (Machine.host_time m >= 0.002)

(* Regression: synchronize charges its serial per-context cost AFTER
   the devices drain, not concurrently with them.  Hand-computed: a
   4 ms h2d followed by a synchronize over 2 contexts at 1 ms each
   puts the host at ~6 ms; the old accounting overlapped the sync with
   the transfer and reported ~4 ms. *)
let test_sync_charged_after_drain () =
  let cfg = { (quiet_cfg 2) with Config.sync_device_seconds = 1.0e-3 } in
  let m = Machine.create cfg in
  let b = Machine.alloc m ~device:0 ~len:1_000_000 in
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b ~dst_off:0 ~len:1_000_000;
  Machine.synchronize m;
  let t = Machine.host_time m in
  checkb "sync serialized after the drain" true (t >= 0.006 && t < 0.0065);
  checkf "sync cost visible on the host lane" 2.0e-3
    (Timeline.busy_in (Machine.host_timeline m) "sync")

(* ---------------- Functional data movement ---------------- *)

let test_functional_copies () =
  let m = Machine.create ~functional:true (Config.test_box ~n_devices:2 ()) in
  let b0 = Machine.alloc m ~device:0 ~len:10 in
  let b1 = Machine.alloc m ~device:1 ~len:10 in
  let src = Array.init 10 float_of_int in
  Machine.h2d m ~src ~src_off:0 ~dst:b0 ~dst_off:0 ~len:10;
  Machine.p2p m ~src:b0 ~src_off:2 ~dst:b1 ~dst_off:5 ~len:3;
  let out = Array.make 3 nan in
  Machine.d2h m ~src:b1 ~src_off:5 ~dst:out ~dst_off:0 ~len:3;
  Alcotest.(check (array (float 0.0))) "p2p moved data" [| 2.; 3.; 4. |] out

let test_range_checks () =
  let m = Machine.create (quiet_cfg 1) in
  let b = Machine.alloc m ~device:0 ~len:10 in
  Alcotest.check_raises "h2d oob"
    (Invalid_argument "h2d: range [5,15) outside buffer 0 of length 10 on device 0")
    (fun () -> Machine.h2d m ~src:[||] ~src_off:0 ~dst:b ~dst_off:5 ~len:10)

let test_trace () =
  let m = Machine.create (quiet_cfg 2) in
  Machine.enable_trace m;
  let b0 = Machine.alloc m ~device:0 ~len:100 in
  let b1 = Machine.alloc m ~device:1 ~len:100 in
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b0 ~dst_off:0 ~len:100;
  Machine.p2p m ~src:b0 ~src_off:0 ~dst:b1 ~dst_off:0 ~len:50;
  Machine.launch m ~device:1 ~blocks:1 ~ops_per_block:1e3 ~run:(fun () -> ());
  let tr = Machine.trace m in
  (* Every op lands in the one ring, in schedule order: each copy's
     host issue and fabric leg, then the copy itself; the launch's host
     issue, then the kernel. *)
  checkb "full event sequence" true
    (List.map (fun e -> e.Machine.ev_kind) tr
     = [ `Host "issue"; `Fabric 0; `H2d; `Host "issue"; `Fabric 0; `P2p;
         `Host "issue"; `Kernel ]);
  checkb "fabric legs carry the wire bytes" true
    (List.filter_map
       (fun e ->
          match e.Machine.ev_kind with
          | `Fabric _ -> Some e.Machine.ev_bytes
          | _ -> None)
       tr
     = [ 400; 2 * 200 ]);
  let devices =
    List.filter
      (fun e ->
         match e.Machine.ev_kind with `Host _ | `Fabric _ -> false | _ -> true)
      tr
  in
  (match devices with
   | [ e1; e2; e3 ] ->
     checkb "h2d first" true (e1.Machine.ev_kind = `H2d);
     checki "h2d bytes" 400 e1.Machine.ev_bytes;
     checkb "p2p second" true
       (e2.Machine.ev_kind = `P2p && e2.Machine.ev_src = 0
        && e2.Machine.ev_dst = 1);
     checkb "kernel third" true
       (e3.Machine.ev_kind = `Kernel && e3.Machine.ev_src = 1);
     checkb "ordered" true
       (e1.Machine.ev_start <= e2.Machine.ev_start
        && e2.Machine.ev_finish <= e3.Machine.ev_start
        +. 1e-9)
   | _ -> Alcotest.fail "unexpected trace shape");
  (* tracing off by default *)
  let m2 = Machine.create (quiet_cfg 1) in
  let b = Machine.alloc m2 ~device:0 ~len:10 in
  Machine.h2d m2 ~src:[||] ~src_off:0 ~dst:b ~dst_off:0 ~len:10;
  checki "no trace by default" 0 (List.length (Machine.trace m2))

(* ---------------- Fault injection ---------------- *)

let test_faults_deterministic () =
  let spec = { Faults.null_spec with seed = 42; kernel_fault_rate = 0.3 } in
  let a = Faults.create spec and b = Faults.create spec in
  for _ = 1 to 100 do
    checkb "same stream" true (Faults.uniform a = Faults.uniform b)
  done;
  (* a different seed gives a different stream *)
  let c = Faults.create { spec with seed = 43 } in
  let differs = ref false in
  let a' = Faults.create spec in
  for _ = 1 to 100 do
    if Faults.uniform a' <> Faults.uniform c then differs := true
  done;
  checkb "seed changes stream" true !differs

let test_faults_spec_parse () =
  (match Faults.spec_of_string "42,0.01,2@0.5" with
   | Ok s ->
     checki "seed" 42 s.Faults.seed;
     checkf "kernel rate" 0.01 s.Faults.kernel_fault_rate;
     checkf "transfer rate" 0.01 s.Faults.transfer_fault_rate;
     checkb "scheduled loss" true (s.Faults.scheduled_losses = [ (2, 0.5) ])
   | Error e -> Alcotest.failf "parse failed: %s" e);
  checkb "bad spec rejected" true
    (match Faults.spec_of_string "nope" with Error _ -> true | Ok _ -> false);
  checkb "rate >= 1 rejected" true
    (match Faults.spec_of_string "1,1.5" with Error _ -> true | Ok _ -> false);
  checkb "null is null" true (Faults.is_null Faults.null_spec);
  checkb "rate makes non-null" false
    (Faults.is_null { Faults.null_spec with kernel_fault_rate = 0.1 })

let test_faults_consecutive_cap () =
  (* Rate ~1 would starve a retry loop forever without the cap. *)
  let spec =
    { Faults.null_spec with seed = 1; kernel_fault_rate = 0.999;
      max_consecutive = 5 }
  in
  let f = Faults.create spec in
  let worst = ref 0 and streak = ref 0 in
  for _ = 1 to 1000 do
    match Faults.kernel_outcome f ~device:0 ~now:0.0 with
    | `Transient ->
      incr streak;
      worst := max !worst !streak
    | `Ok -> streak := 0
    | `Lost -> Alcotest.fail "no loss configured"
  done;
  checkb "cap enforced" true (!worst <= 5);
  checkb "faults do occur" true ((Faults.counters f).Faults.kernel_faults > 0)

let test_machine_transient_fault () =
  let m = Machine.create (quiet_cfg 2) in
  Machine.enable_trace m;
  Machine.inject_faults m
    (Faults.create
       { Faults.null_spec with seed = 3; kernel_fault_rate = 0.999;
         max_consecutive = 2 });
  let saw_fault = ref false in
  (try Machine.launch m ~device:0 ~blocks:1 ~ops_per_block:1e3 ~run:(fun () -> ())
   with Machine.Transient_fault { op = "kernel"; device = 0 } ->
     saw_fault := true);
  checkb "launch raised" true !saw_fault;
  checki "fault counted" 1 (Machine.stats m).Machine.n_faults;
  checkb "fault event on trace" true
    (List.exists (fun e -> e.Machine.ev_kind = `Fault) (Machine.trace m));
  (* the faulted launch still consumed kernel time *)
  checkb "time charged" true ((Machine.stats m).Machine.kernel_seconds > 0.0);
  (* the consecutive cap guarantees a retry loop terminates *)
  let ok = ref false in
  let attempts = ref 0 in
  while not !ok do
    incr attempts;
    if !attempts > 10 then Alcotest.fail "retry loop did not terminate";
    try
      Machine.launch m ~device:0 ~blocks:1 ~ops_per_block:1e3 ~run:(fun () -> ());
      ok := true
    with Machine.Transient_fault _ -> ()
  done;
  checkb "eventually succeeds" true !ok

(* Regression: a transiently faulted transfer paid its wire time and
   its bytes really crossed the fabric, so it must be charged to the
   byte counters and the pair matrix like any other transfer (a retry
   legitimately charges the traffic again); the dedicated faulted
   counters keep the failures visible, and seconds/bytes
   reconciliation stays exact under faults. *)
let test_faulted_transfer_accounting () =
  let m = Machine.create (quiet_cfg 2) in
  Machine.inject_faults m
    (Faults.create
       { Faults.null_spec with seed = 7; transfer_fault_rate = 0.999;
         max_consecutive = 2 });
  let b = Machine.alloc m ~device:0 ~len:1_000_000 in
  let attempts = ref 0 and faults = ref 0 in
  let ok = ref false in
  while not !ok do
    incr attempts;
    if !attempts > 10 then Alcotest.fail "retry loop did not terminate";
    try
      Machine.h2d m ~src:[||] ~src_off:0 ~dst:b ~dst_off:0 ~len:1_000_000;
      ok := true
    with Machine.Transient_fault { op = "h2d"; device = 0 } -> incr faults
  done;
  checkb "at least one transfer faulted" true (!faults > 0);
  let st = Machine.stats m in
  checki "every attempt charged h2d bytes" (4_000_000 * !attempts)
    st.Machine.h2d_bytes;
  checki "faulted transfers counted" !faults st.Machine.faulted_transfers;
  checki "faulted bytes counted" (4_000_000 * !faults) st.Machine.faulted_bytes;
  (match List.assoc_opt (-1, 0) (Machine.byte_matrix m) with
   | Some bytes ->
     checki "pair matrix includes the faulted traffic" (4_000_000 * !attempts)
       bytes
   | None -> Alcotest.fail "missing host->device pair");
  (* every attempt paid its 4 ms of wire time *)
  checkb "transfer seconds include faulted attempts" true
    (st.Machine.transfer_seconds
     >= (0.004 *. float_of_int !attempts) -. 1e-9)

let test_machine_device_loss () =
  let m = Machine.create ~functional:true (Config.test_box ~n_devices:3 ()) in
  Machine.inject_faults m
    (Faults.create
       { Faults.null_spec with seed = 1; scheduled_losses = [ (1, 0.0) ] });
  checkb "all live initially" true (Machine.live_devices m = [ 0; 1; 2 ]);
  let b = Machine.alloc m ~device:1 ~len:8 in
  let raised =
    try
      Machine.h2d m ~src:(Array.make 8 1.0) ~src_off:0 ~dst:b ~dst_off:0 ~len:8;
      false
    with Machine.Device_lost 1 -> true
  in
  checkb "h2d raised Device_lost" true raised;
  checkb "device marked lost" true (Machine.device_lost m 1);
  checkb "survivors" true (Machine.live_devices m = [ 0; 2 ]);
  (* every later operation touching the device raises too *)
  let again =
    try
      Machine.launch m ~device:1 ~blocks:1 ~ops_per_block:1e3 ~run:(fun () -> ());
      false
    with Machine.Device_lost 1 -> true
  in
  checkb "launch on lost device raises" true again;
  (* other devices unaffected *)
  let b0 = Machine.alloc m ~device:0 ~len:8 in
  Machine.h2d m ~src:(Array.make 8 2.0) ~src_off:0 ~dst:b0 ~dst_off:0 ~len:8;
  checkb "device 0 still works" true true

let test_machine_faults_off_by_default () =
  let m = Machine.create (quiet_cfg 2) in
  checkb "no fault state" true (Machine.fault_state m = None);
  checkb "all live" true (Machine.live_devices m = [ 0; 1 ]);
  let b = Machine.alloc m ~device:0 ~len:10 in
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b ~dst_off:0 ~len:10;
  checki "no faults" 0 (Machine.stats m).Machine.n_faults;
  (* Faults are armed only by [inject_faults].  A null spec arms
     nothing: it is null, and injected anyway it never fires. *)
  checkb "null spec is null" true (Faults.is_null Faults.null_spec);
  checkb "real spec is not" false
    (Faults.is_null { Faults.null_spec with seed = 5; kernel_fault_rate = 0.5 });
  let m2 = Machine.create (quiet_cfg 2) in
  Machine.inject_faults m2 (Faults.create { Faults.null_spec with seed = 5 });
  let b2 = Machine.alloc m2 ~device:1 ~len:10 in
  for _ = 1 to 100 do
    Machine.h2d m2 ~src:[||] ~src_off:0 ~dst:b2 ~dst_off:0 ~len:10;
    Machine.launch m2 ~device:1 ~blocks:1 ~ops_per_block:1e3 ~run:ignore
  done;
  checki "null spec never fires" 0 (Machine.stats m2).Machine.n_faults;
  checkb "null spec loses nothing" true (Machine.live_devices m2 = [ 0; 1 ])

(* ---------------- Config validation ---------------- *)

(* Every numeric field is validated by the constructors: one test per
   field asserting the descriptive Invalid_argument.  The error must
   name the config and the field so a bad sweep configuration is
   diagnosable from the one-line message. *)
let test_config_validation () =
  let base = Config.k80_box () in
  let rejects field mk =
    match Config.validate (mk base) with
    | _ -> Alcotest.failf "field %s: bad value accepted" field
    | exception Invalid_argument msg ->
      checkb
        (Printf.sprintf "field %s named in %S" field msg)
        true
        (String.length msg > 0
         && Str.string_match (Str.regexp (".*" ^ Str.quote field)) msg 0)
  in
  ignore (Config.validate base);
  rejects "n_devices" (fun c -> { c with Config.n_devices = 0 });
  rejects "sms_per_device" (fun c -> { c with Config.sms_per_device = -1 });
  rejects "blocks_per_sm" (fun c -> { c with Config.blocks_per_sm = 0 });
  rejects "total_dies" (fun c -> { c with Config.total_dies = 0 });
  rejects "elem_bytes" (fun c -> { c with Config.elem_bytes = 0 });
  rejects "mem_capacity" (fun c -> { c with Config.mem_capacity = 0 });
  rejects "mem_capacity" (fun c -> { c with Config.mem_capacity = -4096 });
  rejects "ops_per_sm" (fun c -> { c with Config.ops_per_sm = 0.0 });
  rejects "ops_per_sm" (fun c -> { c with Config.ops_per_sm = nan });
  rejects "pcie_bandwidth" (fun c -> { c with Config.pcie_bandwidth = -1.0 });
  rejects "p2p_bandwidth" (fun c -> { c with Config.p2p_bandwidth = 0.0 });
  rejects "dmem_bandwidth" (fun c -> { c with Config.dmem_bandwidth = 0.0 });
  rejects "fabric_bandwidth" (fun c ->
      { c with Config.fabric_bandwidth = -2.0 });
  rejects "autoboost_derate" (fun c ->
      { c with Config.autoboost_derate = 1.0 });
  rejects "autoboost_derate" (fun c ->
      { c with Config.autoboost_derate = -0.1 });
  rejects "transfer_latency" (fun c ->
      { c with Config.transfer_latency = -1e-6 });
  rejects "launch_latency" (fun c -> { c with Config.launch_latency = nan });
  rejects "sync_device_seconds" (fun c ->
      { c with Config.sync_device_seconds = -1.0 });
  let isl ?(size = 2) ?(link = 1e9) ?(uplink = 1e9) () =
    Config.Islands
      { island_size = size; link_bandwidth = link; uplink_bandwidth = uplink }
  in
  ignore (Config.validate { base with Config.topology = isl () });
  rejects "topology.island_size" (fun c ->
      { c with Config.topology = isl ~size:0 () });
  rejects "topology.link_bandwidth" (fun c ->
      { c with Config.topology = isl ~link:0.0 () });
  rejects "topology.uplink_bandwidth" (fun c ->
      { c with Config.topology = isl ~uplink:(-1.0) () });
  (* the machine constructor validates too *)
  (match Machine.create { base with Config.n_devices = -2 } with
   | _ -> Alcotest.fail "Machine.create accepted a bad config"
   | exception Invalid_argument _ -> ());
  (* finite capacities are accepted and preserved *)
  let c = Config.k80_box ~mem_capacity:4096 () in
  checki "capacity kept" 4096 c.Config.mem_capacity;
  checkb "default unlimited" true
    ((Config.k80_box ()).Config.mem_capacity = max_int)

(* An infinite speed would pass a plain positivity check and hand the
   autotuner an infinite weight; every non-finite or non-positive speed
   is refused, by the validator and by the constructors. *)
let test_device_speeds_finite () =
  let base = Config.k80_box ~n_devices:4 () in
  let speeds s = { base with Config.device_speeds = [| 1.0; s; 1.0; 1.0 |] } in
  ignore (Config.validate (speeds 0.5));
  List.iter
    (fun s ->
       match Config.validate (speeds s) with
       | _ -> Alcotest.failf "device speed %g accepted" s
       | exception Invalid_argument msg ->
         checkb
           (Printf.sprintf "speed %g: %S names the field" s msg)
           true
           (Str.string_match (Str.regexp ".*device_speeds.*finite") msg 0))
    [ infinity; neg_infinity; nan; 0.0; -1.0 ];
  match Config.k80_box ~n_devices:4 ~device_speeds:[| infinity; 1.0; 1.0; 1.0 |] () with
  | _ -> Alcotest.fail "k80_box accepted an infinite speed"
  | exception Invalid_argument _ -> ()

(* CLI topology specs: the parser and printer must be inverses, and
   malformed or non-positive specs must be rejected with an error
   (never a crash or a silently-flat topology). *)
let test_topology_spec () =
  checkb "flat parses" true (Config.topology_of_string "flat" = Ok Config.Flat);
  (match Config.topology_of_string "islands:4,80,12" with
   | Ok (Config.Islands { island_size; link_bandwidth; uplink_bandwidth }) ->
     checki "island size" 4 island_size;
     checkf "link GB/s scaled" 80e9 link_bandwidth;
     checkf "uplink GB/s scaled" 12e9 uplink_bandwidth
   | _ -> Alcotest.fail "islands spec rejected");
  List.iter
    (fun s ->
       checkb (Printf.sprintf "%S rejected" s) true
         (match Config.topology_of_string s with
          | Error _ -> true
          | Ok _ -> false))
    [ "nope"; "islands:0,80,12"; "islands:4,-1,12"; "islands:4,80";
      "islands:a,b,c"; "islands:4,80,12,1" ];
  List.iter
    (fun t ->
       checkb "printer/parser roundtrip" true
         (Config.topology_of_string (Config.topology_to_string t) = Ok t))
    [ Config.Flat;
      Config.Islands
        { island_size = 2; link_bandwidth = 20e9; uplink_bandwidth = 12e9 } ]

(* ---------------- Device-memory accounting ---------------- *)

let test_mem_accounting () =
  let m = Machine.create (Config.test_box ~n_devices:2 ~mem_capacity:1000 ()) in
  checki "capacity" 1000 (Machine.mem_capacity m);
  checki "free at start" 1000 (Machine.mem_free m 0);
  Machine.mem_reserve m ~device:0 ~bytes:600;
  checki "used" 600 (Machine.mem_used m 0);
  checki "free" 400 (Machine.mem_free m 0);
  checki "other device untouched" 0 (Machine.mem_used m 1);
  checki "high water" 600 (Machine.mem_high_water m 0);
  (* over-capacity reservations raise the typed exception with the
     device, the request and what was free *)
  Alcotest.check_raises "oom"
    (Machine.Out_of_memory { device = 0; requested = 500; free = 400 })
    (fun () -> Machine.mem_reserve m ~device:0 ~bytes:500);
  checki "failed reserve charges nothing" 600 (Machine.mem_used m 0);
  Machine.mem_release m ~device:0 ~bytes:200;
  checki "released" 400 (Machine.mem_used m 0);
  checki "high water sticks" 600 (Machine.mem_high_water m 0);
  (* releasing more than held is an accounting bug, not an OOM *)
  (match Machine.mem_release m ~device:0 ~bytes:401 with
   | _ -> Alcotest.fail "over-release accepted"
   | exception Invalid_argument _ -> ());
  (* charged allocation reserves; uncharged (virtual) does not *)
  let m2 = Machine.create (Config.test_box ~n_devices:2 ~mem_capacity:1000 ()) in
  let eb = (Machine.config m2).Config.elem_bytes in
  let b = Machine.alloc m2 ~device:1 ~len:10 in
  checki "alloc charges" (10 * eb) (Machine.mem_used m2 1);
  let v = Machine.alloc ~charge:false m2 ~device:1 ~len:1000 in
  checki "virtual alloc free" (10 * eb) (Machine.mem_used m2 1);
  Machine.free m2 b;
  checki "free releases" 0 (Machine.mem_used m2 1);
  Machine.free m2 v;
  checki "virtual free releases nothing" 0 (Machine.mem_used m2 1);
  (* LRU stamps are monotonic *)
  let s1 = Machine.lru_tick m2 in
  let s2 = Machine.lru_tick m2 in
  checkb "lru monotonic" true (s2 > s1 && s1 > 0);
  (* spill accounting *)
  Machine.note_spill m2 ~bytes:64;
  Machine.note_spill m2 ~bytes:36;
  let st = Machine.stats m2 in
  checki "spills" 2 st.Machine.n_spills;
  checki "spill bytes" 100 st.Machine.spill_bytes

let test_buffer_basics () =
  let b = Buffer.create ~id:7 ~device:3 ~len:5 ~charged_bytes:20 ~functional:true in
  checki "id" 7 (Buffer.id b);
  checki "device" 3 (Buffer.device b);
  let p = Buffer.create ~id:8 ~device:0 ~len:5 ~charged_bytes:20 ~functional:false in
  (* perf-mode blits are no-ops *)
  Buffer.blit_from_host ~src:[| 1.0 |] ~src_off:0 p ~dst_off:0 ~len:1;
  Alcotest.check_raises "data_exn on perf buffer"
    (Invalid_argument "Buffer.data_exn: performance-mode buffer has no data")
    (fun () -> ignore (Buffer.data_exn p))

(* ---------------- Device-memory arena ---------------- *)

let bits a = Array.map Int64.bits_of_float a

let read_all m b =
  let len = Array.length (Buffer.data_exn b) in
  let out = Array.make len nan in
  Machine.d2h m ~src:b ~src_off:0 ~dst:out ~dst_off:0 ~len;
  out

(* A second machine draws the arrays the first filled and freed: they
   come back as +0.0 bit for bit, like a fresh machine's. *)
let test_arena_zero_on_reuse () =
  let arena = Buffer.arena () in
  let cfg = Config.test_box ~n_devices:2 () in
  let n = 257 in
  let dirty =
    Array.init n (fun i ->
        match i mod 4 with 0 -> -0.0 | 1 -> nan | 2 -> infinity | _ -> 1.5)
  in
  let m1 = Machine.create ~functional:true ~arena cfg in
  let a = Machine.alloc m1 ~device:0 ~len:n in
  let b = Machine.alloc ~charge:false m1 ~device:1 ~len:n in
  Machine.h2d m1 ~src:dirty ~src_off:0 ~dst:a ~dst_off:0 ~len:n;
  Machine.p2p m1 ~src:a ~src_off:0 ~dst:b ~dst_off:0 ~len:n;
  Machine.free m1 a;
  Machine.release m1;
  checki "nothing reused yet" 0 (Buffer.arena_reused arena);
  checki "two fresh arrays" 2 (Buffer.arena_fresh arena);
  let fresh = Machine.create ~functional:true cfg in
  let zero = bits (read_all fresh (Machine.alloc fresh ~device:0 ~len:n)) in
  let m2 = Machine.create ~functional:true ~arena cfg in
  let c = Machine.alloc m2 ~device:1 ~len:n in
  let d = Machine.alloc m2 ~device:0 ~len:n in
  checki "both drawn from the arena" 2 (Buffer.arena_reused arena);
  checkb "first drawn array is +0.0" true (bits (read_all m2 c) = zero);
  checkb "second drawn array is +0.0" true (bits (read_all m2 d) = zero);
  checkb "every element's bits are 0" true
    (Array.for_all (fun x -> x = 0L) zero)

let test_arena_released_alloc_raises () =
  let raises m =
    match Machine.alloc m ~device:0 ~len:8 with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let arena = Buffer.arena () in
  let m = Machine.create ~functional:true ~arena (Config.test_box ~n_devices:1 ()) in
  ignore (Machine.alloc m ~device:0 ~len:8);
  Machine.release m;
  checkb "alloc after release raises" true (raises m);
  Machine.release m;
  checki "a second release gives nothing back twice" 1
    (List.assoc 8 (Buffer.arena_retained arena));
  let plain = Machine.create (Config.test_box ~n_devices:1 ()) in
  Machine.release plain;
  checkb "so does a machine without an arena" true (raises plain)

(* Machines of several lease sizes draw several lengths, some alive at
   the same time, some freeing buffers before they are done.  The
   arena never keeps more arrays of a length than one machine drew of
   it, and no two live buffers ever share an array. *)
let test_arena_retention_bound () =
  let arena = Buffer.arena () in
  let most = Hashtbl.create 8 in
  let live = ref [] in
  let start ~devices ~lens ~frees =
    let m =
      Machine.create ~functional:true ~arena
        (Config.test_box ~n_devices:devices ())
    in
    let bufs =
      List.concat_map
        (fun len ->
           List.init devices (fun d -> Machine.alloc ~charge:false m ~device:d ~len))
        lens
    in
    List.iteri (fun i b -> if i < frees then Machine.free m b) bufs;
    let drawn = Hashtbl.create 8 in
    List.iter
      (fun b ->
         let len = Array.length (Buffer.data_exn b) in
         Hashtbl.replace drawn len
           (1 + Option.value ~default:0 (Hashtbl.find_opt drawn len)))
      bufs;
    Hashtbl.iter
      (fun len k ->
         if k > Option.value ~default:0 (Hashtbl.find_opt most len) then
           Hashtbl.replace most len k)
      drawn;
    live := List.map Buffer.data_exn bufs @ !live;
    let rec distinct = function
      | [] -> true
      | a :: tl -> List.for_all (fun b -> a != b) tl && distinct tl
    in
    checkb "live buffers never share an array" true (distinct !live);
    (m, bufs)
  in
  let finish (m, bufs) =
    Machine.release m;
    let gone = List.map Buffer.data_exn bufs in
    live := List.filter (fun a -> not (List.memq a gone)) !live;
    List.iter
      (fun (len, kept) ->
         checkb
           (Printf.sprintf "length %d: %d kept, at most %d" len kept
              (Hashtbl.find most len))
           true
           (kept <= Hashtbl.find most len))
      (Buffer.arena_retained arena)
  in
  let a = start ~devices:4 ~lens:[ 64; 128 ] ~frees:3 in
  let b = start ~devices:2 ~lens:[ 64; 64; 32 ] ~frees:0 in
  finish a;
  let c = start ~devices:1 ~lens:[ 128; 32; 16 ] ~frees:1 in
  finish b;
  finish c;
  let d = start ~devices:3 ~lens:[ 64; 128; 32; 16 ] ~frees:2 in
  let e = start ~devices:2 ~lens:[ 64; 16 ] ~frees:4 in
  finish e;
  finish d;
  let fresh = Buffer.arena_fresh arena in
  finish (start ~devices:4 ~lens:[ 64; 128 ] ~frees:0);
  checki "a repeated footprint allocates nothing fresh" fresh
    (Buffer.arena_fresh arena)

(* Categories charged a, b, a: the cached cell follows the category. *)
let test_timeline_category_cache () =
  let t = Timeline.create "t" in
  ignore (Timeline.schedule t ~after:0.0 ~duration:1.0 ~category:"a");
  ignore (Timeline.schedule t ~after:0.0 ~duration:2.0 ~category:"b");
  ignore (Timeline.schedule_at_in t [| 0.5; 4.0 |] ~category:"a");
  checkf "busy a" 5.0 (Timeline.busy_in t "a");
  checkf "busy b" 2.0 (Timeline.busy_in t "b");
  checkf "total" 7.0 (Timeline.total_busy t);
  checkb "a and b" true (Timeline.categories t = [ "a"; "b" ])

(* ---------------- Charge-tape folding ---------------- *)

(* [Timeline.repeat_adds] against the loop it stands for.  Sums start
   at 0, at a subnormal, a few ulps below a binade's top or anywhere in
   a binade; amounts include zeros and exact half-ulp ties of the
   start's binade, so the fold meets the ties-to-even case head on.
   The [`Cross] cases add enough to climb at least three binades, and
   [`Wild] ones mix in negative and non-finite amounts, which must fall
   back to adding one by one. *)
let gen_tape =
  let open QCheck.Gen in
  let* kind = oneofl [ `Zero; `Subnormal; `Top; `Inside; `Cross; `Wild ] in
  let* e = int_range (-40) 40 in
  let base = Float.ldexp 1.0 e and u = Float.ldexp 1.0 (e - 52) in
  let* start =
    match kind with
    | `Zero -> return 0.0
    | `Subnormal -> map (fun k -> Float.ldexp (float_of_int (k + 1)) (-1074)) (int_bound 1000)
    | `Top -> map (fun k -> (2.0 *. base) -. (float_of_int (k + 1) *. u)) (int_bound 4096)
    | `Inside | `Cross | `Wild -> map (fun f -> base *. (1.0 +. f)) (float_bound_exclusive 1.0)
  in
  let* times =
    match kind with
    | `Cross -> int_range 1_000 100_000
    | _ -> oneof [ int_range 1 10; int_range 1 100_000 ]
  in
  (* [`Cross] periods add about [scale], enough for 8-32x the start. *)
  let* scale =
    map (fun f -> base *. 8.0 *. (1.0 +. (3.0 *. f)) /. float_of_int times) (float_bound_exclusive 1.0)
  in
  (* [`Top] amounts are a few ulps, so that folds end at the top. *)
  let amount =
    frequency
      ([ (2, return 0.0);
         (3, map (fun k -> (float_of_int k +. 0.5) *. u) (int_bound 8));
         (1, map (fun k -> float_of_int k *. u) (int_bound 8)) ]
       @ (if kind = `Top then []
          else
            [ (3, map (fun f -> f *. (if kind = `Cross then scale else base *. 1e-6))
                    (float_bound_exclusive 1.0)) ])
       @ if kind = `Wild then [ (1, return (-.u)); (1, return Float.infinity) ] else [])
  in
  let* amounts = array_size (int_range 1 6) amount in
  (* Without an amount of its own scale a [`Cross] case could stall. *)
  let amounts = if kind = `Cross then Array.append amounts [| scale |] else amounts in
  return (kind, start, amounts, times)

let prop_repeat_adds =
  QCheck.Test.make ~name:"repeat_adds == the sequential loop" ~count:300
    (QCheck.make
       ~print:(fun (_, start, amounts, times) ->
           Printf.sprintf "start=%h times=%d amounts=[%s]" start times
             (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") amounts))))
       gen_tape)
    (fun (kind, start, amounts, times) ->
      let want = ref start in
      for _ = 1 to times do
        Array.iter (fun a -> want := !want +. a) amounts
      done;
      let acc = [| 0.0; start |] in
      Timeline.repeat_adds acc 1 amounts ~times;
      let binade x = snd (Float.frexp x) in
      Int64.equal (Int64.bits_of_float acc.(1)) (Int64.bits_of_float !want)
      && acc.(0) = 0.0
      && (kind <> `Cross || binade !want >= binade start + 3))

(* ---------------- Link admission ---------------- *)

(* The list-based admission index that [Link] replaced, kept as the
   oracle: one interval per reservation, sorted by start, drained ones
   filtered once the head has drained. *)
module Oracle = struct
  let earliest_free busy ~from ~dur =
    let rec go t = function
      | [] -> t
      | (s, e) :: rest ->
        if e <= t then go t rest
        else if s >= t +. dur then t
        else go (Float.max t e) rest
    in
    go from busy

  let rec insert_interval ((s, _) as ivl) = function
    | [] -> [ ivl ]
    | (s', _) :: _ as l when s <= s' -> ivl :: l
    | hd :: rest -> hd :: insert_interval ivl rest

  let admit ~now ~start legs =
    match legs with
    | [] -> start
    | legs ->
      List.iter
        (fun (l, _) ->
           match !l with
           | (_, e) :: _ when e <= now -> l := List.filter (fun (_, e) -> e > now) !l
           | _ -> ())
        legs;
      let rec fix t =
        let t' =
          List.fold_left
            (fun acc (l, occupancy) ->
               Float.max acc (earliest_free !l ~from:acc ~dur:occupancy))
            t legs
        in
        if t' > t then fix t' else t'
      in
      let s = fix start in
      List.iter (fun (l, occupancy) -> l := insert_interval (s, s +. occupancy) !l) legs;
      s
end

(* The busy set from [now] on, as maximal intervals: what admission
   can still see, independent of coalescing and pruning. *)
let busy_after ~now ivls =
  List.fold_left
    (fun acc (s, e) ->
       if e <= now then acc
       else
         let s = Float.max s now in
         match acc with
         | (ps, pe) :: rest when pe = s -> (ps, e) :: rest
         | _ -> (s, e) :: acc)
    [] ivls
  |> List.rev

(* One admission request: host clock advance, ready offset past the
   clock, and the legs (link index, occupancy).  Times sit mostly on a
   quarter grid so reservations touch, backfill into exact gaps and
   drain exactly at the clock. *)
let gen_request =
  QCheck.Gen.(
    let quarter lo hi = map (fun k -> float_of_int k *. 0.25) (int_range lo hi) in
    let span lo hi =
      frequency [ (4, quarter lo hi); (1, float_range 0.01 (float_of_int hi *. 0.25)) ]
    in
    let occupancy = frequency [ (4, quarter 1 8); (1, float_range 0.01 2.0) ] in
    let leg = pair (int_range 0 1) occupancy in
    triple (span 0 4)
      (frequency [ (3, span 0 8); (1, quarter 16 80) ])
      (frequency
         [ (3, map (fun l -> [ l ]) leg);
           (2, map (fun ((i, a), b) -> [ (i, a); (1 - i, b) ]) (pair leg occupancy)) ]))

let print_request (dnow, dready, legs) =
  Printf.sprintf "(+%g, ready+%g, [%s])" dnow dready
    (String.concat "; " (List.map (fun (i, o) -> Printf.sprintf "L%d:%g" i o) legs))

(* [Link.admit_in] with its two inputs, returning the admitted time. *)
let admit ~now ~start legs occupancy =
  let a = [| now; start |] in
  Link.admit_in a legs occupancy;
  a.(1)

let prop_link_matches_oracle =
  QCheck.Test.make ~name:"link admission matches the list oracle" ~count:500
    (QCheck.make
       ~print:(fun l -> String.concat " " (List.map print_request l))
       QCheck.Gen.(list_size (int_range 1 60) gen_request))
    (fun reqs ->
      let links = [| Link.create "l0"; Link.create "l1" |] in
      let oracle = [| ref []; ref [] |] in
      let now = ref 0.0 in
      List.for_all
        (fun (dnow, dready, legs) ->
           now := !now +. dnow;
           let start = !now +. dready in
           let got =
             admit ~now:!now ~start
               (Array.of_list (List.map (fun (i, _) -> links.(i)) legs))
               (Array.of_list (List.map snd legs))
           in
           let want =
             Oracle.admit ~now:!now ~start
               (List.map (fun (i, o) -> (oracle.(i), o)) legs)
           in
           got = want
           && Array.for_all2
                (fun l o ->
                   busy_after ~now:!now (Link.reservations l)
                   = busy_after ~now:!now !o)
                links oracle)
        reqs)

let test_link_coalesces () =
  let l = Link.create "bus" in
  for i = 0 to 999 do
    let s = admit ~now:0.0 ~start:0.0 [| l |] [| 1.0 |] in
    checkf "back to back" (float_of_int i) s
  done;
  checkb "one coalesced interval" true (Link.reservations l = [ (0.0, 1000.0) ]);
  checkf "busy accounted" 1000.0 (Timeline.busy_in (Link.timeline l) "bus");
  (* a gap left open is still found by backfill, and closing it merges
     both sides *)
  ignore (admit ~now:0.0 ~start:1001.0 [| l |] [| 1.0 |]);
  checkf "backfill" 1000.0 (admit ~now:0.0 ~start:0.0 [| l |] [| 1.0 |]);
  checkb "gap closed" true (Link.reservations l = [ (0.0, 1002.0) ]);
  (* drained reservations are dropped at the next admission *)
  checkf "after drain" 2000.0 (admit ~now:2000.0 ~start:2000.0 [| l |] [| 1.0 |]);
  checkb "drained" true (Link.reservations l = [ (2000.0, 2001.0) ])

(* ---------------- Transfer accounting ---------------- *)

let test_byte_matrix () =
  let m = Machine.create (Config.test_box ~n_devices:3 ()) in
  let len = 16 in
  let b = len * (Machine.config m).Config.elem_bytes in
  let buf d = Machine.alloc m ~device:d ~len in
  let d0 = buf 0 and d1 = buf 1 and d2 = buf 2 in
  Machine.h2d m ~src:(Array.make len 0.0) ~src_off:0 ~dst:d2 ~dst_off:0 ~len;
  Machine.p2p m ~src:d0 ~src_off:0 ~dst:d1 ~dst_off:0 ~len;
  Machine.d2h m ~src:d1 ~src_off:0 ~dst:(Array.make len 0.0) ~dst_off:0 ~len;
  checkb "pairs, sorted, untouched absent" true
    (Machine.byte_matrix m = [ ((-1, 2), b); ((0, 1), b); ((1, -1), b) ])

(* Per-device high-water of a functional 64x64, 6-iteration hotspot on
   4 uncapped devices, recorded from the engine before residency
   stamps were skipped on unlimited machines: the skip must not move
   a charged byte. *)
let hotspot_high_water = [ 8704; 9216; 9216; 8704 ]

let test_uncapped_hotspot_residency () =
  let prog, _, _ = Apps.Workloads.functional_hotspot ~n:64 ~iterations:6 in
  let exe =
    match Mekong.Toolchain.compile prog with
    | Ok a -> a.Mekong.Toolchain.exe
    | Error e -> failwith (Mekong.Toolchain.error_message e)
  in
  let m = Machine.create ~functional:true (Config.k80_box ~n_devices:4 ()) in
  let reg = Obs.Metrics.create () in
  Mekong.Multi_gpu.publish_metrics ~into:reg (Mekong.Multi_gpu.run ~machine:m exe);
  Alcotest.(check (list int)) "high water unchanged" hotspot_high_water
    (List.init 4 (fun d ->
         int_of_float
           (Obs.Metrics.get reg ~labels:[ ("device", string_of_int d) ]
              "gpusim.mem.high_water")));
  (* The same access shape driven through the runtime directly, where
     the residency can be checked after every step: row bands with a
     one-row halo, ping-ponged over two buffers. *)
  let n = 64 and devs = 4 in
  let m = Machine.create ~functional:true (Config.test_box ~n_devices:devs ()) in
  let open Gpu_runtime in
  let space = Vbuf.space m in
  let a = Vbuf.create space ~name:"t_in" ~len:(n * n) in
  let b = Vbuf.create space ~name:"t_out" ~len:(n * n) in
  Vbuf.h2d a ~src:(Some (Array.init (n * n) float_of_int));
  let band d = (d * n / devs, (d + 1) * n / devs) in
  let src = ref a and dst = ref b in
  for _ = 1 to 6 do
    for d = 0 to devs - 1 do
      let lo, hi = band d in
      let stamp = Machine.lru_tick m in
      ignore
        (Vbuf.sync_for_read !src ~dev:d ~batch:false ~stamp ~raw:0
           ~ranges:[ ((lo - 1) * n, (hi + 1) * n) ]);
      Vbuf.update_for_write !dst ~dev:d ~stamp ~raw:0 ~ranges:[ (lo * n, hi * n) ];
      Vbuf.check_residency !src;
      Vbuf.check_residency !dst
    done;
    let t = !src in
    src := !dst;
    dst := t
  done;
  let eb = (Machine.config m).Config.elem_bytes in
  for d = 0 to devs - 1 do
    let lo, hi = band d in
    let rows = min n (hi + 1) - max 0 (lo - 1) in
    checki "read set resident" (rows * n * eb) (Vbuf.resident_bytes a ~dev:d);
    checki "read set resident (b)" (rows * n * eb) (Vbuf.resident_bytes b ~dev:d)
  done

(* ---------------- Hot-path allocation ---------------- *)

(* Minor words allocated per call of [f], over [n] calls after one
   warm-up call (which may grow a link's reservation window). *)
let words_per_call n f =
  f 0;
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The simulator's per-op host work allocates next to nothing with
   tracing, causal recording and faults off: a paper-scale run issues
   millions of these, and every minor word shows up in host time. *)
let test_hot_path_allocation () =
  let m = Machine.create (Config.k80_box ~n_devices:4 ()) in
  let bufs = Array.init 4 (fun d -> Machine.alloc m ~device:d ~len:1024) in
  let run () = () in
  let bounded name bound f =
    let w = words_per_call 10_000 f in
    Printf.printf "%s: %.1f minor words per call\n" name w;
    if w > bound then
      Alcotest.failf "%s allocates %.1f minor words per call (bound %.0f)"
        name w bound
  in
  bounded "Machine.p2p" 16.0 (fun i ->
      Machine.p2p m ~src:bufs.(i mod 4) ~src_off:0
        ~dst:bufs.((i + 1) mod 4) ~dst_off:0 ~len:256);
  bounded "Machine.launch" 16.0 (fun i ->
      Machine.launch m ~device:(i mod 4) ~blocks:64 ~ops_per_block:1e4 ~run);
  bounded "Machine.host_work" 4.0 (fun _ ->
      Machine.host_work m ~seconds:1e-6 ~category:"pattern");
  (* A charge tape folded per binade allocates nothing either: each
     call crosses binades and folds the periods in between. *)
  let acc = [| 1.0 |] and tape = [| 1e-7; 3.5e-8; 0.0 |] in
  bounded "Timeline.repeat_adds" 0.0 (fun _ ->
      Timeline.repeat_adds acc 0 tape ~times:100_000);
  (* A launch graph of one period (per device a p2p, host work and a
     launch, then a sync) replays in one call allocating nothing: every
     float reaches [Timeline] and [Link] through an array slot. *)
  let period () =
    for d = 0 to 3 do
      Machine.p2p m ~src:bufs.(d) ~src_off:0 ~dst:bufs.((d + 1) mod 4)
        ~dst_off:0 ~len:256;
      Machine.host_work m ~seconds:1e-6 ~category:"pattern";
      Machine.launch m ~device:d ~blocks:64 ~ops_per_block:1e4 ~run
    done;
    Machine.synchronize m
  in
  let g = Option.get (Machine.capture m period) in
  checki "one op per call" 13 (Machine.graph_ops g);
  let ops = float_of_int (Machine.graph_ops g) in
  let live = words_per_call 2_000 (fun _ -> period ()) /. ops in
  let replayed =
    words_per_call 2_000 (fun _ -> ignore (Machine.replay m g ~periods:1)) /. ops
  in
  Printf.printf "period: %.2f minor words per op live, %.2f replayed\n" live
    replayed;
  if replayed > live || replayed > 0.0 then
    Alcotest.failf
      "a replayed op allocates %.2f minor words (live %.2f, bound 0)" replayed
      live;
  (* Folding allocates nothing either: its snapshot buffers are the
     graph's, so 0 words per call is 0 per op replayed one by one. *)
  let folded = ref 0 in
  let per_call =
    words_per_call 200 (fun _ -> folded := !folded + Machine.replay m g ~periods:50)
  in
  Printf.printf "folding: %d of %d periods folded, %.2f minor words per call\n"
    !folded (201 * 50) per_call;
  checkb "folds" true (!folded > 0);
  if per_call > 0.0 then
    Alcotest.failf "a folding replay allocates %.2f minor words per call (bound 0)"
      per_call

(* ---------------- Launch graphs ---------------- *)

(* Replaying a captured graph is bit-identical to issuing its calls
   live on a machine in the same state: of two identical machines, one
   runs a period of calls three times live, the other captures it once
   and replays it twice.  Whatever a graph cannot hold voids the
   capture, and a graph replays only on the machine that captured it. *)
let test_graph_replay () =
  let setup ?(functional = false) () =
    let m = Machine.create ~functional (Config.k80_box ~n_devices:4 ()) in
    Machine.enable_trace m;
    Machine.set_active_devices m 4;
    (m, Array.init 4 (fun d -> Machine.alloc m ~device:d ~len:1024))
  in
  let period m bufs () =
    for d = 0 to 3 do
      ignore (Machine.lru_tick m);
      Machine.p2p m ~src:bufs.((d + 1) mod 4) ~src_off:0 ~dst:bufs.(d)
        ~dst_off:0 ~len:(64 * (d + 1));
      Machine.host_work m ~seconds:1e-6 ~category:"pattern";
      Machine.launch m ~device:d ~blocks:(8 * (d + 1)) ~ops_per_block:1e4
        ~run:ignore
    done;
    Machine.synchronize m
  in
  let live, lb = setup () and rep, rb = setup () in
  for _ = 1 to 3 do
    period live lb ()
  done;
  let g = Option.get (Machine.capture rep (period rep rb)) in
  checki "traced: nothing folded" 0 (Machine.replay rep g ~periods:2);
  checkb "same trace" true (Machine.trace live = Machine.trace rep);
  checkb "same stats" true (Machine.stats live = Machine.stats rep);
  checkb "same byte matrix" true (Machine.byte_matrix live = Machine.byte_matrix rep);
  checki "same LRU clock" (Machine.lru_tick live) (Machine.lru_tick rep);
  let void what m f = checkb what true (Option.is_none (Machine.capture m f)) in
  void "an allocation" rep (fun () -> ignore (Machine.alloc rep ~device:0 ~len:4));
  void "explicit events" rep (fun () ->
      ignore
        (Machine.p2p_async ~deps:[] rep ~src:rb.(0) ~src_off:0 ~dst:rb.(1)
           ~dst_off:0 ~len:8));
  void "a reservation" rep (fun () -> Machine.mem_reserve rep ~device:0 ~bytes:8);
  void "a release" rep (fun () -> Machine.mem_release rep ~device:0 ~bytes:8);
  let fresh, freshb = setup () in
  Machine.set_active_devices fresh 1;
  void "kernels modelled at two derates" fresh (period fresh freshb);
  let f, fb = setup ~functional:true () in
  void "a functional machine" f (period f fb);
  Alcotest.check_raises "another machine"
    (Invalid_argument "Machine.replay: the machine no longer matches the capture")
    (fun () -> ignore (Machine.replay live g ~periods:1))

(* Everything a folded replay must leave as issuing every period would,
   bit for bit: every timeline's clock cells and busy seconds per
   category, every link's reservations, the stats, the byte matrix and
   the LRU clock. *)
let machine_state m =
  let bits = Int64.bits_of_float in
  let timeline tl =
    ( Timeline.name tl,
      Array.map bits (Timeline.clock tl),
      List.map (fun c -> (c, bits (Timeline.busy_in tl c))) (Timeline.categories tl) )
  in
  let devices =
    List.concat_map
      (fun d ->
         let c, i, o = Machine.device_timelines m d in
         [ c; i; o ])
      (List.init (Machine.n_devices m) Fun.id)
  in
  let s = Machine.stats m in
  ( List.map timeline
      (Machine.host_timeline m :: devices @ List.map snd (Machine.link_timelines m)),
    List.map
      (fun (name, r) -> (name, List.map (fun (a, b) -> (bits a, bits b)) r))
      (Machine.link_reservations m),
    ( { s with kernel_seconds = 0.0; pattern_seconds = 0.0; transfer_seconds = 0.0 },
      List.map bits [ s.kernel_seconds; s.pattern_seconds; s.transfer_seconds ] ),
    Machine.byte_matrix m,
    Machine.lru_tick m )

(* Two identical untraced machines run [setup], then capture [period]:
   one replays it for [k] periods in one call, which may fold, the
   other in [k] calls of one period each, which never fold.  Both must
   end in the same state; returns the periods the first folded. *)
let fold_vs_live ?(n_devices = 4) ?topology ~setup ~period k =
  let make () =
    let m = Machine.create (Config.k80_box ~n_devices ?topology ()) in
    Machine.set_active_devices m n_devices;
    let bufs = Array.init n_devices (fun d -> Machine.alloc m ~device:d ~len:4096) in
    setup m bufs;
    (m, Option.get (Machine.capture m (fun () -> period m bufs)))
  in
  let folding, g = make () and live, g1 = make () in
  let folded = Machine.replay folding g ~periods:k in
  let single = ref 0 in
  for _ = 1 to k do
    single := !single + Machine.replay live g1 ~periods:1
  done;
  checki "one period never folds" 0 !single;
  checkb "folded == live periods" true (machine_state folding = machine_state live);
  folded

(* The period of [test_graph_replay]: per device an LRU tick, a p2p from
   its neighbour, host work and a launch, then a sync. *)
let ring_period m bufs =
  let n = Array.length bufs in
  for d = 0 to n - 1 do
    ignore (Machine.lru_tick m);
    Machine.p2p m ~src:bufs.((d + 1) mod n) ~src_off:0 ~dst:bufs.(d) ~dst_off:0
      ~len:(64 * (d + 1));
    Machine.host_work m ~seconds:1e-6 ~category:"pattern";
    Machine.launch m ~device:d ~blocks:(8 * (d + 1)) ~ops_per_block:1e4 ~run:ignore
  done;
  Machine.synchronize m

let no_setup _ _ = ()

(* Folding replays each period's ops once the state shifts exactly, and
   only while that shift provably repeats.  The shift must be an even
   number of ulps of the clock's binade (DESIGN.md §4): for the periods
   below it is in the binade of 3 s and in those either side of 4 s,
   while 0.75 s gives the ring period an odd one. *)
let test_graph_fold () =
  let k = 200 in
  (* From the start the clocks cross a binade every few periods. *)
  let folded = fold_vs_live ~setup:no_setup ~period:ring_period k in
  Printf.printf "flat, from 0: %d of %d periods folded\n" folded k;
  checkb "flat, from 0: folds" true (folded > 0);
  let mid m _ = Machine.host_work m ~seconds:3.0 ~category:"setup" in
  let folded = fold_vs_live ~setup:mid ~period:ring_period k in
  Printf.printf "flat: %d of %d periods folded\n" folded k;
  checkb "flat: folds" true (folded > k / 2);
  (* Islands: intra-island copies on the island links, inter-island ones
     on both uplinks, and host traffic on each device's uplink. *)
  let topology =
    Config.Islands { island_size = 2; link_bandwidth = 80e9; uplink_bandwidth = 12e9 }
  in
  let islands m bufs =
    ring_period m bufs;
    Machine.h2d m ~src:(Array.make 256 0.0) ~src_off:0 ~dst:bufs.(1) ~dst_off:0 ~len:256;
    Machine.d2h m ~src:bufs.(2) ~src_off:0 ~dst:(Array.make 128 0.0) ~dst_off:0 ~len:128
  in
  let folded = fold_vs_live ~topology ~setup:mid ~period:islands k in
  Printf.printf "islands: %d of %d periods folded\n" folded k;
  checkb "islands: folds" true (folded > k / 2);
  (* Starting just below 4 s, the periods cross into the next binade: no
     fold may step over the edge, so the crossing runs live. *)
  let edge m _ = Machine.host_work m ~seconds:(4.0 -. 2e-3) ~category:"setup" in
  let folded = fold_vs_live ~setup:edge ~period:ring_period k in
  Printf.printf "binade edge: %d of %d periods folded\n" folded k;
  checkb "edge: folds on both sides" true (folded > k / 2);
  checkb "edge: crossed live" true (k - folded > 2);
  (* One device: its copy engines, idle since an early upload, are only
     read (by each launch). *)
  let one m bufs =
    Machine.h2d m ~src:(Array.make 64 0.0) ~src_off:0 ~dst:bufs.(0) ~dst_off:0 ~len:64
  in
  let launch_only m _ =
    Machine.host_work m ~seconds:2e-6 ~category:"pattern";
    Machine.launch m ~device:0 ~blocks:16 ~ops_per_block:1e4 ~run:ignore
  in
  let folded =
    fold_vs_live ~n_devices:1 ~setup:(fun m b -> one m b; mid m b) ~period:launch_only k
  in
  checkb "one device: folds" true (folded > k / 2);
  (* Refused: at 0.75 s a host step of three ulps is an odd shift, and
     so is the ring period's; every period runs live. *)
  let early m _ = Machine.host_work m ~seconds:0.75 ~category:"setup" in
  let odd m _ = Machine.host_work m ~seconds:(Float.ldexp 3.0 (-53)) ~category:"pattern" in
  checki "odd shift: no fold" 0 (fold_vs_live ~setup:early ~period:odd k);
  checki "odd ring shift: no fold" 0 (fold_vs_live ~setup:early ~period:ring_period k);
  (* Refused: each period's download waits a kernel that runs far past
     the host, so the bus's reservation window grows by one every
     period. *)
  let behind m bufs =
    Machine.launch m ~device:0 ~blocks:4096 ~ops_per_block:1e6 ~run:ignore;
    Machine.d2h m ~src:bufs.(0) ~src_off:0 ~dst:(Array.make 64 0.0) ~dst_off:0 ~len:64
  in
  checki "growing window: no fold" 0 (fold_vs_live ~setup:no_setup ~period:behind 50)

(* Scheduled losses that could never fire are rejected, not ignored. *)
let test_faults_reject_impossible_losses () =
  List.iter
    (fun s ->
       checkb (Printf.sprintf "%S rejected" s) true
         (match Faults.spec_of_string s with Error _ -> true | Ok _ -> false))
    [ "1,0,1@nan"; "1,0,1@-0.5"; "1,0,1@inf"; "1,nan" ];
  let spec s =
    match Faults.spec_of_string s with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  checkb "in range" true
    (Faults.check_devices (spec "1,0,3@0.0001") ~n_devices:4 = Ok ());
  Alcotest.(check (result unit string))
    "device past the fleet" (Error "device 7 is out of range for 4 GPUs")
    (Faults.check_devices (spec "1,0,7@0.0001") ~n_devices:4);
  Alcotest.(check (result unit string))
    "negative device" (Error "device -1 is out of range for 4 GPUs")
    (Faults.check_devices (spec "1,0,0@1,-1@0.0001") ~n_devices:4)

let () =
  Alcotest.run "gpusim"
    [
      ( "timeline",
        [
          Alcotest.test_case "ordering" `Quick test_timeline_order;
          Alcotest.test_case "empty windows" `Quick
            test_timeline_empty_windows;
          Alcotest.test_case "sorted categories" `Quick
            test_timeline_categories_sorted;
          Alcotest.test_case "schedule_at backfill" `Quick
            test_timeline_schedule_at;
          Alcotest.test_case "category cache" `Quick
            test_timeline_category_cache;
          QCheck_alcotest.to_alcotest prop_repeat_adds;
        ] );
      ( "link",
        [
          QCheck_alcotest.to_alcotest prop_link_matches_oracle;
          Alcotest.test_case "coalesced reservations" `Quick
            test_link_coalesces;
        ] );
      ( "config",
        [
          Alcotest.test_case "field validation" `Quick test_config_validation;
          Alcotest.test_case "device speeds finite" `Quick test_device_speeds_finite;
          Alcotest.test_case "topology specs" `Quick test_topology_spec;
        ] );
      ( "memory",
        [
          Alcotest.test_case "accounting" `Quick test_mem_accounting;
          Alcotest.test_case "uncapped hotspot residency" `Quick
            test_uncapped_hotspot_residency;
        ] );
      ( "timing",
        [
          Alcotest.test_case "transfer duration" `Quick test_transfer_time;
          Alcotest.test_case "fabric contention" `Quick test_fabric_contention;
          Alcotest.test_case "p2p double fabric" `Quick test_p2p_double_fabric;
          Alcotest.test_case "p2p same device" `Quick test_p2p_same_device;
          Alcotest.test_case "kernel waves" `Quick test_kernel_time_waves;
          Alcotest.test_case "autoboost derate" `Quick test_autoboost;
          Alcotest.test_case "default-stream order" `Quick test_default_stream_ordering;
          Alcotest.test_case "p2p waits source" `Quick test_p2p_waits_src_compute;
          Alcotest.test_case "sync after drain" `Quick
            test_sync_charged_after_drain;
          Alcotest.test_case "hot-path allocation" `Quick
            test_hot_path_allocation;
          Alcotest.test_case "launch graph replay == live" `Quick
            test_graph_replay;
          Alcotest.test_case "launch graph fold == replay" `Quick
            test_graph_fold;
        ] );
      ( "data",
        [
          Alcotest.test_case "functional copies" `Quick test_functional_copies;
          Alcotest.test_case "event trace" `Quick test_trace;
          Alcotest.test_case "range checks" `Quick test_range_checks;
          Alcotest.test_case "buffer basics" `Quick test_buffer_basics;
          Alcotest.test_case "byte matrix" `Quick test_byte_matrix;
        ] );
      ( "arena",
        [
          Alcotest.test_case "zero on reuse" `Quick test_arena_zero_on_reuse;
          Alcotest.test_case "alloc after release raises" `Quick
            test_arena_released_alloc_raises;
          Alcotest.test_case "retention bound" `Quick
            test_arena_retention_bound;
        ] );
      ( "faults",
        [
          Alcotest.test_case "deterministic stream" `Quick
            test_faults_deterministic;
          Alcotest.test_case "spec parsing" `Quick test_faults_spec_parse;
          Alcotest.test_case "impossible losses" `Quick
            test_faults_reject_impossible_losses;
          Alcotest.test_case "consecutive cap" `Quick
            test_faults_consecutive_cap;
          Alcotest.test_case "transient fault" `Quick
            test_machine_transient_fault;
          Alcotest.test_case "faulted transfer accounting" `Quick
            test_faulted_transfer_accounting;
          Alcotest.test_case "device loss" `Quick test_machine_device_loss;
          Alcotest.test_case "off by default" `Quick
            test_machine_faults_off_by_default;
        ] );
    ]
