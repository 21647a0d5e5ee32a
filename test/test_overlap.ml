(* Tests for asynchronous compute/communication overlap: the explicit
   event/stream API of the simulator, the topology-aware fabric with
   per-link contention and time-based (backfill) admission, and the
   overlap execution engine's bit-identity guarantee against the
   barriered engine — including under fault schedules and device
   memory caps. *)

let checkb = Alcotest.check Alcotest.bool
let checkf msg a b = Alcotest.check (Alcotest.float 1e-12) msg a b
let qtest t = QCheck_alcotest.to_alcotest t

open Gpusim

(* ---------------- Helpers ---------------- *)

let compile_exn prog =
  match Mekong.Toolchain.compile prog with
  | Ok a -> a.Mekong.Toolchain.exe
  | Error e -> Alcotest.failf "toolchain: %s" (Mekong.Toolchain.error_message e)

(* Run a host program through the partitioned engine on a functional
   machine; returns the engine result and the machine. *)
let run_engine ?fault_spec ?mem_capacity ?topology ~overlap ~devices prog =
  let exe = compile_exn prog in
  let m =
    Machine.create ~functional:true
      (Config.test_box ~n_devices:devices ?mem_capacity ?topology ())
  in
  (match fault_spec with
   | Some s -> Machine.inject_faults m (Faults.create s)
   | None -> ());
  let r = Mekong.Multi_gpu.run ~checkpoint_every:3 ~overlap ~machine:m exe in
  (r, m)

let islands ?(island_size = 2) () =
  Config.Islands
    { island_size; link_bandwidth = 20.0e9; uplink_bandwidth = 12.0e9 }

(* ---------------- Engine bit-identity (differential) ----------------

   The overlap engine drops the host barrier between the read exchange
   and the launches; its functional results must stay bit-identical to
   the barriered engine (and thus to the CPU reference) on every
   machine. *)

let prop_vecadd_overlap =
  QCheck.Test.make ~name:"vecadd: overlap = CPU across random sizes/devices"
    ~count:20
    QCheck.(pair (int_range 1 600) (int_range 1 8))
    (fun (n, g) ->
      let prog, out, cpu = Apps.Workloads.functional_vecadd ~n in
      ignore (run_engine ~overlap:true ~devices:g prog);
      out = cpu ())

let prop_hotspot_overlap =
  QCheck.Test.make ~name:"hotspot: overlap = CPU across random sizes/devices"
    ~count:8
    QCheck.(pair (int_range 3 40) (int_range 1 6))
    (fun (n, g) ->
      let prog, out, cpu = Apps.Workloads.functional_hotspot ~n ~iterations:3 in
      ignore (run_engine ~overlap:true ~devices:g prog);
      out = cpu ())

let prop_topology_overlap =
  QCheck.Test.make
    ~name:"vecadd: overlap = CPU across random island topologies" ~count:12
    QCheck.(triple (int_range 1 400) (int_range 1 8) (int_range 1 4))
    (fun (n, g, island_size) ->
      let prog, out, cpu = Apps.Workloads.functional_vecadd ~n in
      ignore
        (run_engine ~topology:(islands ~island_size ()) ~overlap:true
           ~devices:g prog);
      out = cpu ())

(* Prefetches issued under a mid-run device loss plus transient
   kernel/transfer faults must not leak into results: the self-healing
   overlap engine stays bit-identical. *)
let test_overlap_under_faults () =
  let mk () = Apps.Workloads.functional_hotspot ~n:48 ~iterations:6 in
  let prog0, base, cpu0 = mk () in
  let r0, _ = run_engine ~overlap:true ~devices:3 prog0 in
  checkb "fault-free overlap = CPU" true (base = cpu0 ());
  let spec =
    {
      Faults.null_spec with
      seed = 42;
      kernel_fault_rate = 0.02;
      transfer_fault_rate = 0.02;
      scheduled_losses = [ (1, 0.3 *. r0.Mekong.Multi_gpu.time) ];
    }
  in
  let prog, out, cpu = mk () in
  let r, _ = run_engine ~fault_spec:spec ~overlap:true ~devices:3 prog in
  checkb "bit-identical under faults" true (out = cpu ());
  checkb "the device loss actually fired" true
    (r.Mekong.Multi_gpu.faults.Mekong.Multi_gpu.fr_devices_lost > 0)

(* Under a finite device-memory capacity the chunked path keeps its
   barrier (its eager tracker updates rely on it); the run must still
   complete bit-identically with overlap requested. *)
let test_overlap_under_memcap () =
  let mk () = Apps.Workloads.functional_hotspot ~n:64 ~iterations:4 in
  let prog0, base, _ = mk () in
  let _, m0 = run_engine ~overlap:false ~devices:4 prog0 in
  let hw = ref 0 in
  for d = 0 to 3 do
    hw := max !hw (Machine.mem_high_water m0 d)
  done;
  let prog, out, _ = mk () in
  let r, m = run_engine ~mem_capacity:(!hw / 2) ~overlap:true ~devices:4 prog in
  checkb "bit-identical under a memory cap" true (out = base);
  checkb "memory pressure actually engaged" true
    (Obs.Metrics.get r.Mekong.Multi_gpu.metrics "engine.chunked_launches" > 0.0
     || (Machine.stats m).Machine.n_spills > 0)

(* On performance machines the overlap engine may only shift work
   earlier: never slower than the barriered engine, with the same
   traffic. *)
let test_overlap_not_slower () =
  let prog =
    Apps.Workloads.program ~iterations:4 Apps.Workloads.Hotspot_b
      Apps.Workloads.Small
  in
  let exe = compile_exn prog in
  let time overlap =
    let m =
      Machine.create ~functional:false (Config.k80_box ~n_devices:4 ())
    in
    let r = Mekong.Multi_gpu.run ~overlap ~machine:m exe in
    (r.Mekong.Multi_gpu.time, Machine.stats m)
  in
  let tb, sb = time false in
  let t_o, so = time true in
  checkb "overlap not slower than barrier" true (t_o <= tb +. 1e-12);
  Alcotest.(check int) "same h2d traffic" sb.Machine.h2d_bytes so.Machine.h2d_bytes;
  Alcotest.(check int) "same d2h traffic" sb.Machine.d2h_bytes so.Machine.d2h_bytes;
  Alcotest.(check int) "same p2p traffic" sb.Machine.p2p_bytes so.Machine.p2p_bytes

(* ---------------- Explicit-stream pipelines ----------------

   A double-buffered streaming pipeline built directly on the
   event/stream API: the h2d of chunk c may not overwrite slot s
   before the kernel of the slot's previous tenant has read it;
   everything else chains through events with no host barrier until
   the end.  Must be bit-identical to the fully barriered schedule
   for every shape and topology. *)

let stream ~overlap m ~g ~chunks ~chunk_len =
  let input =
    Array.init chunks (fun c ->
        Array.init chunk_len (fun i ->
            float_of_int (((c * 31) + (i * 13)) mod 101) /. 7.0))
  in
  let output = Array.init chunks (fun _ -> Array.make chunk_len nan) in
  let bin =
    Array.init g (fun d ->
        Array.init 2 (fun _ -> Machine.alloc m ~device:d ~len:chunk_len))
  in
  let bout =
    Array.init g (fun d ->
        Array.init 2 (fun _ -> Machine.alloc m ~device:d ~len:chunk_len))
  in
  let body d s () =
    let src = Buffer.data_exn bin.(d).(s) in
    let dst = Buffer.data_exn bout.(d).(s) in
    for i = 0 to chunk_len - 1 do
      dst.(i) <- (2.0 *. src.(i)) -. 1.0
    done
  in
  if overlap then begin
    let slot_free = Array.make_matrix g 2 0.0 in
    for c = 0 to chunks - 1 do
      let d = c mod g and s = c / g mod 2 in
      let up =
        Machine.h2d_async ~deps:[ slot_free.(d).(s) ] m ~src:input.(c)
          ~src_off:0 ~dst:bin.(d).(s) ~dst_off:0 ~len:chunk_len
      in
      let k =
        Machine.launch_async ~deps:[ up ] m ~device:d ~blocks:1
          ~ops_per_block:1.0 ~run:(body d s)
      in
      slot_free.(d).(s) <- k;
      ignore
        (Machine.d2h_async ~deps:[ k ] m ~src:bout.(d).(s) ~src_off:0
           ~dst:output.(c) ~dst_off:0 ~len:chunk_len)
    done;
    Machine.synchronize m
  end
  else
    for c = 0 to chunks - 1 do
      let d = c mod g in
      Machine.h2d m ~src:input.(c) ~src_off:0 ~dst:bin.(d).(0) ~dst_off:0
        ~len:chunk_len;
      Machine.synchronize m;
      Machine.launch m ~device:d ~blocks:1 ~ops_per_block:1.0 ~run:(body d 0);
      Machine.synchronize m;
      Machine.d2h m ~src:bout.(d).(0) ~src_off:0 ~dst:output.(c) ~dst_off:0
        ~len:chunk_len;
      Machine.synchronize m
    done;
  output

let prop_stream_identity =
  QCheck.Test.make
    ~name:"streaming pipeline: overlap = barrier across shapes/topologies"
    ~count:30
    QCheck.(
      quad (int_range 1 6) (int_range 1 12) (int_range 1 64) (int_range 0 3))
    (fun (g, chunks, chunk_len, isl) ->
      let topology = if isl = 0 then None else Some (islands ~island_size:isl ()) in
      let mk () =
        Machine.create ~functional:true
          (Config.test_box ~n_devices:g ?topology ())
      in
      stream ~overlap:true (mk ()) ~g ~chunks ~chunk_len
      = stream ~overlap:false (mk ()) ~g ~chunks ~chunk_len)

(* ---------------- Per-link contention (hand-computed) ----------------

   Quiet islands machine: 4 devices in islands of 2; intra-island
   links at 2 GB/s, per-island host uplinks at 1 GB/s; zero latencies.
   1e6 elements * 4 bytes = 4 MB per transfer, so 2 ms on a link and
   4 ms on an uplink.  The windows below leave a few hundred
   microseconds of slack for issue overheads. *)

let quiet_islands () =
  {
    (Config.k80_box ~n_devices:4
       ~topology:
         (Config.Islands
            { island_size = 2; link_bandwidth = 2e9; uplink_bandwidth = 1e9 })
       ())
    with
    Config.transfer_latency = 0.0;
    launch_latency = 0.0;
    sync_device_seconds = 0.0;
    pcie_bandwidth = 1e9;
    p2p_bandwidth = 1e9;
    autoboost_derate = 0.0;
    elem_bytes = 4;
  }

let alloc4 m = Array.init 4 (fun d -> Machine.alloc m ~device:d ~len:1_000_000)

let test_islands_parallel_links () =
  (* Two intra-island copies in different islands run on different
     links: both finish in one link time (2 ms), not two. *)
  let m = Machine.create (quiet_islands ()) in
  let b = alloc4 m in
  Machine.p2p m ~src:b.(0) ~src_off:0 ~dst:b.(1) ~dst_off:0 ~len:1_000_000;
  Machine.p2p m ~src:b.(2) ~src_off:0 ~dst:b.(3) ~dst_off:0 ~len:1_000_000;
  Machine.synchronize m;
  let t = Machine.host_time m in
  checkb "parallel island links do not contend" true (t >= 0.002 && t < 0.0025);
  (* Each island link carried exactly its own 2 ms; the flat bus and
     the uplinks carried nothing. *)
  checkf "flat bus unused" 0.0 (Timeline.busy_in (Machine.fabric_timeline m) "bus");
  List.iter
    (fun (name, tl) ->
       let busy = Timeline.busy_in tl "bus" in
       if String.length name >= 6
          && String.sub name (String.length name - 6) 6 = "uplink"
       then checkf (name ^ " unused") 0.0 busy
       else checkf (name ^ " carried one copy") 0.002 busy)
    (Machine.link_timelines m)

let test_islands_same_link_serializes () =
  (* Two copies over the SAME island link (opposite directions, so
     they share no copy engine) serialize on the link: 4 ms total. *)
  let m = Machine.create (quiet_islands ()) in
  let b = alloc4 m in
  Machine.p2p m ~src:b.(0) ~src_off:0 ~dst:b.(1) ~dst_off:0 ~len:1_000_000;
  Machine.p2p m ~src:b.(1) ~src_off:0 ~dst:b.(0) ~dst_off:0 ~len:1_000_000;
  Machine.synchronize m;
  let t = Machine.host_time m in
  checkb "same-link copies serialize" true (t >= 0.004 && t < 0.0045)

let test_inter_island_both_uplinks () =
  (* An inter-island copy stages through the switch and occupies BOTH
     islands' uplinks for its full wire time. *)
  let m = Machine.create (quiet_islands ()) in
  let b = alloc4 m in
  Machine.p2p m ~src:b.(0) ~src_off:0 ~dst:b.(2) ~dst_off:0 ~len:1_000_000;
  Machine.synchronize m;
  List.iter
    (fun (name, tl) ->
       let busy = Timeline.busy_in tl "bus" in
       if String.length name >= 6
          && String.sub name (String.length name - 6) 6 = "uplink"
       then checkf (name ^ " occupied by the crossing") 0.004 busy
       else checkf (name ^ " untouched") 0.0 busy)
    (Machine.link_timelines m);
  (* A host transfer into island 0 now queues behind the crossing on
     that island's uplink: it cannot complete before 4 ms + its own
     1 ms, proving the source-side uplink really was held. *)
  Machine.h2d m ~src:[||] ~src_off:0 ~dst:b.(1) ~dst_off:0 ~len:250_000;
  Machine.synchronize m;
  let t = Machine.host_time m in
  checkb "h2d blocked by the crossing" true (t >= 0.005 && t < 0.0055)

(* ---------------- Backfill admission (hand-computed) ----------------

   Link admission is by time, not issue order: a transfer whose
   dependencies resolve early starts in a bus gap BEFORE an
   earlier-issued transfer whose dependencies park it in the far
   future.  Flat quiet machine: pcie 1 GB/s, fabric 2 GB/s; a 10 ms
   kernel on device 0 parks its d2h at t=10ms; an independent 4 MB
   h2d to device 1 (issued later) must run in the [0, 10ms) gap and
   finish around 4 ms — a FIFO bus would stall it to ~16 ms. *)
let test_backfill_gap () =
  let cfg =
    {
      (Config.k80_box ~n_devices:2 ()) with
      Config.transfer_latency = 0.0;
      launch_latency = 0.0;
      sync_device_seconds = 0.0;
      pcie_bandwidth = 1e9;
      p2p_bandwidth = 1e9;
      fabric_bandwidth = 2e9;
      autoboost_derate = 0.0;
      elem_bytes = 4;
      ops_per_sm = 1e9;
      sms_per_device = 10;
      blocks_per_sm = 2;
    }
  in
  let m = Machine.create cfg in
  let b0 = Machine.alloc m ~device:0 ~len:1_000_000 in
  let b1 = Machine.alloc m ~device:1 ~len:1_000_000 in
  (* 20 blocks of 5e6 ops = one wave of 10 ms on device 0. *)
  let k =
    Machine.launch_async m ~device:0 ~blocks:20 ~ops_per_block:5e6
      ~run:(fun () -> ())
  in
  checkb "kernel runs ~10ms" true (k >= 0.010 && k < 0.0105);
  (* Issued FIRST, parked at the kernel's end: bus [10ms, 12ms). *)
  let down =
    Machine.d2h_async ~deps:[ k ] m ~src:b0 ~src_off:0 ~dst:[||] ~dst_off:0
      ~len:1_000_000
  in
  (* Issued SECOND with no dependencies: backfills the [0, 10ms) gap. *)
  let up =
    Machine.h2d_async ~deps:[] m ~src:[||] ~src_off:0 ~dst:b1 ~dst_off:0
      ~len:1_000_000
  in
  checkb "late-issued h2d backfills the gap" true (up >= 0.004 && up < 0.0045);
  checkb "h2d finishes under the kernel" true (up < k);
  checkb "parked d2h keeps its slot" true (down >= 0.014 && down < 0.0145);
  Machine.synchronize m;
  let t = Machine.host_time m in
  checkb "end-to-end bounded by the parked d2h" true
    (t >= 0.014 && t < 0.0145)

let () =
  Alcotest.run "overlap"
    [
      ( "engine",
        [
          qtest prop_vecadd_overlap;
          qtest prop_hotspot_overlap;
          qtest prop_topology_overlap;
          Alcotest.test_case "bit-identical under faults" `Quick
            test_overlap_under_faults;
          Alcotest.test_case "bit-identical under a memory cap" `Quick
            test_overlap_under_memcap;
          Alcotest.test_case "never slower than the barrier" `Quick
            test_overlap_not_slower;
        ] );
      ("streams", [ qtest prop_stream_identity ]);
      ( "topology",
        [
          Alcotest.test_case "parallel island links" `Quick
            test_islands_parallel_links;
          Alcotest.test_case "same-link serialization" `Quick
            test_islands_same_link_serializes;
          Alcotest.test_case "inter-island uplinks" `Quick
            test_inter_island_both_uplinks;
        ] );
      ( "backfill",
        [ Alcotest.test_case "gap admission" `Quick test_backfill_gap ] );
    ]
