(* Cost-driven partition autotuning (ROADMAP item 2).

   For one launch, enumerate candidate partition plans — the model's
   fixed axis, 1-D on every other axis with more than one block,
   near-square 2-D tile grids, throughput-proportional uneven 1-D
   splits on heterogeneous fleets, and 1-D splits over *fewer* devices
   than the fleet offers (small launches stop scaling long before the
   fleet runs out, paper Fig. 6) — and score each with the simulator's
   own cost model:

     compute   per-partition [Costmodel.ops_per_block] through the
               simulator's wave/occupancy/autoboost formula
               ([Gpusim.Config.kernel_seconds]), with per-device
               [Config.device_speeds];
     transfer  the polyhedral footprint of cross-device bytes: the
               elements each partition reads but does not own in the
               steady state (its own writes for written buffers, the
               writes of its swap partner for double-buffered stencils,
               the linear H2D distribution otherwise), priced at the
               topology's bandwidths, per-transfer latency, and the
               flat fabric's 2x-bytes shared-bus occupancy;
     host      the engine's per-launch "patterns" charges — raw
               enumerator emissions and per-range tracker traffic —
               which is what makes fragmented 2-D column halos lose to
               contiguous 1-D bands on this machine (paper §8.1);
     barrier   the per-launch device synchronization, amortized by the
               halo depth for candidates that qualify for halo tiling
               (see below).

   The winner is the argmin with a deterministic tie-break that prefers
   the model's fixed axis, plus two guard bands: a 2% hysteresis band
   (any candidate must beat the running best by more than the band),
   and a 20% decisiveness margin for candidates that change the
   partition structure — another axis, a 2-D tiling, fewer devices —
   whose scores carry the model's full error bars rather than the
   differential error of a same-shape refinement.  Both exist so noise
   in the model never makes autotuned runs slower than the baseline
   they are gated against.

   Halo awareness: a 1-D band candidate inside a [Repeat] whose
   per-iteration exchange is a stencil halo (contiguous band writes,
   reads a band at most one overhang wider, double-buffered through a
   Swap) can be executed by the engine's halo-tiled schedule: widen
   each partition by one block row, exchange a [depth]-step halo once
   per [depth] iterations, and skip the per-step barrier.  Bytes are
   invariant under the depth (each halo row crosses the fabric exactly
   once either way); what the depth divides is the per-transfer latency
   and the barrier.  [choose] detects eligibility from the same
   polyhedral ranges it scores with and reports the depth on the
   candidate, so the engine executes exactly the schedule the score
   promised. *)

type shape =
  | Fixed of Dim3.axis (* the model's strategy axis, balanced 1-D *)
  | One_d of Dim3.axis
  | Two_d of Dim3.axis * Dim3.axis
  | Weighted of Dim3.axis (* throughput-proportional uneven 1-D *)
  | Narrow of Dim3.axis * int (* strategy axis over fewer devices *)

let shape_name = function
  | Fixed a -> "fixed-1d-" ^ Dim3.axis_name a
  | One_d a -> "1d-" ^ Dim3.axis_name a
  | Two_d (a, b) ->
    Printf.sprintf "2d-%s%s" (Dim3.axis_name a) (Dim3.axis_name b)
  | Weighted a -> "weighted-1d-" ^ Dim3.axis_name a
  | Narrow (a, k) -> Printf.sprintf "1d-%s@%d" (Dim3.axis_name a) k

(* Recognize a recorded winner that keeps the untuned engine's
   partitioning: "" (plan never tuned) or a [Fixed _] name. *)
let seed_shape_name name =
  name = "" || (String.length name >= 6 && String.sub name 0 6 = "fixed-")

type candidate = {
  shape : shape;
  parts : Partition.t list;
      (* slot-indexed (device = slot), empties filtered; the engine
         maps slots onto live device ids *)
  compute_s : float; (* predicted makespan of the compute phase *)
  transfer_s : float; (* predicted exchange wall time per launch *)
  host_s : float; (* predicted host pattern/dispatch serial time *)
  busy_s : float; (* total resource-seconds (calibration metric) *)
  cross_bytes : int; (* steady-state cross-device bytes per launch *)
  n_transfers : int; (* predicted transfer count per launch *)
  halo : halo_plan option; (* halo-tiled schedule ([None] = per-step) *)
  score : float;
}

and halo_plan = {
  hp_axis : Dim3.axis;
  hp_depth : int; (* temporal blocking factor T *)
  hp_write_buf : string; (* buffer the kernel writes (by launch name) *)
  hp_read_buf : string; (* its swap partner, the stencil input *)
  hp_halo_elems : int; (* one-step overhang h, in elements per side *)
}

let halo_depth c = match c.halo with None -> 0 | Some hp -> hp.hp_depth

type choice = {
  c_kernel : string;
  c_grid : Dim3.t;
  c_block : Dim3.t;
  c_candidates : candidate list;
  c_winner : candidate;
  c_raw_ranges : int;
      (* raw enumerator emissions spent searching (reported, not
         charged: like plan building itself, the search is launch-
         parameter-pure and cached with the plan) *)
}

(* Hysteresis: a candidate must beat the fixed-axis plan's score by
   this factor to displace it.  Keeps the "autotuned never slower"
   gate safe against small modelling errors. *)
let hysteresis = 0.98

(* A candidate that changes the partition *structure* — another axis,
   a 2-D tiling, or fewer devices — must beat the fixed plan by this
   much, not just by the hysteresis band.  The score is a static model
   whose error bars are far wider than a few percent (waves quantize,
   the simulator overlaps transfers the model sums, packed copies
   serialize engines the model treats as free), and when the predicted
   edge sits inside those bars the structure change loses as often as
   it wins.  Same-structure refinements (a weighted split of the same
   axis, a halo depth on the fixed bands) reuse the fixed plan's
   transfer pattern, so the model's systematic error cancels in the
   comparison and the narrow hysteresis band is enough for them. *)
let shape_margin = 0.80

(* Cap on the halo depth (temporal blocking factor).  Bounded by the
   apron one widened block row can absorb anyway; 16 matches a 16-wide
   thread block with a one-row overhang. *)
let max_halo_depth = 16

(* --- Range-set arithmetic (sorted, disjoint, half-open) ------------- *)

let normalize ranges =
  let ranges = List.filter (fun (s, e) -> e > s) ranges in
  match List.sort compare ranges with
  | [] -> []
  | (s0, e0) :: rest ->
    let closed, last =
      List.fold_left
        (fun (acc, (cs, ce)) (s, e) ->
           if s > ce then ((cs, ce) :: acc, (s, e)) else (acc, (cs, max ce e)))
        ([], (s0, e0))
        rest
    in
    List.rev (last :: closed)

let total_len ranges = List.fold_left (fun a (s, e) -> a + e - s) 0 ranges

(* [diff a b]: elements of [a] not in [b]; both normalized. *)
let diff a b =
  let rec go acc a b =
    match (a, b) with
    | [], _ -> List.rev acc
    | _, [] -> List.rev_append acc a
    | (s, e) :: arest, (bs, be) :: brest ->
      if be <= s then go acc a brest
      else if bs >= e then go ((s, e) :: acc) arest b
      else begin
        let acc = if bs > s then (s, bs) :: acc else acc in
        if be < e then go acc ((be, e) :: arest) brest
        else go acc arest b
      end
  in
  go [] a b

let clamp ~len ranges =
  List.filter_map
    (fun (s, e) ->
       let s = max 0 s and e = min e len in
       if e > s then Some (s, e) else None)
    ranges

(* --- Scoring -------------------------------------------------------- *)

(* One partition's evaluated access sets, merged per buffer name. *)
type part_access = {
  pa_part : Partition.t;
  pa_dev : int; (* actual device id (through the live map) *)
  pa_speed : float;
  pa_reads : (string * (int * int) list) list;
  pa_writes : (string * (int * int) list) list;
  pa_blocks : int;
  pa_ops_per_block : float;
}

let assoc_ranges buf l = Option.value ~default:[] (List.assoc_opt buf l)

(* Detect the single split axis of a 1-D band family; [None] when the
   partitions differ along more than one axis (2-D tiles) or none. *)
let band_axis ~grid parts =
  let differs a =
    List.exists
      (fun (p : Partition.t) ->
         Dim3.get p.Partition.min_blocks a > 0
         || Dim3.get p.Partition.max_blocks a < Dim3.get grid a)
      parts
  in
  match List.filter differs Dim3.axes with
  | [ a ] -> Some a
  | _ -> None

(* Halo-tiling eligibility of a 1-D band candidate (legality argument
   in DESIGN.md §18): per partition the writes must form one dense
   band, bands must be pairwise disjoint, and the reads one dense band
   containing it; the only written buffer must be double-buffered
   against the only other accessed buffer via [aliases].  The depth is
   bounded by what a one-block-row apron can absorb: depth * h must
   fit in the elements of one block row along the split axis. *)
let halo_eligible ~grid ~iters ~aliases accesses =
  if iters < 2 then None
  else
    match accesses with
    | [] -> None
    | _ :: _ ->
      (match band_axis ~grid (List.map (fun a -> a.pa_part) accesses) with
       | None -> None
       | Some axis ->
         let written_bufs =
           List.sort_uniq compare
             (List.concat_map
                (fun a ->
                   List.filter_map
                     (fun (b, rs) -> if rs = [] then None else Some b)
                     a.pa_writes)
                accesses)
         in
         let read_bufs =
           List.sort_uniq compare
             (List.concat_map
                (fun a ->
                   List.filter_map
                     (fun (b, rs) -> if rs = [] then None else Some b)
                     a.pa_reads)
                accesses)
         in
         match (written_bufs, read_bufs) with
         | [ wbuf ], [ rbuf ]
           when wbuf <> rbuf
                && (List.mem (wbuf, rbuf) aliases
                    || List.mem (rbuf, wbuf) aliases) ->
           (* Dense single-range bands, reads containing writes. *)
           let hull = function
             | [ (s, e) ] -> Some (s, e)
             | _ -> None
           in
           let per_part =
             List.map
               (fun a ->
                  match
                    ( hull (assoc_ranges wbuf a.pa_writes),
                      hull (assoc_ranges rbuf a.pa_reads) )
                  with
                  | Some (ws, we), Some (rs, re)
                    when rs <= ws && re >= we && we > ws ->
                    let band_blocks =
                      Dim3.get a.pa_part.Partition.max_blocks axis
                      - Dim3.get a.pa_part.Partition.min_blocks axis
                    in
                    if band_blocks <= 0 || (we - ws) mod band_blocks <> 0
                    then None
                    else
                      Some
                        ( (ws, we),
                          max (ws - rs) (re - we),
                          (we - ws) / band_blocks )
                  | _ -> None)
               accesses
           in
           if List.exists (fun x -> x = None) per_part then None
           else begin
             let per_part = List.filter_map Fun.id per_part in
             (* Bands pairwise disjoint (sorted by start). *)
             let bands =
               List.sort compare (List.map (fun (b, _, _) -> b) per_part)
             in
             let rec disjoint = function
               | (_, e1) :: ((s2, _) :: _ as rest) ->
                 e1 <= s2 && disjoint rest
               | _ -> true
             in
             let h =
               List.fold_left (fun acc (_, h, _) -> max acc h) 0 per_part
             in
             let slab =
               List.fold_left
                 (fun acc (_, _, s) -> min acc s)
                 max_int per_part
             in
             if (not (disjoint bands)) || h <= 0 || slab = max_int then None
             else begin
               let depth = min (min (slab / h) max_halo_depth) iters in
               if depth < 2 then None
               else
                 Some
                   {
                     hp_axis = axis;
                     hp_depth = depth;
                     hp_write_buf = wbuf;
                     hp_read_buf = rbuf;
                     hp_halo_elems = h;
                   }
             end
           end
         | _ -> None)

(* --- Candidate enumeration and choice ------------------------------- *)

let choose ~(cfg : Gpusim.Config.t) ~live ~(km : Model.kernel_model)
    ~(enums : Codegen.t) ~(partitioned : Kir.t) ~(kernel : Kir.t) ~grid
    ~block ~args ?(aliases = []) ?(iters = 1) ~buf_len () : choice =
  let n = List.length live in
  let live_arr = Array.of_list live in
  let primary = km.Model.strategy in
  let speeds =
    Array.map (fun d -> Gpusim.Config.device_speed cfg d) live_arr
  in
  let hetero = n > 1 && Array.exists (fun s -> s <> speeds.(0)) speeds in
  (* Candidate shapes, fixed axis first (ties prefer it). *)
  let shapes =
    let one_d =
      if n <= 1 then []
      else
        List.filter_map
          (fun a ->
             if a = primary || Dim3.get grid a <= 1 then None
             else Some (One_d a, Partition.make ~grid ~axis:a ~n))
          Dim3.axes
    in
    let two_d =
      if n < 2 then []
      else
        let gt1 = List.filter (fun a -> Dim3.get grid a > 1) Dim3.axes in
        let rec pairs = function
          | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
          | [] -> []
        in
        List.map
          (fun (a1, a2) ->
             (Two_d (a1, a2), Partition.make_2d ~grid ~axis1:a1 ~axis2:a2 ~n))
          (pairs gt1)
    in
    let weighted =
      if not hetero then []
      else
        List.filter_map
          (fun a ->
             if Dim3.get grid a <= 1 then None
             else
               Some
                 (Weighted a, Partition.make_weighted ~grid ~axis:a ~weights:speeds))
          Dim3.axes
    in
    let narrow =
      (* Halved device counts down to 1, on the strategy axis only. *)
      let rec ks k acc = if k < 1 then acc else ks (k / 2) (k :: acc) in
      List.filter_map
        (fun k ->
           if k >= n then None
           else Some (Narrow (primary, k), Partition.make ~grid ~axis:primary ~n:k))
        (ks (n / 2) [])
    in
    ((Fixed primary, Partition.make ~grid ~axis:primary ~n) :: one_d)
    @ two_d @ weighted @ narrow
  in
  let common =
    Host_ir.scalar_bindings kernel args
    @ List.concat_map
        (fun a ->
           [ (Access.bdim_name a, Dim3.get block a);
             (Access.gdim_name a, Dim3.get grid a) ])
        Dim3.axes
  in
  let arg_arrays = Host_ir.array_bindings kernel args in
  let raw_total = ref 0 in
  let elem_bytes = cfg.Gpusim.Config.elem_bytes in
  let host = cfg.Gpusim.Config.host in
  let eval_part (p : Partition.t) select =
    let bindings = common @ Partition.box_bindings p ~block in
    let tbl = Hashtbl.create 4 in
    List.iter
      (fun (arr, bufname) ->
         match Option.bind (Codegen.entry enums arr) select with
         | Some enum ->
           let ranges, raw = Codegen.ranges_counted enum ~bindings in
           raw_total := !raw_total + raw;
           let prev = Option.value ~default:[] (Hashtbl.find_opt tbl bufname) in
           Hashtbl.replace tbl bufname
             (clamp ~len:(buf_len bufname) ranges @ prev)
         | None -> ())
      arg_arrays;
    List.sort compare
      (Hashtbl.fold (fun b rs acc -> (b, normalize rs) :: acc) tbl [])
  in
  let score_candidate (shape, parts) =
    let parts = List.filter (fun p -> not (Partition.is_empty p)) parts in
    let accesses =
      List.map
        (fun (p : Partition.t) ->
           let slot = p.Partition.device in
           let dev = if slot < n then live_arr.(slot) else slot in
           let part_args = args @ Partition.partition_args p in
           let scalar_env = Host_ir.scalar_bindings partitioned part_args in
           {
             pa_part = p;
             pa_dev = dev;
             pa_speed = (if slot < n then speeds.(slot) else 1.0);
             pa_reads = eval_part p (fun e -> e.Codegen.read);
             pa_writes = eval_part p (fun e -> e.Codegen.write);
             pa_blocks = Partition.n_blocks p;
             pa_ops_per_block =
               Costmodel.ops_per_block partitioned ~scalar_env ~block;
           })
        parts
    in
    let written buf =
      List.exists (fun a -> assoc_ranges buf a.pa_writes <> []) accesses
    in
    let alias_of buf =
      List.find_map
        (fun (x, y) ->
           if x = buf && written y then Some y
           else if y = buf && written x then Some x
           else None)
        aliases
    in
    (* Steady-state home of [buf] on partition [a]: its own writes for
       written buffers (each launch re-establishes them), the writes of
       the swap partner for double-buffered inputs, the linear H2D
       distribution otherwise (fetches do not transfer ownership, so a
       read-only buffer is re-fetched from its H2D layout on every
       launch the reader does not own it — exactly what the tracker
       does). *)
    let home a buf =
      if written buf then assoc_ranges buf a.pa_writes
      else
        match alias_of buf with
        | Some partner -> assoc_ranges partner a.pa_writes
        | None ->
          let len = buf_len buf in
          let s, e =
            Gpu_runtime.Vbuf.linear_chunk ~len
              ~n_devices:cfg.Gpusim.Config.n_devices a.pa_dev
          in
          if e > s then [ (s, e) ] else []
    in
    let per_part =
      List.map
        (fun a ->
           let cross, nseg, nranges =
             List.fold_left
               (fun (cb, ns, nr) (buf, reads) ->
                  let missing = diff reads (home a buf) in
                  ( cb + total_len missing,
                    ns + List.length missing,
                    nr + List.length reads ))
               (0, 0, 0) a.pa_reads
           in
           let dur =
             Gpusim.Config.kernel_seconds cfg ~active:n ~speed:a.pa_speed
               ~blocks:a.pa_blocks ~ops_per_block:a.pa_ops_per_block
           in
           (a, cross * elem_bytes, nseg, nranges, dur))
        accesses
    in
    let n_parts = List.length per_part in
    let compute_max =
      List.fold_left (fun acc (_, _, _, _, d) -> max acc d) 0.0 per_part
    in
    let compute_sum =
      List.fold_left (fun acc (_, _, _, _, d) -> acc +. d) 0.0 per_part
    in
    let cross_bytes =
      List.fold_left (fun acc (_, b, _, _, _) -> acc + b) 0 per_part
    in
    let n_transfers =
      List.fold_left (fun acc (_, _, s, _, _) -> acc + s) 0 per_part
    in
    let path_bw =
      match cfg.Gpusim.Config.topology with
      | Gpusim.Config.Flat -> cfg.Gpusim.Config.p2p_bandwidth
      | Gpusim.Config.Islands { link_bandwidth; _ } -> link_bandwidth
    in
    let lat = cfg.Gpusim.Config.transfer_latency in
    let per_dev_transfer =
      List.fold_left
        (fun acc (_, bytes, nseg, _, _) ->
           max acc
             ((float_of_int nseg *. lat) +. (float_of_int bytes /. path_bw)))
        0.0 per_part
    in
    let fabric_occupancy =
      match cfg.Gpusim.Config.topology with
      | Gpusim.Config.Flat ->
        2.0 *. float_of_int cross_bytes /. cfg.Gpusim.Config.fabric_bandwidth
      | Gpusim.Config.Islands _ -> 0.0
    in
    let transfer_s = Float.max per_dev_transfer fabric_occupancy in
    (* Host-serial per-launch work: range emissions and per-range
       tracker traffic (one query on sync, one update on write — the
       fragmentation cost that sinks 2-D column halos), plus dispatch
       and launch issue. *)
    let range_count =
      List.fold_left (fun acc (_, _, _, r, _) -> acc + r) 0 per_part
    in
    let host_s =
      (float_of_int range_count
       *. (host.Gpusim.Config.range_seconds
           +. (2.0 *. host.Gpusim.Config.tracker_op_seconds)))
      +. (float_of_int n_parts
          *. (host.Gpusim.Config.dispatch_seconds
              +. cfg.Gpusim.Config.launch_latency))
    in
    let barrier_s =
      cfg.Gpusim.Config.sync_device_seconds
      *. float_of_int cfg.Gpusim.Config.n_devices
    in
    (* Halo amortization: per-transfer latency and the barrier are paid
       once per [depth] iterations; bytes and compute stay per-step
       (plus the apron's redundant compute, charged via the widened
       block count). *)
    let halo =
      match shape with
      | Fixed _ | One_d _ | Narrow _ | Weighted _ ->
        halo_eligible ~grid ~iters ~aliases accesses
      | Two_d _ -> None
    in
    let score =
      match halo with
      | None -> compute_max +. transfer_s +. host_s +. barrier_s
      | Some hp ->
        let d = float_of_int hp.hp_depth in
        let widened_extra =
          (* one extra block row per side, both buffers' worth of
             compute: approximate with the wave model's marginal
             cost *)
          List.fold_left
            (fun acc (a, _, _, _, _) ->
               let wide =
                 Partition.widen a.pa_part ~grid ~axis:hp.hp_axis ~blocks:1
               in
               let dwide =
                 Gpusim.Config.kernel_seconds cfg ~active:n ~speed:a.pa_speed
                   ~blocks:(Partition.n_blocks wide)
                   ~ops_per_block:a.pa_ops_per_block
               in
               let dband =
                 Gpusim.Config.kernel_seconds cfg ~active:n ~speed:a.pa_speed
                   ~blocks:a.pa_blocks ~ops_per_block:a.pa_ops_per_block
               in
               max acc (dwide -. dband))
            0.0 per_part
        in
        let latency_part =
          List.fold_left
            (fun acc (_, _, nseg, _, _) ->
               max acc (float_of_int nseg *. lat))
            0.0 per_part
        in
        let data_part = transfer_s -. Float.min transfer_s latency_part in
        compute_max +. widened_extra +. data_part
        +. ((latency_part +. barrier_s) /. d)
        +. host_s
    in
    {
      shape;
      parts;
      compute_s = compute_max;
      transfer_s;
      host_s;
      busy_s = compute_sum +. per_dev_transfer +. host_s;
      cross_bytes;
      n_transfers;
      halo;
      score;
    }
  in
  let candidates = List.map score_candidate shapes in
  let fixed = List.hd candidates in
  let same_structure = function
    | Fixed _ | Weighted _ -> true
    | One_d _ | Two_d _ | Narrow _ -> false
  in
  let winner =
    List.fold_left
      (fun best c ->
         let decisive =
           same_structure c.shape
           || c.score <= fixed.score *. shape_margin
         in
         if decisive && c.score < best.score *. hysteresis then c else best)
      fixed (List.tl candidates)
  in
  {
    c_kernel = kernel.Kir.name;
    c_grid = grid;
    c_block = block;
    c_candidates = candidates;
    c_winner = winner;
    c_raw_ranges = !raw_total;
  }

(* A stable signature of everything the score reads beyond the launch
   key itself: partitioning-relevant machine shape plus the iteration
   context.  Extends the launch-plan cache key so plans chosen under
   one scoring regime are never replayed under another. *)
let signature ~(cfg : Gpusim.Config.t) ~live ~iters =
  let speeds =
    String.concat ","
      (List.map
         (fun d -> Printf.sprintf "%g" (Gpusim.Config.device_speed cfg d))
         live)
  in
  Printf.sprintf "autotune:n%d:sp[%s]:bw%g,%g,%g:lat%g:topo%s:it%d"
    (List.length live) speeds cfg.Gpusim.Config.p2p_bandwidth
    cfg.Gpusim.Config.fabric_bandwidth cfg.Gpusim.Config.pcie_bandwidth
    cfg.Gpusim.Config.transfer_latency
    (Gpusim.Config.topology_to_string cfg.Gpusim.Config.topology)
    iters

let pp_candidate fmt c =
  Format.fprintf fmt
    "%-14s parts=%-2d compute=%8.1fus transfer=%8.1fus host=%8.1fus \
     bytes=%-10d halo=%-2d score=%10.1fus"
    (shape_name c.shape) (List.length c.parts) (c.compute_s *. 1e6)
    (c.transfer_s *. 1e6) (c.host_s *. 1e6) c.cross_bytes (halo_depth c)
    (c.score *. 1e6)

let candidate_json c =
  Printf.sprintf
    {|{"shape":"%s","parts":%d,"compute_us":%.3f,"transfer_us":%.3f,"host_us":%.3f,"cross_bytes":%d,"n_transfers":%d,"halo_depth":%d,"score_us":%.3f}|}
    (shape_name c.shape) (List.length c.parts) (c.compute_s *. 1e6)
    (c.transfer_s *. 1e6) (c.host_s *. 1e6) c.cross_bytes c.n_transfers
    (halo_depth c) (c.score *. 1e6)

let choice_json ch =
  Printf.sprintf
    {|{"kernel":"%s","grid":"%s","winner":"%s","candidates":[%s]}|}
    ch.c_kernel
    (Format.asprintf "%a" Dim3.pp ch.c_grid)
    (shape_name ch.c_winner.shape)
    (String.concat "," (List.map candidate_json ch.c_candidates))
