(* Engine plans (DESIGN.md §21): what one kernel launch, or one
   halo-tiled stencil loop, does on the machine, as a typed list of
   steps derived from the launch parameters and the compiled kernel
   alone.  Nothing here touches the simulated machine or the virtual
   buffers; {!Multi_gpu} interprets the steps. *)

open Launch_cache

type compiled_kernel = {
  ck_model : Model.kernel_model;
  ck_partitioned : Kir.t;
  ck_enums : Codegen.t;
  ck_shadow : Kir.t option;
  ck_gate : Verify.verdict;
}

let reducible ck =
  match ck.ck_gate with Verify.Reducible red -> red | _ -> []

let instrumented ck =
  List.filter_map
    (fun (a : Model.array_model) ->
       if a.Model.write_instrumented then Some a.Model.arr else None)
    ck.ck_model.Model.arrays

(* Common parameter bindings of one launch: scalar arguments plus block
   and grid dimensions. *)
let launch_bindings kernel ~grid ~block ~args =
  Host_ir.scalar_bindings kernel args
  @ List.concat_map
      (fun a ->
         [ (Access.bdim_name a, Dim3.get block a);
           (Access.gdim_name a, Dim3.get grid a) ])
      Dim3.axes

(* Static loop context of a host program: its double-buffer pairs (the
   Swaps, in program order) and, per kernel, the product of the Repeat
   counts enclosing its launches (the largest, if launched twice). *)
let loop_context (prog : Host_ir.t) =
  let aliases = ref [] and iters = Hashtbl.create 4 in
  let rec scan ~n (s : Host_ir.stmt) =
    match s with
    | Host_ir.Swap (a, b) ->
      if not (List.mem (a, b) !aliases || List.mem (b, a) !aliases) then
        aliases := (a, b) :: !aliases
    | Host_ir.Launch { kernel; _ } ->
      let name = kernel.Kir.name in
      if n > Option.value ~default:1 (Hashtbl.find_opt iters name) then
        Hashtbl.replace iters name n
    | Host_ir.Repeat (k, body) -> List.iter (scan ~n:(n * k)) body
    | _ -> ()
  in
  List.iter (scan ~n:1) prog.Host_ir.body;
  (List.rev !aliases, fun name -> Option.value ~default:1 (Hashtbl.find_opt iters name))

type env = {
  patterns : bool;
  tiling : [ `One_d | `Two_d ];
  overlap : bool;
  autotune : bool;
  live : int list;
  mem_cap : int;
  elem_bytes : int;
  buf_len : string -> int;
}

(* ---- Launch plans (the launch-plan cache's payload) ---------------- *)

(* Per-buffer device footprint of one partition plan, in bytes: the
   union of its clamped read and write ranges.  This is exactly what
   residency will charge, so "footprint <= capacity" means the launch
   is feasible (everything older is evictable).  Sorted by buffer. *)
let footprints env pp =
  List.map
    (fun (b, rs) ->
       (b, List.fold_left (fun acc (s, e) -> acc + e - s) 0 rs * env.elem_bytes))
    (buffer_ranges ~buf_len:env.buf_len (pp.pp_reads @ pp.pp_writes))

let footprint env pp =
  List.fold_left (fun acc (_, b) -> acc + b) 0 (footprints env pp)

(* The partition-plan constructor of one launch, the only code that
   evaluates a partition's enumerators and costs; [ranges:false] skips
   the read/write range lists (halo launches keep the tracker on the
   band plans). *)
let partition_planner env ck kernel ~grid ~block ~args =
  let common = launch_bindings kernel ~grid ~block ~args in
  let arg_arrays = Host_ir.array_bindings kernel args in
  fun ?(ranges = true) p ->
    let eval select =
      (* Gamma runs never consume range lists; skip evaluating them. *)
      if not (ranges && env.patterns) then []
      else
        let bindings = common @ Partition.box_bindings p ~block in
        List.filter_map
          (fun (arr, rg_buf) ->
             Option.map
               (fun enum ->
                  let rg_ranges, rg_raw = Codegen.ranges_counted enum ~bindings in
                  { rg_buf; rg_ranges; rg_raw })
               (Option.bind (Codegen.entry ck.ck_enums arr) select))
          arg_arrays
    in
    let part_args = args @ Partition.partition_args p in
    let scalar_env = Host_ir.scalar_bindings ck.ck_partitioned part_args in
    {
      pp_part = p;
      pp_reads = eval (fun e -> e.Codegen.read);
      pp_writes = eval (fun e -> e.Codegen.write);
      pp_launch_grid = Partition.launch_grid p;
      pp_n_blocks = Partition.n_blocks p;
      pp_part_args = part_args;
      pp_scalar_args = Host_ir.scalar_args part_args;
      pp_ops_per_block = Costmodel.ops_per_block ck.ck_partitioned ~scalar_env ~block;
      pp_shadow_cost =
        (match ck.ck_shadow with
         | Some shadow ->
           Instrument.shadow_cost shadow
             ~scalar_env:(Host_ir.scalar_bindings shadow part_args) ~block
         | None -> 0.0);
      pp_chunks = [];
    }

(* Memory-pressure chunking (DESIGN.md §15): split a partition whose
   footprint exceeds the capacity into sequential sub-launches that
   fit.  Geometric search over the chunk count; at each count every
   axis with more than one block is tried and the one minimizing the
   worst chunk footprint wins (for matmul partitioned along y, chunking
   along x is what shrinks the B operand's band). *)
let chunk env ~min_chunks ~kernel plan_of pp =
  let footprint = footprint env in
  let infeasible pp' =
    let need = footprint pp' in
    let buf, bufbytes =
      Option.value ~default:("<none>", 0)
        (List.fold_left
           (fun acc (b, bytes) ->
              match acc with
              | Some (_, best) when best >= bytes -> acc
              | _ -> Some (b, bytes))
           None (footprints env pp'))
    in
    failwith
      (Printf.sprintf
         "Multi_gpu: kernel %s is infeasible under the device memory \
          capacity: smallest chunk still needs %d bytes on device %d \
          (largest buffer %s: %d bytes) but the capacity is %d, %d bytes \
          short"
         kernel.Kir.name need pp'.pp_part.Partition.device buf bufbytes
         env.mem_cap (need - env.mem_cap))
  in
  if footprint pp <= env.mem_cap && min_chunks <= 1 then pp
  else begin
    let p = pp.pp_part in
    let extent a =
      Dim3.get p.Partition.max_blocks a - Dim3.get p.Partition.min_blocks a
    in
    let axes = List.filter (fun a -> extent a > 1) Dim3.axes in
    let max_k = List.fold_left (fun acc a -> max acc (extent a)) 1 axes in
    (* Best candidate at chunk count [k]: the (worst-footprint, plans)
       pair of the axis whose worst chunk is smallest. *)
    let candidate k =
      List.fold_left
        (fun acc axis ->
           let n = min k (extent axis) in
           if n <= 1 then acc
           else
             let plans = List.map plan_of (Partition.split p ~axis ~n) in
             let worst = List.fold_left (fun acc c -> max acc (footprint c)) 0 plans in
             match acc with
             | Some (w, _) when w <= worst -> acc
             | _ -> Some (worst, plans))
        None axes
    in
    let rec search k best =
      if k > max_k then best
      else
        match candidate k with
        | Some (worst, plans) when worst <= env.mem_cap -> `Fits plans
        | Some (worst, plans) -> search (k * 2) (`Best (worst, plans))
        | None -> best
    in
    match search (max 2 min_chunks) `None with
    | `Fits plans -> { pp with pp_chunks = plans }
    | `Best (_, c :: cs) ->
      (* Even single-block-wide chunks do not fit: report the tightest
         chunk we could make. *)
      infeasible
        (List.fold_left
           (fun b c -> if footprint b >= footprint c then b else c)
           c cs)
    | `Best (_, []) | `None -> infeasible pp
  end

(* When any partition launches in chunks, its trackers update eagerly
   between chunks, so another device's read of data this launch writes
   would observe post-launch data instead of the barrier-synchronized
   pre-launch data.  The polyhedral ranges tell statically whether that
   can happen; refuse if so. *)
let check_chunkable ~kernel parts =
  let overlaps r1 r2 =
    List.exists (fun (s1, e1) -> List.exists (fun (s2, e2) -> s1 < e2 && s2 < e1) r2) r1
  in
  List.iter
    (fun wp ->
       List.iter
         (fun rp ->
            let dev pp = pp.pp_part.Partition.device in
            if dev wp <> dev rp then
              List.iter
                (fun w ->
                   List.iter
                     (fun r ->
                        if w.rg_buf = r.rg_buf && overlaps w.rg_ranges r.rg_ranges then
                          failwith
                            (Printf.sprintf
                               "Multi_gpu: kernel %s cannot be chunked under \
                                memory pressure: device %d reads parts of \
                                buffer %s that device %d writes in the same \
                                launch; raise the capacity"
                               kernel.Kir.name (dev rp) w.rg_buf (dev wp)))
                     rp.pp_reads)
                wp.pp_writes)
         parts)
    parts

(* The autotuner scores this launch's partition plans: the winner's are
   the engine's. *)
let choose ~cfg ~aliases ~iters env ck kernel ~grid ~block ~args =
  let plan_of = partition_planner env ck kernel ~grid ~block ~args in
  Autotune.choose ~cfg ~live:env.live ~axis:ck.ck_model.Model.strategy ~kernel
    ~grid ~block ~aliases ~iters ~buf_len:env.buf_len
    ~planner:(fun p -> plan_of p)

let launch ?choice ?(min_chunks = 1) env ck kernel ~grid ~block ~args =
  let winner = Option.map (fun ch -> ch.Autotune.c_winner) choice in
  let plan_of = partition_planner env ck kernel ~grid ~block ~args in
  (* Autotuned runs take the winner's partition plans as scored; fixed
     runs partition over the surviving devices along the model's axis,
     then map partition slots onto actual device ids. *)
  let pl_partitions =
    match winner with
    | Some w -> w.Autotune.parts
    | None ->
      let primary = ck.ck_model.Model.strategy and n = List.length env.live in
      let parts =
        (* 2-D: the secondary axis is another axis with more than one
           block, preferring the row-major-adjacent one; flat grids
           fall back to 1-D. *)
        match
          ( env.tiling,
            List.find_opt
              (fun a -> a <> primary && Dim3.get grid a > 1)
              [ Dim3.X; Dim3.Y; Dim3.Z ] )
        with
        | `Two_d, Some axis2 -> Partition.make_2d ~grid ~axis1:primary ~axis2 ~n
        | _ -> Partition.make ~grid ~axis:primary ~n
      in
      let live = Array.of_list env.live in
      List.filter_map
        (fun (p : Partition.t) ->
           if Partition.is_empty p then None
           else Some (plan_of { p with Partition.device = live.(p.Partition.device) }))
        parts
  in
  let pl_partitions =
    if env.mem_cap < max_int && env.patterns then
      List.map (chunk env ~min_chunks ~kernel (fun p -> plan_of p)) pl_partitions
    else pl_partitions
  in
  if List.exists (fun pp -> pp.pp_chunks <> []) pl_partitions then
    check_chunkable ~kernel pl_partitions;
  {
    pl_arg_arrays = Host_ir.array_bindings kernel args;
    pl_partitions;
    pl_predicted_s = (match winner with Some w -> w.Autotune.score | None -> 0.0);
    pl_choice =
      (match winner with Some w -> Autotune.shape_name w.Autotune.shape | None -> "");
    pl_halo = Option.bind winner (fun w -> w.Autotune.halo);
  }

(* ---- Steps ----------------------------------------------------------- *)

type stamp = Each | Shared

type step =
  | Sync_reads of { batch : bool; parts : partition_plan list }
  | Barrier
  | Launch of partition_plan list
  | Update_writes of { stamp : stamp; parts : partition_plan list }
  | Chunk of { batch : bool; chunks : partition_plan list list }
  | Gather_bases of (string * Kir.atomic_op) list
  | Merge of (string * Kir.atomic_op) list
  | Shadow of { arrays : string list; parts : partition_plan list }
  | Halo_exchange of { buf : string; depth : int; fetch : (int * (int * int)) list }
  | Swap of string * string
  | Measure of float * step list

type t = step list

(* Fig. 4 of the paper: synchronize every partition's read set, barrier,
   launch the partitions, update the trackers with their writes. *)
let fig4 ~patterns ~batch parts =
  if patterns then
    [ Sync_reads { batch; parts }; Barrier; Launch parts;
      Update_writes { stamp = Each; parts } ]
  else [ Barrier; Launch parts ]

let drop_barriers = List.filter (function Barrier -> false | _ -> true)

let chunked ~batch parts steps =
  if List.for_all (fun pp -> pp.pp_chunks = []) parts then steps
  else
    [ Chunk
        { batch;
          chunks =
            List.map (fun pp -> if pp.pp_chunks = [] then [ pp ] else pp.pp_chunks) parts } ]

let of_launch env ck plan =
  let parts = plan.pl_partitions in
  let red = reducible ck in
  (* Segment batching (p2p_multi packing) pays one latency for many
     segments but serializes copy engines the per-range path overlaps:
     a win only when ranges fragment, so autotuned runs whose winner is
     the fixed shape keep the seed's per-range transfers. *)
  let batch =
    env.tiling = `Two_d
    || env.autotune
       && (plan.pl_halo <> None || not (Autotune.seed_shape_name plan.pl_choice))
  in
  let shadow =
    match ck.ck_shadow with
    | Some _ when env.patterns -> [ Shadow { arrays = instrumented ck; parts } ]
    | _ -> []
  in
  let body =
    fig4 ~patterns:env.patterns ~batch parts
    |> (if env.overlap then drop_barriers else Fun.id)
    |> chunked ~batch parts
  in
  if ck.ck_shadow <> None && List.exists (fun pp -> pp.pp_chunks <> []) parts then
    failwith
      (Printf.sprintf
         "Multi_gpu: kernel %s needs instrumented write collection, which \
          memory-pressure chunking does not support; raise the capacity"
         ck.ck_model.Model.kname);
  let body = body @ (if red = [] then [] else [ Merge red ]) @ shadow in
  let body =
    if env.autotune && plan.pl_predicted_s > 0.0 then
      [ Measure (plan.pl_predicted_s, body) ]
    else body
  in
  if red = [] then body else Gather_bases red :: body

(* Halo/overlapped tiling of [Repeat (iters, [Launch; Swap])] (DESIGN.md
   §18): per temporal block of [t <= depth] steps, one exchange of each
   band widened by [t*h] elements on the input buffer, one barrier, then
   [t] launches widened by one redundant block row per side with no
   per-step sync.  Legal because each step shrinks the valid margin
   around the band by [h], so step [j]'s output is valid on band +-
   [(t-j)*h]; apron garbage never escapes, since the next block's fetch
   overwrites it before any launch reads it.  [None] when the winner has
   no halo schedule or the kernel needs a per-launch merge or shadow. *)
let halo env ck kernel plan ~grid ~block ~args ~iters ~swap:(sx, sy) =
  match plan.pl_halo with
  | Some hp when ck.ck_shadow = None && reducible ck = [] ->
    let h = hp.hp_halo_elems in
    let parts = plan.pl_partitions in
    let plan_of = partition_planner env ck kernel ~grid ~block ~args in
    let wide =
      List.map
        (fun pp ->
           plan_of ~ranges:false
             (Partition.widen pp.pp_part ~grid ~axis:hp.hp_axis ~blocks:1))
        parts
    in
    let len = env.buf_len hp.hp_read_buf in
    let block_of t =
      let fetch =
        List.map
          (fun pp ->
             match List.find_opt (fun r -> r.rg_buf = hp.hp_write_buf) pp.pp_writes with
             | Some { rg_ranges = [ (s, e) ]; _ } ->
               (pp.pp_part.Partition.device, (max 0 (s - (t * h)), min len (e + (t * h))))
             | _ -> assert false (* eligibility guaranteed dense single-range bands *))
          parts
      in
      let step = [ Launch wide; Update_writes { stamp = Shared; parts }; Swap (sx, sy) ] in
      Measure
        ( plan.pl_predicted_s *. float_of_int t,
          Halo_exchange { buf = hp.hp_read_buf; depth = t; fetch }
          :: (if env.overlap then [] else [ Barrier ])
          @ List.concat (List.init t (fun _ -> step)) )
    in
    let rec blocks done_ =
      if done_ >= iters then []
      else
        let t = min hp.hp_depth (iters - done_) in
        block_of t :: blocks (done_ + t)
    in
    Some (blocks 0)
  | _ -> None

(* ---- Printing ---------------------------------------------------------- *)

let parts_str parts =
  String.concat " "
    (List.map (fun pp -> Printf.sprintf "d%d:%d" pp.pp_part.Partition.device pp.pp_n_blocks) parts)

let reds_str red =
  String.concat " " (List.map (fun (arr, op) -> arr ^ ":" ^ Kir.atomic_name op) red)

let rec lines steps =
  List.concat_map
    (function
      | Sync_reads { batch; parts } ->
        [ Printf.sprintf "sync_reads%s %s" (if batch then " batched" else "") (parts_str parts) ]
      | Barrier -> [ "barrier" ]
      | Launch parts -> [ "launch " ^ parts_str parts ]
      | Update_writes { stamp; parts } ->
        [ Printf.sprintf "update_writes%s %s"
            (if stamp = Shared then " one-stamp" else "") (parts_str parts) ]
      | Chunk { batch; chunks } ->
        [ Printf.sprintf "chunk%s %s" (if batch then " batched" else "")
            (String.concat " "
               (List.map
                  (fun cs ->
                     match cs with
                     | [] -> ""
                     | c :: _ ->
                       Printf.sprintf "d%d:%s" c.pp_part.Partition.device
                         (String.concat "+"
                            (List.map (fun c -> string_of_int c.pp_n_blocks) cs)))
                  chunks)) ]
      | Gather_bases red -> [ "gather_bases " ^ reds_str red ]
      | Merge red -> [ "merge " ^ reds_str red ]
      | Shadow { arrays; parts } ->
        [ Printf.sprintf "shadow %s %s" (String.concat "," arrays) (parts_str parts) ]
      | Halo_exchange { buf; depth; fetch } ->
        [ Printf.sprintf "halo_exchange %s depth=%d %s" buf depth
            (String.concat " "
               (List.map (fun (d, (s, e)) -> Printf.sprintf "d%d:[%d,%d)" d s e) fetch)) ]
      | Swap (a, b) -> [ Printf.sprintf "swap %s %s" a b ]
      | Measure (_, steps) -> ("measure {" :: List.map (( ^ ) "  ") (lines steps)) @ [ "}" ])
    steps

let to_string steps = String.concat "\n" (lines steps)
