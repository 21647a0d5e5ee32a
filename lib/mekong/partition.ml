(* Grid partitioning and the kernel partition transform (paper §7).

   A thread-grid partition is a 3-tuple of half-open block-index
   intervals.  Partitioned kernels receive the partition bounds as
   extra arguments and apply the substitutions

     blockIdx.w  ->  partition.min_w + blockIdx.w        (Eq. 8)
     gridDim.w   ->  partition.max_w                     (Eq. 9)

   while the launch uses gridConf.w = max_w - min_w blocks (Eq. 10). *)

type t = {
  device : int;
  min_blocks : Dim3.t; (* inclusive *)
  max_blocks : Dim3.t; (* exclusive *)
}

let n_blocks p =
  (p.max_blocks.Dim3.x - p.min_blocks.Dim3.x)
  * (p.max_blocks.Dim3.y - p.min_blocks.Dim3.y)
  * (p.max_blocks.Dim3.z - p.min_blocks.Dim3.z)

let is_empty p = n_blocks p <= 0

(* The grid configuration of the partitioned launch (Eq. 10). *)
let launch_grid p =
  Dim3.make
    ~z:(max 1 (p.max_blocks.Dim3.z - p.min_blocks.Dim3.z))
    ~y:(max 1 (p.max_blocks.Dim3.y - p.min_blocks.Dim3.y))
    (max 1 (p.max_blocks.Dim3.x - p.min_blocks.Dim3.x))

(* Split [grid] into [n] contiguous chunks of blocks along [axis].
   Chunk sizes are balanced (the first grid%n chunks get one extra
   block); devices whose chunk is empty get an empty partition. *)
let make ~grid ~axis ~n =
  if n <= 0 then invalid_arg "Partition.make: need at least one device";
  let total = Dim3.get grid axis in
  let base = total / n and extra = total mod n in
  let start_of d = (d * base) + min d extra in
  List.init n (fun d ->
      let lo = start_of d and hi = start_of (d + 1) in
      let min_blocks =
        List.fold_left
          (fun acc a -> Dim3.set acc a (if a = axis then lo else 0))
          Dim3.one Dim3.axes
      in
      let max_blocks =
        List.fold_left
          (fun acc a -> Dim3.set acc a (if a = axis then hi else Dim3.get grid a))
          Dim3.one Dim3.axes
      in
      { device = d; min_blocks; max_blocks })

(* Split [grid] into contiguous chunks along [axis] sized proportionally
   to [weights] (per-device relative throughput on a heterogeneous
   fleet).  Chunk boundaries are the rounded cumulative weight prefix,
   so the split is deterministic, contiguous, and covers the grid
   exactly; a uniform weight vector reproduces [make].  Devices whose
   rounded share is empty get an empty partition (filtered by callers,
   like [make]). *)
let make_weighted ~grid ~axis ~weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Partition.make_weighted: need at least one weight";
  Array.iter
    (fun w ->
       if not (w > 0.0) then
         invalid_arg "Partition.make_weighted: weights must be positive")
    weights;
  let total = Dim3.get grid axis in
  let wsum = Array.fold_left ( +. ) 0.0 weights in
  (* start_of is a rounding of a monotone sequence ending exactly at
     [total], hence monotone with start_of 0 = 0 and start_of n = total. *)
  let start_of d =
    if d <= 0 then 0
    else if d >= n then total
    else begin
      let prefix = ref 0.0 in
      for i = 0 to d - 1 do
        prefix := !prefix +. weights.(i)
      done;
      Float.to_int (Float.round (float_of_int total *. !prefix /. wsum))
    end
  in
  List.init n (fun d ->
      let lo = start_of d and hi = start_of (d + 1) in
      let min_blocks =
        List.fold_left
          (fun acc a -> Dim3.set acc a (if a = axis then lo else 0))
          Dim3.one Dim3.axes
      in
      let max_blocks =
        List.fold_left
          (fun acc a -> Dim3.set acc a (if a = axis then hi else Dim3.get grid a))
          Dim3.one Dim3.axes
      in
      { device = d; min_blocks; max_blocks })

(* Widen a partition by [blocks] block-rows on each side along [axis],
   clamped to the grid (halo-tiled stencil launches redundantly
   recompute this apron instead of exchanging per step). *)
let widen p ~grid ~axis ~blocks =
  let lo = max 0 (Dim3.get p.min_blocks axis - blocks) in
  let hi = min (Dim3.get grid axis) (Dim3.get p.max_blocks axis + blocks) in
  {
    p with
    min_blocks = Dim3.set p.min_blocks axis lo;
    max_blocks = Dim3.set p.max_blocks axis hi;
  }

(* Split one partition into [n] contiguous sub-chunks along [axis]
   (memory-pressure chunking: the chunks launch sequentially on the
   partition's own device).  Balanced like [make], covering exactly
   [min_blocks, max_blocks) in ascending block order; empty chunks are
   dropped. *)
let split p ~axis ~n =
  if n <= 0 then invalid_arg "Partition.split: need at least one chunk";
  let lo0 = Dim3.get p.min_blocks axis and hi0 = Dim3.get p.max_blocks axis in
  let total = hi0 - lo0 in
  let base = total / n and extra = total mod n in
  let start_of i = lo0 + (i * base) + min i extra in
  List.filter_map
    (fun i ->
       let lo = start_of i and hi = start_of (i + 1) in
       if hi <= lo then None
       else
         Some
           {
             p with
             min_blocks = Dim3.set p.min_blocks axis lo;
             max_blocks = Dim3.set p.max_blocks axis hi;
           })
    (List.init n Fun.id)

(* Split [grid] into an n1 x n2 grid of rectangular tiles along two
   axes (an extension over the paper's contiguous 1-D chunks: for
   stencils the halo surface shrinks from O(extent) to
   O(extent/sqrt(n))).  [n] is factored as close to square as the grid
   extents allow; degenerate axes fall back to 1-D splitting. *)
let make_2d ~grid ~axis1 ~axis2 ~n =
  if n <= 0 then invalid_arg "Partition.make_2d: need at least one device";
  if axis1 = axis2 then invalid_arg "Partition.make_2d: axes must differ";
  let e1 = Dim3.get grid axis1 and e2 = Dim3.get grid axis2 in
  (* pick the factorization n = n1*n2 minimizing tile surface *)
  let best = ref (1, n) in
  for n1 = 1 to n do
    if n mod n1 = 0 then begin
      let n2 = n / n1 in
      let score (a, b) =
        (* perimeter of a tile, in blocks; lower is better *)
        let t1 = float_of_int e1 /. float_of_int a in
        let t2 = float_of_int e2 /. float_of_int b in
        t1 +. t2
      in
      if score (n1, n2) < score !best then best := (n1, n2)
    end
  done;
  let n1, n2 = !best in
  let chunk total parts idx =
    let base = total / parts and extra = total mod parts in
    let start i = (i * base) + min i extra in
    (start idx, start (idx + 1))
  in
  List.init n (fun d ->
      let i1 = d / n2 and i2 = d mod n2 in
      let lo1, hi1 = chunk e1 n1 i1 in
      let lo2, hi2 = chunk e2 n2 i2 in
      let min_blocks =
        List.fold_left
          (fun acc a ->
             Dim3.set acc a
               (if a = axis1 then lo1 else if a = axis2 then lo2 else 0))
          Dim3.one Dim3.axes
      in
      let max_blocks =
        List.fold_left
          (fun acc a ->
             Dim3.set acc a
               (if a = axis1 then hi1
                else if a = axis2 then hi2
                else Dim3.get grid a))
          Dim3.one Dim3.axes
      in
      { device = d; min_blocks; max_blocks })

(* Parameter names carrying the partition bounds into the partitioned
   kernel. *)
let min_param a = "__part_min_" ^ Dim3.axis_name a
let max_param a = "__part_max_" ^ Dim3.axis_name a

(* The kernel partition transform: clone the kernel, append the
   partition parameters, and apply the Eq. 8/9 substitutions. *)
let transform_kernel (k : Kir.t) : Kir.t =
  let subst e =
    match e with
    | Kir.Special (Kir.Block_idx a) ->
      Kir.Binop (Kir.Add, Kir.Param (min_param a), Kir.Special (Kir.Block_idx a))
    | Kir.Special (Kir.Grid_dim a) -> Kir.Param (max_param a)
    | other -> other
  in
  let k' = Kir.map_kernel subst k in
  {
    k' with
    Kir.name = k.Kir.name ^ "__part";
    Kir.params =
      k.Kir.params
      @ List.concat_map
          (fun a -> [ Kir.Scalar (min_param a); Kir.Scalar (max_param a) ])
          Dim3.axes;
  }

(* Scalar argument values for the appended partition parameters, in the
   same order as [transform_kernel] appends them. *)
let partition_args p =
  List.concat_map
    (fun a ->
       [ Host_ir.HInt (Dim3.get p.min_blocks a);
         Host_ir.HInt (Dim3.get p.max_blocks a) ])
    Dim3.axes

(* Parameter bindings describing the partition box for the enumerators
   (paper §6.2): blockIdx bounds plus the derived blockOff corners
   blockOff = blockIdx * blockDim. *)
let box_bindings p ~block =
  List.concat_map
    (fun a ->
       let bd = Dim3.get block a in
       let lo = Dim3.get p.min_blocks a and hi = Dim3.get p.max_blocks a in
       [ (Access.box_min_b a, lo);
         (Access.box_max_b a, hi);
         (Access.box_min_bo a, lo * bd);
         (Access.box_max_bo a, ((hi - 1) * bd) + 1);
       ])
    Dim3.axes
