(* Launch-time compilation of kernel IR to lane-sweep register code.

   [Keval] walks the tree per thread: boxed [value]s, per-thread
   [Hashtbl] locals, [List]-based subscript linearization.  Here we
   partially evaluate a kernel against everything known at launch
   time — grid and block dimensions, scalar arguments, resolved array
   extents — and emit destination-passing steps that each run once per
   block as a loop over the block's threads ("lanes"):

   - registers are structure-of-arrays: int register [r] is the
     [int array] [ir.(r)] with one slot per lane, likewise the float
     registers.  Registers 0–5 hold the block and thread indices;
     launch constants (parameters, [blockDim], [gridDim], literals)
     are registers preset when the environment is created; every local
     has a slot, every compound subexpression a fresh temporary;
   - a step is [env -> lo -> hi -> unit]: one dense loop over the
     contiguous lanes [lo, hi) that reads its operand registers and
     writes one register, so no float ever crosses a closure boundary
     and the sweep allocates nothing.  A block runs its body over
     [0, w);
   - a value is uniform when it depends only on launch constants, block
     indices and uniform loop counters (a load is uniform when its
     subscripts are and no store or atomic writes its array).  A
     uniform register keeps its value in slot 0; a uniform step runs
     over [0, 1) whatever lanes are active, and a varying step is
     compiled for its operands' shape: it reads a uniform operand once,
     before its loop (see [Klane.shape]; [Ksteps] has one sweep per
     operator and shape, generated from gen/ksteps_gen.ml's table);
   - a block of statements is a flat list of steps run by one
     sequencer; only [If] and [For] nest.  A varying [If] runs each
     branch once per maximal run of lanes that takes it; a uniform one
     tests once.  A [For] with varying bounds runs its body once per
     run of lanes still in range, round after round, until no lane is;
   - an [If] whose condition is a conjunction of compares affine in
     the thread and block indices is decided per block from the corners
     of the block's thread box: a block where it holds on every lane,
     or on none, runs one branch without the compare steps or the scan
     (see "Block-class guards");
   - array accesses read the backing [float array]s of the launch's
     access records directly.  A load, store or atomic whose every
     subscript is affine in the thread and block indices, or a uniform
     register plus a constant, and which moves with the thread index,
     is one affine step: it checks each dimension at the corners of its
     lanes' box of thread indices, or of each row of lanes, then copies
     (see [affine_step]).  Any other access inlines the rank-1/2/3
     linearization, the bounds checks and [reg ± const] subscripts into
     a per-lane load;
   - stores and atomics go to a per-block log of segments, one per
     store sweep, each recording its first lane.  The log is flushed
     at block end in thread order (lane 0's entries in program order,
     then lane 1's, ...), which also sets the touched masks and
     applies the atomics' combine.

   Lane mode is only used for lane-safe launches: no array that a
   store or atomic writes is also read by a load step, checked per
   slot at launch by the physical identity of the access records'
   arrays.  Then no lane reads what another lane of its block writes,
   and the deferred, thread-ordered flush is observably the
   sequential thread order of [Keval].  Every other launch runs the
   same steps in the same environment thread by thread, thread [l] as
   the one-lane sweep [l, l+1), with stores written directly: exactly
   the sequential order.  If any lane raises, or the block's log
   outgrows its cap, the log is dropped and the block re-runs thread
   by thread from its start, which reproduces [Keval]'s diagnostic and
   partial outputs (the block read nothing it writes, and wrote
   nothing yet).  So in lane mode the order across lanes is free:
   branches and loop rounds may visit lanes in any grouping, as long
   as a step writes only the lanes it sweeps and each lane runs its
   own steps in program order.

   Further fusions: comparisons are specialized per operator, float
   [x ± y*z] is one step (OCaml never contracts to FMA, so the result
   is bit-identical), launch-time-constant subtrees fold at compile
   time, an [Assign] root writes straight into its slot and a first
   [Local] takes over its expression's temporary.

   Evaluation order per thread is Keval's, step for step: a binary
   operator's right operand before its left, subscripts left to right
   and all of them before any bounds check, a store's (or atomic's)
   bounds check before its value.  Thread by thread that keeps every
   diagnostic identical, not just every result.

   Every kernel compiled here has passed {!Kir.check}: each local is
   bound before its use on every path and keeps one type, and no bool
   is a number and no float a condition.  So each value has one static
   type, the one [Keval]'s promotions give it, and every kernel
   compiles; [Keval] stays the semantics oracle.

   Parallel execution: [run] can split the grid's blocks over a
   {!Gpu_runtime.Dpool}.  Each participating domain gets one
   environment (register files and log), allocated once per compiled
   kernel and reused across chunks, launches and both block modes;
   array loads/stores go straight to the shared backing arrays.  The
   *caller* is responsible for only passing a pool when the kernel's
   verdict proves distinct blocks never touch overlapping elements
   (a [Verify.Safe] verdict); under that verdict any block interleaving
   writes each element exactly once from one domain and reads only
   elements no other block writes, so the result is bit-identical to
   the sequential order.  [Atomic] is a
   plain load-combine-store, which is NOT indivisible across domains —
   kernels whose conflicts are merely atomic-reducible must run their
   blocks sequentially within one address space (the engine gives each
   partition a private accumulation buffer instead).

   Engines do not call [compile] and [run] themselves: [launch] is the
   one entry that caches compiled kernels, picks the pool and counts
   the launch. *)

type access = {
  loads : float array;
  stores : float array;
  touched : bool array option;
}

open Klane

type t = {
  grid : Dim3.t;
  block : Dim3.t;
  width : int;  (* threads per block *)
  arrays : string array;  (* array parameter names, slot-indexed *)
  iregs : int array;  (* register templates: constants preset *)
  fregs : float array;
  n_bufs : int;
  load_slots : int array;  (* slots some load step reads *)
  store_slots : int array;  (* slots some store or atomic writes *)
  atomic_slot : bool array;
  n_guards : int;
  affine : int;  (* accesses compiled to the affine step *)
  body : step;
  envs : (int * env) list Atomic.t;  (* per domain id *)
  narrow : int Atomic.t;  (* blocks run thread by thread although w > 1 *)
}

let r_bx = 0
let r_by = 1
let r_bz = 2
let r_tx = 3
let r_ty = 4
let r_tz = 5

let no_mask : bool array = [||]

let[@inline] ig env r = env.ir.!(r)
let[@inline] fg env r = env.fr.!(r)

(* Type-specialized min/max, spelled exactly like the Stdlib
   polymorphic versions [Keval] uses so ties (e.g.
   [max 0.0 (-0.0)]) and NaNs resolve to the same bit patterns. *)
let[@inline] imin (x : int) y = if x <= y then x else y
let[@inline] imax (x : int) y = if x >= y then x else y
let[@inline] fmin (x : float) y = if x <= y then x else y
let[@inline] fmax (x : float) y = if x >= y then x else y

(* --- Array access ------------------------------------------------------ *)

(* A subscript is [reg + k]; every subscript register is computed before
   its reference's step runs, so checking dimension by dimension is
   Keval's evaluate-all-then-check order.  [m] is the register's lane
   mask: -1 for varying, 0 for uniform. *)
let[@inline] index arr dim extent v =
  if v < 0 || v >= extent then Keval.bounds_error ~arr ~dim ~extent v;
  v

let[@inline] off1 arr d0 i0 m0 k0 l = index arr 0 d0 (i0.!(l land m0) + k0)

let[@inline] off2 arr d0 d1 i0 m0 k0 i1 m1 k1 l =
  let v0 = index arr 0 d0 (i0.!(l land m0) + k0) in
  let v1 = index arr 1 d1 (i1.!(l land m1) + k1) in
  (v0 * d1) + v1

let[@inline] off3 arr d0 d1 d2 i0 m0 k0 i1 m1 k1 i2 m2 k2 l =
  let v0 = index arr 0 d0 (i0.!(l land m0) + k0) in
  let v1 = index arr 1 d1 (i1.!(l land m1) + k1) in
  let v2 = index arr 2 d2 (i2.!(l land m2) + k2) in
  (((v0 * d1) + v1) * d2) + v2

let offn env arr dims subs l =
  let acc = ref 0 in
  for i = 0 to Array.length dims - 1 do
    let r, m, k = subs.(i) in
    acc := (!acc * dims.(i)) + index arr i dims.(i) ((ig env r).!(l land m) + k)
  done;
  !acc

(* The checked linear offset into int register [o]. *)
let offset_step ~arr dims subs o : step =
  match (dims, subs) with
  | [| d0 |], [| (r0, m0, k0) |] ->
    fun env lo hi ->
      let i0 = ig env r0 and z = ig env o in
      for l = lo to hi - 1 do z.!(l) <- off1 arr d0 i0 m0 k0 l done
  | [| d0; d1 |], [| (r0, m0, k0); (r1, m1, k1) |] ->
    fun env lo hi ->
      let i0 = ig env r0 and i1 = ig env r1 and z = ig env o in
      for l = lo to hi - 1 do z.!(l) <- off2 arr d0 d1 i0 m0 k0 i1 m1 k1 l done
  | [| d0; d1; d2 |], [| (r0, m0, k0); (r1, m1, k1); (r2, m2, k2) |] ->
    fun env lo hi ->
      let i0 = ig env r0 and i1 = ig env r1 and i2 = ig env r2 and z = ig env o in
      for l = lo to hi - 1 do
        z.!(l) <- off3 arr d0 d1 d2 i0 m0 k0 i1 m1 k1 i2 m2 k2 l
      done
  | _ ->
    fun env lo hi ->
      let z = ig env o in
      for l = lo to hi - 1 do z.!(l) <- offn env arr dims subs l done

(* Loads fuse the offset for ranks 1–3; a checked OCaml access guards
   a backing array shorter than the extents. *)
let load_step ~arr s dims subs d : step =
  match (dims, subs) with
  | [| d0 |], [| (r0, m0, k0) |] ->
    fun env lo hi ->
      let i0 = ig env r0 and src = env.srcs.!(s) and z = fg env d in
      for l = lo to hi - 1 do z.!(l) <- src.(off1 arr d0 i0 m0 k0 l) done
  | [| d0; d1 |], [| (r0, m0, k0); (r1, m1, k1) |] ->
    fun env lo hi ->
      let i0 = ig env r0 and i1 = ig env r1 and src = env.srcs.!(s) and z = fg env d in
      for l = lo to hi - 1 do
        z.!(l) <- src.(off2 arr d0 d1 i0 m0 k0 i1 m1 k1 l)
      done
  | [| d0; d1; d2 |], [| (r0, m0, k0); (r1, m1, k1); (r2, m2, k2) |] ->
    fun env lo hi ->
      let i0 = ig env r0 and i1 = ig env r1 and i2 = ig env r2 in
      let src = env.srcs.!(s) and z = fg env d in
      for l = lo to hi - 1 do
        z.!(l) <- src.(off3 arr d0 d1 d2 i0 m0 k0 i1 m1 k1 i2 m2 k2 l)
      done
  | _ ->
    fun env lo hi ->
      let src = env.srcs.!(s) and z = fg env d in
      for l = lo to hi - 1 do z.!(l) <- src.(offn env arr dims subs l) done

(* An affine access: each subscript is [u + k + cb·b + ct·t] for a
   uniform register [u] (the zero constant when there is none), the
   block index [b] and the thread index [t], exactly over Z.  [co]
   holds [a_size] ints per dimension: [u; k; cb (3); ct (3); extent];
   [ct] holds the linear offset's coefficients [cx], [cy], [cz] on [t].

   An affine function over a box of thread indices takes its extremes
   at the box's corners.  So the sweep first checks every dimension
   over the box around its lanes [lo, hi) and, when all are in range
   (and, for a load, the box's last offset is inside the backing
   array), fills its lanes unchecked.  Otherwise it walks [lo, hi) row
   by row, a row being a run of lanes with one [ty]/[tz]: along a row
   every subscript is affine in [tx], so checking each dimension at the
   row's two end lanes checks every lane of the row.  Dimensions are
   checked in order, so a one-lane sweep (thread by thread) raises
   [index]'s diagnostic, and a backing array shorter than the extents
   fails as the checked OCaml access does; in lane mode any raise
   re-runs the block thread by thread.  A row's offsets are
   [start + cx·i]: a contiguous copy when [cx = 1], one broadcast value
   when [cx = 0].  [slot >= 0] loads that slot into float register [d];
   [slot < 0] writes the offsets into int register [d].  The step
   keeps no state between lanes or rows outside [env]'s registers, so
   domains running blocks at once share nothing. *)
let a_size = 9

(* Dimension [j / a_size]'s subscript at thread index 0. *)
let[@inline] block_part ir co j b0 b1 b2 =
  ir.!(co.!(j)).!(0) + co.!(j + 1) + (co.!(j + 2) * b0) + (co.!(j + 3) * b1) + (co.!(j + 4) * b2)

let[@inline] low c a b = imin (c * a) (c * b)
let[@inline] high c a b = imax (c * a) (c * b)

let affine_step ~arr co ~(block : Dim3.t) ~ct ~slot d : step =
  let rank = Array.length co / a_size in
  let bx = block.Dim3.x and by = block.Dim3.y in
  let cx = ct.(0) and cy = ct.(1) and cz = ct.(2) in
  fun env lo hi ->
    let ir = env.ir in
    let txs = ir.!(r_tx) and tys = ir.!(r_ty) and tzs = ir.!(r_tz) in
    let z0 = tzs.!(lo) and z1 = tzs.!(hi - 1) in
    let y0 = if z0 = z1 then tys.!(lo) else 0 and y1 = if z0 = z1 then tys.!(hi - 1) else by - 1 in
    let row = hi - lo <= bx - txs.!(lo) in
    let x0 = if row then txs.!(lo) else 0 and x1 = if row then txs.!(hi - 1) else bx - 1 in
    let b0 = ir.!(r_bx).!(0) and b1 = ir.!(r_by).!(0) and b2 = ir.!(r_bz).!(0) in
    let inside = ref true and base = ref 0 in
    for i = 0 to rank - 1 do
      let j = i * a_size in
      let v = block_part ir co j b0 b1 b2 in
      let px = co.!(j + 5) and py = co.!(j + 6) and pz = co.!(j + 7) and e = co.!(j + 8) in
      let vmin = v + low px x0 x1 + low py y0 y1 + low pz z0 z1 in
      let vmax = v + high px x0 x1 + high py y0 y1 + high pz z0 z1 in
      if vmin lor (e - 1 - vmax) < 0 then inside := false;
      base := (!base * e) + v
    done;
    let base = !base in
    if !inside && slot >= 0 then
      if base + high cx x0 x1 + high cy y0 y1 + high cz z0 z1 >= Array.length env.srcs.!(slot)
      then inside := false;
    let a = ref lo in
    while !a < hi do
      let l0 = !a in
      let tx0 = txs.!(l0) and ty = tys.!(l0) and tz = tzs.!(l0) in
      let l1 = imin hi (l0 + bx - tx0) in
      let o = ref (base + (cx * tx0) + (cy * ty) + (cz * tz)) in
      if not !inside then begin
        let tx1 = tx0 + (l1 - 1 - l0) in
        for i = 0 to rank - 1 do
          let j = i * a_size in
          let e = co.!(j + 8) in
          let v = block_part ir co j b0 b1 b2 + (co.!(j + 6) * ty) + (co.!(j + 7) * tz) in
          let v0 = v + (co.!(j + 5) * tx0) and v1 = v + (co.!(j + 5) * tx1) in
          if v0 lor v1 lor (e - 1 - v0) lor (e - 1 - v1) < 0 then begin
            ignore (index arr i e v0 : int);
            ignore (index arr i e v1 : int)
          end
        done;
        if slot >= 0 && imax !o (!o + (cx * (l1 - 1 - l0))) >= Array.length env.srcs.!(slot)
        then invalid_arg "index out of bounds"
      end;
      if slot >= 0 then begin
        let src = env.srcs.!(slot) and z = env.fr.!(d) in
        for l = l0 to l1 - 1 do
          z.!(l) <- src.!(!o);
          o := !o + cx
        done
      end
      else begin
        let z = ir.!(d) in
        for l = l0 to l1 - 1 do
          z.!(l) <- !o;
          o := !o + cx
        done
      end;
      a := l1
    done

(* --- Stores, atomics and the block log ---------------------------------- *)

(* One write as [Keval] performs it: the atomic's load of the
   old element (bounds-checked) before the store. *)
let[@inline] apply env code o x =
  let s = code lsr 2 in
  let dst = env.dsts.!(s) in
  (match code land 3 with
   | 0 -> dst.(o) <- x
   | 1 -> dst.(o) <- env.srcs.!(s).(o) +. x
   | 2 -> dst.(o) <- fmin env.srcs.!(s).(o) x
   | _ -> dst.(o) <- fmax env.srcs.!(s).(o) x);
  let m = env.masks.!(s) in
  if m != no_mask then m.(o) <- true

(* Log entries [i, j) of one segment, in order.  Their offsets were
   checked against the slot's limit when they were logged. *)
let apply_run env code i j =
  let s = code lsr 2 and offs = env.log_off and vals = env.log_val in
  let dst = env.dsts.!(s) and src = env.srcs.!(s) in
  (match code land 3 with
   | 0 -> for e = i to j - 1 do dst.!(offs.!(e)) <- vals.!(e) done
   | 1 ->
     for e = i to j - 1 do
       let o = offs.!(e) in
       dst.!(o) <- src.!(o) +. vals.!(e)
     done
   | 2 ->
     for e = i to j - 1 do
       let o = offs.!(e) in
       dst.!(o) <- fmin src.!(o) vals.!(e)
     done
   | _ ->
     for e = i to j - 1 do
       let o = offs.!(e) in
       dst.!(o) <- fmax src.!(o) vals.!(e)
     done);
  let m = env.masks.!(s) in
  if m != no_mask then for e = i to j - 1 do m.!(offs.!(e)) <- true done

let grow a n z =
  let b = Array.make n z in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A block that would log more entries or segments than this runs
   thread by thread instead, so the log's memory stays bounded
   (~10 MB). *)
let max_log = 1 lsl 18

exception Log_full

(* Room for [n] more entries and one more segment. *)
let reserve env n =
  let need = env.log_n + n in
  if need > max_log || env.seg_n >= max_log then raise Log_full;
  if need > Array.length env.log_off then begin
    let size = max need (2 * Array.length env.log_off) in
    env.log_off <- grow env.log_off size 0;
    env.log_val <- grow env.log_val size 0.0;
    env.log_code <- grow env.log_code size 0;
    env.log_perm <- grow env.log_perm size 0
  end;
  if env.seg_n = Array.length env.seg_code then begin
    let size = 2 * max 8 env.seg_n in
    env.seg_code <- grow env.seg_code size 0;
    env.seg_start <- grow env.seg_start size 0;
    env.seg_lane <- grow env.seg_lane size 0
  end

let drop_log env =
  env.log_n <- 0;
  env.seg_n <- 0

let seg_end env s = if s + 1 < env.seg_n then env.seg_start.!(s + 1) else env.log_n

(* Apply the log in thread order: one segment is in lane order already,
   several take a stable counting sort by lane, entry [e] of a segment
   starting at entry [i] being lane [e - i] past the segment's first. *)
let flush env =
  let ns = env.seg_n in
  if ns = 1 then apply_run env env.seg_code.!(0) 0 env.log_n
  else if ns > 1 then begin
    let n = env.log_n and codes = env.log_code and cnt = env.counts in
    Array.fill cnt 0 (Array.length cnt) 0;
    for s = 0 to ns - 1 do
      let i = env.seg_start.!(s) and code = env.seg_code.!(s) in
      let lane = env.seg_lane.!(s) + 1 - i in
      for e = i to seg_end env s - 1 do
        codes.!(e) <- code;
        cnt.!(lane + e) <- cnt.!(lane + e) + 1
      done
    done;
    for l = 1 to Array.length cnt - 1 do
      cnt.!(l) <- cnt.!(l) + cnt.!(l - 1)
    done;
    let perm = env.log_perm in
    for s = 0 to ns - 1 do
      let i = env.seg_start.!(s) in
      let lane = env.seg_lane.!(s) - i in
      for e = i to seg_end env s - 1 do
        let p = cnt.!(lane + e) in
        perm.!(p) <- e;
        cnt.!(lane + e) <- p + 1
      done
    done;
    for p = 0 to n - 1 do
      let e = perm.!(p) in
      apply_run env codes.!(e) e (e + 1)
    done
  end;
  drop_log env

(* A store or atomic of [v] at offset [o]: direct when the block runs
   thread by thread; in lane mode one log segment of an entry per lane
   of the sweep, where an offset the flush could not apply raises now,
   while the block can still re-run from its start.  Never uniform:
   every lane of the sweep writes. *)
let put_step code o mo v mv : step =
 fun env lo hi ->
  let oo = ig env o and vv = fg env v in
  if env.direct then
    for l = lo to hi - 1 do apply env code oo.!(l land mo) vv.!(l land mv) done
  else begin
    let lim = env.limit.!(code lsr 2) in
    reserve env (hi - lo);
    let s = env.seg_n and base = env.log_n in
    env.seg_code.!(s) <- code;
    env.seg_start.!(s) <- base;
    env.seg_lane.!(s) <- lo;
    env.seg_n <- s + 1;
    let offs = env.log_off and vals = env.log_val and e = base - lo in
    for l = lo to hi - 1 do
      let o = oo.!(l land mo) in
      if o < 0 || o >= lim then invalid_arg "index out of bounds";
      offs.!(e + l) <- o;
      vals.!(e + l) <- vv.!(l land mv)
    done;
    env.log_n <- base + hi - lo
  end

(* --- Compilation ------------------------------------------------------- *)

type vtype = TInt | TFloat | TBool

(* A compiled expression's value: a launch-time constant or a register
   (booleans live in int registers as 0/1). *)
type value =
  | Ki of int
  | Kf of float
  | Kb of bool
  | Ri of int
  | Rf of int
  | Rb of int

let vtype_of = function
  | Ki _ | Ri _ -> TInt
  | Kf _ | Rf _ -> TFloat
  | Kb _ | Rb _ -> TBool

let is_int = function Ki _ | Ri _ -> true | _ -> false

module S = Set.Make (String)

(* --- Uniformity analysis ------------------------------------------------ *)

(* Arrays some store or atomic writes. *)
let written_arrays (k : Kir.t) =
  let rec go acc = function
    | Kir.Store (a, _, _) | Kir.Atomic (_, a, _, _) -> S.add a acc
    | Kir.If (_, t, e) -> List.fold_left go (List.fold_left go acc t) e
    | Kir.For { body; _ } -> List.fold_left go acc body
    | Kir.Local _ | Kir.Assign _ | Kir.Syncthreads -> acc
  in
  List.fold_left go S.empty k.Kir.body

(* The locals whose value may differ between the lanes of a block, to a
   fixpoint: a local is varying when some binding's value is, or when it
   is bound under varying control (the lanes that skip the binding keep
   their old value).  A loop counter is varying only when its loop's
   bounds are: under varying control, the lanes that run a
   uniform-bounds loop all see the same counter, and the loop restores
   the counter for everyone on exit. *)
let varying_locals (k : Kir.t) ~written =
  let vary = ref S.empty and changed = ref true in
  let mark n =
    if not (S.mem n !vary) then begin
      vary := S.add n !vary;
      changed := true
    end
  in
  let rec exp = function
    | Kir.Special (Kir.Thread_idx _) -> true
    | Kir.Iconst _ | Kir.Fconst _ | Kir.Special _ | Kir.Param _ -> false
    | Kir.Var n -> S.mem n !vary
    | Kir.Load (a, idx) -> S.mem a written || List.exists exp idx
    | Kir.Unop (_, x) -> exp x
    | Kir.Binop (_, x, y) -> exp x || exp y
  in
  let rec stmt ctl = function
    | Kir.Local (n, e) | Kir.Assign (n, e) -> if ctl || exp e then mark n
    | Kir.If (c, t, e) ->
      let ctl = ctl || exp c in
      List.iter (stmt ctl) t;
      List.iter (stmt ctl) e
    | Kir.For { var; from_; to_; body } ->
      let bounds = exp from_ || exp to_ in
      if bounds then mark var;
      List.iter (stmt (ctl || bounds)) body
    | Kir.Store _ | Kir.Atomic _ | Kir.Syncthreads -> ()
  in
  while !changed do
    changed := false;
    List.iter (stmt false) k.Kir.body
  done;
  !vary

(* --- Block-class guards ---------------------------------------------------

   A bounds guard like [gx < n && gy < n] is affine in the thread and
   block indices.  Fix the block: each compare [a op b] becomes
   [k + ct·t <= 0] over the block's box of thread indices [t], and an
   affine function over a box takes its minimum and maximum at corners
   of the box, [k + tmin] and [k + tmax].  So a few integer ops per
   block tell whether the compare holds on every lane ([k + tmax <= 0]),
   on none ([k + tmin > 0]) or on some, exactly over the integers.  A
   conjunction holds on every lane when each compare does and on none
   when some compare holds on none; otherwise (mixed compares, even
   jointly unsatisfiable ones) the block is mixed and takes the scan.

   A compare side is affine when it is built by [+], [-], unary [-]
   and multiplication by a launch constant from thread and block
   indices, [blockDim], [gridDim], integer literals and integer
   parameters, and from locals bound by exactly one [Local], never
   [Assign]ed and not a loop counter: such a local holds its one
   binding's value wherever it is bound.  Every operation on the way is
   a ring operation on 63-bit integers, so the register values equal
   the affine form modulo 2^63; a form bounded below 2^52 in magnitude
   over the whole launch is therefore the exact integer value, which
   the compiled compare (integer compare within 2^53) also reads. *)

(* An affine form [k + Σ co.(r) * index register r] over the six index
   registers is [form_size] ints of a workspace: the six coefficients [co],
   then [k].  The analysis writes each node's form into the workspace
   above its parent's, so it allocates nothing per node. *)
let form_size = r_tz + 2
let k_of = r_tz + 1

(* What a launch fixes, for the affine forms. *)
type genv = {
  g_scalars : (string, Keval.value) Hashtbl.t;
  g_grid : Dim3.t;
  g_block : Dim3.t;
  g_locals : (string, Kir.exp) Hashtbl.t;  (* single-binding locals *)
  g_forms : (string, int array) Hashtbl.t;
      (* their forms, once computed; [[||]] when not affine, and while
         being computed, so a local reached through itself is not *)
  mutable g_ws : int array;  (* the workspace, grown on demand *)
}

let genv ~scalars ~grid ~block locals =
  { g_scalars = scalars; g_grid = grid; g_block = block; g_locals = locals;
    g_forms = Hashtbl.create 8; g_ws = [||] }

(* The locals bound by exactly one [Local], never assigned, never a
   loop counter, with their bound expression. *)
let single_locals (k : Kir.t) =
  let locals = Hashtbl.create 8 and bad = ref S.empty in
  let rec stmt = function
    | Kir.Local (n, e) ->
      if Hashtbl.mem locals n then bad := S.add n !bad else Hashtbl.add locals n e
    | Kir.Assign (n, _) -> bad := S.add n !bad
    | Kir.If (_, t, e) -> List.iter stmt t; List.iter stmt e
    | Kir.For { var; body; _ } -> bad := S.add var !bad; List.iter stmt body
    | Kir.Store _ | Kir.Atomic _ | Kir.Syncthreads -> ()
  in
  List.iter stmt k.Kir.body;
  S.iter (Hashtbl.remove locals) !bad;
  locals

let axis_i = function Dim3.X -> 0 | Dim3.Y -> 1 | Dim3.Z -> 2

(* The form [k] at [at]; with [r >= 0], plus index register [r]. *)
let set_form ge at ~r k =
  let ws = ge.g_ws in
  Array.fill ws at form_size 0;
  if r >= 0 then ws.(at + r) <- 1;
  ws.(at + k_of) <- k

(* [f <- f + s * g] for the forms at [f] and [g]. *)
let combine ge f s g =
  let ws = ge.g_ws in
  for i = 0 to form_size - 1 do
    ws.(f + i) <- ws.(f + i) + (s * ws.(g + i))
  done

let scale ge f s =
  let ws = ge.g_ws in
  for i = 0 to form_size - 1 do
    ws.(f + i) <- s * ws.(f + i)
  done

let is_const ge f =
  let ws = ge.g_ws and c = ref true in
  for r = 0 to r_tz do
    if ws.(f + r) <> 0 then c := false
  done;
  !c

(* Write the form of [e] at [at], using the workspace above it for
   operands; false when [e] is not affine. *)
let rec affine ge (e : Kir.exp) at =
  if at + (2 * form_size) > Array.length ge.g_ws then begin
    let ws = Array.make (max (2 * Array.length ge.g_ws) (at + (4 * form_size))) 0 in
    Array.blit ge.g_ws 0 ws 0 at;
    ge.g_ws <- ws
  end;
  match e with
  | Kir.Iconst n -> set_form ge at ~r:(-1) n; true
  | Kir.Special (Kir.Thread_idx a) -> set_form ge at ~r:(r_tx + axis_i a) 0; true
  | Kir.Special (Kir.Block_idx a) -> set_form ge at ~r:(r_bx + axis_i a) 0; true
  | Kir.Special (Kir.Block_dim a) -> set_form ge at ~r:(-1) (Dim3.get ge.g_block a); true
  | Kir.Special (Kir.Grid_dim a) -> set_form ge at ~r:(-1) (Dim3.get ge.g_grid a); true
  | Kir.Param n -> (
      match Hashtbl.find ge.g_scalars n with
      | Keval.VInt v -> set_form ge at ~r:(-1) v; true
      | _ | (exception Not_found) -> false)
  | Kir.Var n -> (
      match Hashtbl.find ge.g_forms n with
      | f ->
        Array.blit f 0 ge.g_ws at (Array.length f);
        f <> [||]
      | exception Not_found -> (
          match Hashtbl.find ge.g_locals n with
          | exception Not_found -> false
          | bound ->
            Hashtbl.replace ge.g_forms n [||];
            let ok = affine ge bound at in
            if ok then Hashtbl.replace ge.g_forms n (Array.sub ge.g_ws at form_size);
            ok))
  | Kir.Unop (Kir.Neg, x) -> affine ge x at && (scale ge at (-1); true)
  | Kir.Binop (((Kir.Add | Kir.Sub) as op), x, y) ->
    affine ge x at && affine ge y (at + form_size)
    && (combine ge at (if op = Kir.Add then 1 else -1) (at + form_size); true)
  | Kir.Binop (Kir.Mul, x, y) ->
    let g = at + form_size in
    affine ge x at && affine ge y g
    &&
    if is_const ge at then begin
      let k = ge.g_ws.(at + k_of) in
      Array.blit ge.g_ws g ge.g_ws at form_size;
      scale ge at k;
      true
    end
    else if is_const ge g then (scale ge at ge.g_ws.(g + k_of); true)
    else false
  | _ -> false

(* The largest index register [r] takes over the launch. *)
let reg_max ge r =
  let d = if r < r_tx then ge.g_grid else ge.g_block in
  max 0 (Dim3.get d (match r mod 3 with 0 -> Dim3.X | 1 -> Dim3.Y | _ -> Dim3.Z) - 1)

(* |f| < 2^52 everywhere in the launch, for the form at [f]. *)
let small ge f =
  let ws = ge.g_ws in
  let b = ref (Float.abs (float_of_int ws.(f + k_of))) in
  for r = 0 to r_tz do
    b := !b +. (Float.abs (float_of_int ws.(f + r)) *. float_of_int (reg_max ge r))
  done;
  !b < 0x1p52

(* A guard's test rows, six ints per compare: [k; cbx; cby; cbz; tmin;
   tmax], the compare holding at block [b] and thread [t] iff
   [k + cb·b + ct·t <= 0], where [tmin]/[tmax] bound [ct·t] over the
   block's threads. *)
let rec guard_rows ge (e : Kir.exp) acc =
  match e with
  | Kir.Binop (Kir.And, x, y) -> Option.bind (guard_rows ge x acc) (guard_rows ge y)
  | Kir.Binop (((Kir.Lt | Kir.Le | Kir.Gt | Kir.Ge) as op), x, y)
    when affine ge x 0 && affine ge y form_size && small ge 0 && small ge form_size ->
    (* x < y is x - y + 1 <= 0 over the integers. *)
    let d = if op = Kir.Lt || op = Kir.Le then 0 else form_size in
    combine ge d (-1) (form_size - d);
    let ws = ge.g_ws in
    let k = if op = Kir.Lt || op = Kir.Gt then ws.(d + k_of) + 1 else ws.(d + k_of) in
    let tmin = ref 0 and tmax = ref 0 in
    for r = r_tx to r_tz do
      let span = ws.(d + r) * reg_max ge r in
      tmin := !tmin + min 0 span;
      tmax := !tmax + max 0 span
    done;
    Some (k :: ws.(d + r_bx) :: ws.(d + r_by) :: ws.(d + r_bz) :: !tmin :: !tmax :: acc)
  | _ -> None

let block_guard ge e = Option.map Array.of_list (guard_rows ge e [])

let g_mixed = 0
let g_true = 1
let g_false = 2

let classify_at rows bx by bz =
  let cls = ref g_true and i = ref 0 and n = Array.length rows in
  while !i < n && !cls <> g_false do
    let j = !i in
    let v = rows.!(j) + (rows.!(j + 1) * bx) + (rows.!(j + 2) * by) + (rows.!(j + 3) * bz) in
    if v + rows.!(j + 5) > 0 then cls := if v + rows.!(j + 4) > 0 then g_false else g_mixed;
    i := j + 6
  done;
  !cls

type guard_class = All_true | All_false | Mixed

let guard_classifier kernel ~grid ~block ~args e =
  let ge =
    genv ~scalars:(Keval.bind_scalars kernel ~args) ~grid ~block (single_locals kernel)
  in
  Option.map
    (fun rows (b : Dim3.t) ->
       let c = classify_at rows b.Dim3.x b.Dim3.y b.Dim3.z in
       if c = g_true then All_true else if c = g_false then All_false else Mixed)
    (block_guard ge e)

type ctx = {
  cgrid : Dim3.t;
  cblock : Dim3.t;
  scalars : (string, Keval.value) Hashtbl.t;
  arr_slots : (string, int * int array) Hashtbl.t;  (* name -> slot, extents *)
  written : S.t;
  varying : S.t;  (* locals, from [varying_locals] *)
  ge : genv;
  mutable n_guards : int;
  mutable n_affine : int;
  slots : (string, vtype * int) Hashtbl.t;  (* local -> register *)
  iconsts : (int, int) Hashtbl.t;  (* value -> preset register *)
  fconsts : (int64, int) Hashtbl.t;  (* bit pattern -> preset register *)
  ivary : (int, unit) Hashtbl.t;  (* varying int registers *)
  fvary : (int, unit) Hashtbl.t;
  mutable n_i : int;
  mutable n_f : int;
  mutable n_bufs : int;
  mutable loaded : int list;  (* slots of load steps *)
  mutable stored : int list;  (* slots of store and atomic steps *)
  mutable atomic : int list;
  mutable code : step list;  (* the open block, newest step first *)
}

let uni_i c r = not (Hashtbl.mem c.ivary r)
let uni_f c r = not (Hashtbl.mem c.fvary r)
let mask_i c r = if uni_i c r then 0 else -1
let mask_f c r = if uni_f c r then 0 else -1

let uni_v c = function
  | Ki _ | Kf _ | Kb _ -> true
  | Ri r | Rb r -> uni_i c r
  | Rf r -> uni_f c r

(* A uniform step runs once, on lane 0, whatever lanes are active. *)
let uniform (s : step) : step = fun env _ _ -> s env 0 1

let emit c s = c.code <- s :: c.code
let emit_i c d s = emit c (if uni_i c d then uniform s else s)
let emit_f c d s = emit c (if uni_f c d then uniform s else s)

(* Compile [f] into a fresh block: its result and its steps in order. *)
let in_block c f =
  let code = c.code in
  c.code <- [];
  let x = f () in
  let block = (x, List.rev c.code) in
  c.code <- code;
  block

let fresh_i ?(uni = true) c =
  let r = c.n_i in
  c.n_i <- r + 1;
  if not uni then Hashtbl.replace c.ivary r ();
  r

let fresh_f ?(uni = true) c =
  let r = c.n_f in
  c.n_f <- r + 1;
  if not uni then Hashtbl.replace c.fvary r ();
  r

let fresh_buf c =
  let b = c.n_bufs in
  c.n_bufs <- b + 1;
  b

let const_i c k =
  match Hashtbl.find_opt c.iconsts k with
  | Some r -> r
  | None ->
    let r = fresh_i c in
    Hashtbl.add c.iconsts k r;
    r

let const_f c x =
  let key = Int64.bits_of_float x in
  match Hashtbl.find_opt c.fconsts key with
  | Some r -> r
  | None ->
    let r = fresh_f c in
    Hashtbl.add c.fconsts key r;
    r

(* Where a root writes: the destination slot when its type and its
   uniformity match the value's, else a fresh temporary.  So a step
   writes a uniform register exactly when its operands are uniform; a
   uniform value bound to a varying local is computed once and
   broadcast by [bind]'s move. *)
let out_i c ~uni = function
  | Some (TInt, r) when uni = uni_i c r -> r
  | _ -> fresh_i ~uni c

let out_f c ~uni = function
  | Some (TFloat, r) when uni = uni_f c r -> r
  | _ -> fresh_f ~uni c

(* --- Typed compilation --------------------------------------------------- *)

(* Coercions mirror Keval.as_int/as_float/as_bool.  The [assert
   false] cases are the ones {!Kir.check} rejects. *)

let as_i c = function
  | (Ki _ | Ri _) as v -> v
  | Kf x ->
    let n = int_of_float x in
    if float_of_int n = x then Ki n
    else begin
      emit c (fun _ _ _ -> non_integer ());
      Ri (fresh_i c)
    end
  | Rf r ->
    let d = fresh_i ~uni:(uni_f c r) c in
    emit_i c d (Ksteps.to_int_step d r);
    Ri d
  | Rb _ | Kb _ -> assert false (* a bool is never a number *)

let as_f c = function
  | (Kf _ | Rf _) as v -> v
  | Ki k -> Kf (float_of_int k)
  | Ri r ->
    let d = fresh_f ~uni:(uni_i c r) c in
    emit_f c d (Ksteps.to_float_step d r);
    Rf d
  | Rb _ | Kb _ -> assert false (* a bool is never a number *)

let as_b = function
  | (Kb _ | Ri _ | Rb _) as v -> v
  | Ki k -> Kb (k <> 0)
  | Kf _ | Rf _ -> assert false (* a float is never a condition *)

let rec ireg c v = match v with Ki k -> const_i c k | Ri r -> r | _ -> ireg c (as_i c v)
let rec freg c v = match v with Kf x -> const_f c x | Rf r -> r | _ -> freg c (as_f c v)

(* The register of a condition. *)
let breg c = function
  | Kb b -> const_i c (Bool.to_int b)
  | Ri r | Rb r -> r
  | Ki _ | Kf _ | Rf _ -> assert false (* applied to [as_b] results *)

(* A subscript operand [ir.(r) + k]. *)
let isub c v = match as_i c v with Ki k -> (const_i c 0, k) | v -> (ireg c v, 0)

let int_arith op : int -> int -> int =
  match op with
  | Kir.Add -> ( + )
  | Kir.Sub -> ( - )
  | Kir.Mul -> ( * )
  | Kir.Minb -> imin
  | Kir.Maxb -> imax
  | Kir.Idiv -> ( / )
  | _ -> ( mod )

let float_arith op : float -> float -> float =
  match op with
  | Kir.Add -> ( +. )
  | Kir.Sub -> ( -. )
  | Kir.Mul -> ( *. )
  | Kir.Minb -> fmin
  | Kir.Maxb -> fmax
  | _ -> ( /. )

let float_cmp op (u : float) v =
  match op with
  | Kir.Lt -> u < v
  | Kir.Le -> u <= v
  | Kir.Gt -> u > v
  | Kir.Ge -> u >= v
  | Kir.Eq -> u = v
  | _ -> u <> v

let int_op c dst op a b =
  let d = out_i c ~uni:(uni_i c a && uni_i c b) dst in
  emit_i c d (Ksteps.int_step op (shape (uni_i c a) (uni_i c b)) d a b);
  Ri d

let float_op c dst op a b =
  let d = out_f c ~uni:(uni_f c a && uni_f c b) dst in
  emit_f c d (Ksteps.float_step op (shape (uni_f c a) (uni_f c b)) d a b);
  Rf d

(* Arithmetic stays integer only when both operands are; otherwise
   both sides coerce to float, exactly as [Keval.eval_binop]. *)
let arith c dst op vx vy =
  match (vx, vy) with
  | Ki a, Ki b -> Ki (int_arith op a b)
  | _ when is_int vx && is_int vy -> int_op c dst op (ireg c vx) (ireg c vy)
  | _ -> (
      match (as_f c vx, as_f c vy) with
      | Kf a, Kf b -> Kf (float_arith op a b)
      | fx, fy -> float_op c dst op (freg c fx) (freg c fy))

let compare_op c ~int op a b =
  let d = fresh_i ~uni:(if int then uni_i c a && uni_i c b else uni_f c a && uni_f c b) c in
  emit_i c d
    (if int then Ksteps.int_cmp_step op (shape (uni_i c a) (uni_i c b)) d a b
     else Ksteps.float_cmp_step op (shape (uni_f c a) (uni_f c b)) d a b);
  Rb d

(* Finish a binary operator whose operands are compiled (right one
   first); coercions run after both operands, as in [Keval]. *)
let binop c dst op vx vy =
  match op with
  | Kir.Add | Kir.Sub | Kir.Mul | Kir.Minb | Kir.Maxb -> arith c dst op vx vy
  | Kir.Div -> arith c dst op (as_f c vx) (as_f c vy)
  | Kir.Idiv | Kir.Imod -> (
      match (as_i c vx, as_i c vy) with
      | Ki a, Ki b when b <> 0 -> Ki (int_arith op a b)
      | ix, iy -> int_op c dst op (ireg c ix) (ireg c iy))
  | Kir.Lt | Kir.Le | Kir.Gt | Kir.Ge | Kir.Eq | Kir.Ne -> (
      if is_int vx && is_int vy then
        match (vx, vy) with
        | Ki a, Ki b -> Kb (float_cmp op (float_of_int a) (float_of_int b))
        | _ -> compare_op c ~int:true op (ireg c vx) (ireg c vy)
      else
        match (as_f c vx, as_f c vy) with
        | Kf a, Kf b -> Kb (float_cmp op a b)
        | fx, fy -> compare_op c ~int:false op (freg c fx) (freg c fy))
  | Kir.And | Kir.Or -> (
      match (as_b vx, as_b vy) with
      | Kb u, Kb v -> Kb (if op = Kir.And then u && v else u || v)
      | bx, by ->
        let a = breg c bx and b = breg c by in
        let d = fresh_i ~uni:(uni_i c a && uni_i c b) c in
        emit_i c d (Ksteps.bool_step op (shape (uni_i c a) (uni_i c b)) d a b);
        Rb d)

let float_unop c dst op v =
  match (op, as_f c v) with
  | Kir.Neg, Kf x -> Kf (-.x)
  | Kir.Abs, Kf x -> Kf (Float.abs x)
  | Kir.Sqrt, Kf x -> Kf (sqrt x)
  | Kir.Rsqrt, Kf x -> Kf (1.0 /. sqrt x)
  | op, fv ->
    let a = freg c fv in
    let d = out_f c ~uni:(uni_f c a) dst in
    emit_f c d (Ksteps.float_unop_step op d a);
    Rf d

let unop c dst op v =
  match (op, v) with
  | (Kir.Neg | Kir.Abs), Ki k -> Ki (if op = Kir.Neg then -k else abs k)
  | (Kir.Neg | Kir.Abs), Ri a ->
    let d = out_i c ~uni:(uni_i c a) dst in
    emit_i c d (Ksteps.int_unop_step op d a);
    Ri d
  | Kir.Neg, (Rb _ | Kb _) -> assert false (* a bool is never a number *)
  | Kir.Not, _ -> (
      match as_b v with
      | Kb b -> Kb (not b)
      | bv ->
        let a = breg c bv in
        let d = fresh_i ~uni:(uni_i c a) c in
        emit_i c d (Ksteps.not_step d a);
        Rb d)
  | _ -> float_unop c dst op v

let lane_subs c subs = Array.map (fun (r, k) -> (r, mask_i c r, k)) subs
let uniform_subs c subs = Array.for_all (fun (r, _) -> uni_i c r) subs

(* An access is affine when each subscript is affine over the index
   registers and small enough to be exact, or compiles to a uniform
   register plus a constant, and some subscript moves with the thread
   index.  Returns its [affine_step] form, the linear offset's
   coefficients on [tx], [ty], [tz], and whether every subscript came
   from a form.  An access uniform over the block keeps [load_step]: it
   runs on one lane already.  Deciding allocates nothing. *)
let affine_access c dims idx (subs : (int * int) array) =
  let ok = ref true and moves = ref false and formed = ref true in
  let l = ref idx and d = ref 0 in
  while !ok && !l != [] do
    let e = List.hd !l in
    if affine c.ge e 0 && small c.ge 0 then begin
      let ws = c.ge.g_ws in
      if ws.(r_tx) <> 0 || ws.(r_ty) <> 0 || ws.(r_tz) <> 0 then moves := true
    end
    else begin
      formed := false;
      if not (uni_i c (fst subs.(!d))) then ok := false
    end;
    l := List.tl !l;
    incr d
  done;
  if not (!ok && !moves) then None
  else begin
    let rank = Array.length dims in
    let co = Array.make (rank * a_size) 0 and ct = Array.make 3 0 in
    List.iteri
      (fun d e ->
         let j = d * a_size and r, k = subs.(d) in
         co.(j + 8) <- dims.(d);
         if affine c.ge e 0 && small c.ge 0 then begin
           let ws = c.ge.g_ws in
           co.(j) <- const_i c 0;
           co.(j + 1) <- ws.(k_of);
           for x = r_bx to r_tz do
             co.(j + 2 + x) <- ws.(x)
           done
         end
         else begin
           co.(j) <- r;
           co.(j + 1) <- k
         end;
         for x = 0 to 2 do
           ct.(x) <- (ct.(x) * dims.(d)) + co.(j + 2 + r_tx + x)
         done)
      idx;
    c.n_affine <- c.n_affine + 1;
    Some (co, ct, !formed)
  end

let rec compile_exp c ?dst (e : Kir.exp) : value =
  match e with
  | Kir.Iconst n -> Ki n
  | Kir.Fconst x -> Kf x
  | Kir.Special s -> (
      match s with
      | Kir.Thread_idx Dim3.X -> Ri r_tx
      | Kir.Thread_idx Dim3.Y -> Ri r_ty
      | Kir.Thread_idx Dim3.Z -> Ri r_tz
      | Kir.Block_idx Dim3.X -> Ri r_bx
      | Kir.Block_idx Dim3.Y -> Ri r_by
      | Kir.Block_idx Dim3.Z -> Ri r_bz
      | Kir.Block_dim a -> Ki (Dim3.get c.cblock a)
      | Kir.Grid_dim a -> Ki (Dim3.get c.cgrid a))
  | Kir.Param n -> (
      (* [Keval.bind_scalars] binds a [Scalar] to an int and an
         [Fscalar] to a float; {!Kir.check} admits declared names only. *)
      match Hashtbl.find c.scalars n with
      | Keval.VInt v -> Ki v
      | Keval.VFloat x -> Kf x
      | Keval.VBool _ -> assert false)
  | Kir.Var n -> (
      (* Bound on every path, so a binding made its slot already. *)
      match Hashtbl.find c.slots n with
      | TInt, s -> Ri s
      | TBool, s -> Rb s
      | TFloat, s -> Rf s)
  | Kir.Load (a, idx) -> (
      match reference c a idx with
      | `Arity raise_arity ->
        emit c raise_arity;
        Rf (out_f c ~uni:true dst)
      | `Ok (s, dims, subs) ->
        c.loaded <- s :: c.loaded;
        let uni = (not (S.mem a c.written)) && uniform_subs c subs in
        let d = out_f c ~uni dst in
        emit_f c d (load_step ~arr:a s dims (lane_subs c subs) d);
        Rf d
      | `Affine (s, co, ct) ->
        c.loaded <- s :: c.loaded;
        let d = out_f c ~uni:false dst in
        emit c (affine_step ~arr:a co ~block:c.cblock ~ct ~slot:s d);
        Rf d)
  | Kir.Unop (op, x) -> unop c dst op (compile_exp c x)
  | Kir.Binop (((Kir.Add | Kir.Sub) as op), x, Kir.Binop (Kir.Mul, y, z)) ->
    (* [x ± y*z]: [Keval] evaluates z, y, then x. *)
    let vz = compile_exp c z in
    let vy = compile_exp c y in
    if is_int vy && is_int vz then begin
      let vm = arith c None Kir.Mul vy vz in
      let vx = compile_exp c x in
      binop c dst op vx vm
    end
    else begin
      match (as_f c vy, as_f c vz) with
      | Kf a, Kf b ->
        let vx = compile_exp c x in
        binop c dst op vx (Kf (a *. b))
      | fy, fz ->
        let y = freg c fy in
        let z = freg c fz in
        let x = freg c (compile_exp c x) in
        let ux = uni_f c x and uy = uni_f c y and uz = uni_f c z in
        if ux = (uy && uz) then begin
          let d = out_f c ~uni:ux dst in
          emit_f c d (Ksteps.fma_step op (shape uy uz) d x y z);
          Rf d
        end
        else
          (* A uniform [x] beside a varying product, or a uniform
             product beside a varying [x]: the product is a step of its
             own, rounded as in one step. *)
          float_op c dst op x (freg c (float_op c None Kir.Mul y z))
    end
  | Kir.Binop (op, x, y) ->
    let vy = compile_exp c y in
    let vx = compile_exp c x in
    binop c dst op vx vy

(* A subscript, folding [e ± const] into the offset arithmetic. *)
and subscript c (e : Kir.exp) : int * int =
  match e with
  | Kir.Binop (((Kir.Add | Kir.Sub) as op), x, y) -> (
      let vy = compile_exp c y in
      let vx = compile_exp c x in
      match (op, vx, vy) with
      | Kir.Add, Ri r, Ki k -> (r, k)
      | Kir.Sub, Ri r, Ki k -> (r, -k)
      | Kir.Add, Ki k, Ri r -> (r, k)
      | _ -> isub c (binop c None op vx vy))
  | _ -> isub c (compile_exp c e)

(* An array reference: its slot and its extents and [reg + k]
   subscripts (evaluated left to right, each coerced as it is
   evaluated), or its affine form, or the always-raising arity
   diagnostic.  When every subscript of an affine access comes from a
   form, their steps are ring operations on temporaries, which cannot
   raise and which the access no longer reads: they are dropped. *)
and reference c a idx =
  let s, dims = Hashtbl.find c.arr_slots a in
  let before = c.code in
  let subs = Array.of_list (List.map (subscript c) idx) in
  let rank = Array.length dims and got = Array.length subs in
  if got <> rank then `Arity (fun _ _ _ -> Keval.arity_error ~arr:a ~expected:rank ~got)
  else
    match affine_access c dims idx subs with
    | Some (co, ct, formed) ->
      if formed then c.code <- before;
      `Affine (s, co, ct)
    | None -> `Ok (s, dims, subs)

let slot_for c name ty =
  match Hashtbl.find_opt c.slots name with
  | Some (ty', s) ->
    assert (ty' = ty) (* a local keeps one type *);
    s
  | None ->
    let uni = not (S.mem name c.varying) in
    let s = if ty = TFloat then fresh_f ~uni c else fresh_i ~uni c in
    Hashtbl.add c.slots name (ty, s);
    s

(* Bind a local to a compiled value.  A first binding takes over the
   expression's fresh temporary (registers at or above the marks) when
   it has the local's uniformity; a rebinding was compiled with the
   slot as its destination, so a move is only left for leaves. *)
let bind c name v ~mark_i ~mark_f =
  let uni = not (S.mem name c.varying) in
  let adopt ty r = Hashtbl.add c.slots name (ty, r) in
  match (Hashtbl.find_opt c.slots name, v) with
  | None, Ri r when r >= mark_i && uni_i c r = uni -> adopt TInt r
  | None, Rb r when r >= mark_i && uni_i c r = uni -> adopt TBool r
  | None, Rf r when r >= mark_f && uni_f c r = uni -> adopt TFloat r
  | _ -> (
      let s = slot_for c name (vtype_of v) in
      (* [varying_locals] and the registers agree by construction. *)
      assert ((not uni) || uni_v c v);
      match v with
      | Ki k -> emit_i c s (Ksteps.set_i_step s k)
      | Kb b -> emit_i c s (Ksteps.set_i_step s (Bool.to_int b))
      | Kf x -> emit_f c s (Ksteps.set_f_step s x)
      | (Ri r | Rb r) when r <> s ->
        emit_i c s (Ksteps.move_i_step ~broadcast:(uni_i c r && not uni) s r)
      | Rf r when r <> s -> emit_f c s (Ksteps.move_f_step ~broadcast:(uni_f c r && not uni) s r)
      | Ri _ | Rb _ | Rf _ -> ())

let rec seq = function
  | [] -> fun _ _ _ -> ()
  | [ a ] -> a
  | [ a; b ] -> fun env lo hi -> a env lo hi; b env lo hi
  | [ a; b; c ] -> fun env lo hi -> a env lo hi; b env lo hi; c env lo hi
  | [ a; b; c; d ] -> fun env lo hi -> a env lo hi; b env lo hi; c env lo hi; d env lo hi
  | a :: b :: c :: d :: rest ->
    let r = seq rest in
    fun env lo hi -> a env lo hi; b env lo hi; c env lo hi; d env lo hi; r env lo hi

(* A uniform condition is tested once, on lane 0. *)
let if_uniform t th el : step =
 fun env lo hi -> if (ig env t).!(0) <> 0 then th env lo hi else el env lo hi

(* A varying condition: each maximal run of lanes that agree on it runs
   its branch once, so interleaved divergence costs a call per run.  A
   run's extent is scanned before its branch runs, and the branch
   writes only the run's lanes, so every lane's condition is read as
   it was at the [If] even when a branch reassigns the condition's
   local. *)
let if_lanes t th el : step =
 fun env lo hi ->
  let c = ig env t and l = ref lo in
  while !l < hi do
    let a = !l in
    if c.!(a) <> 0 then begin
      while !l < hi && c.!(!l) <> 0 do incr l done;
      th env a !l
    end
    else begin
      while !l < hi && c.!(!l) = 0 do incr l done;
      el env a !l
    end
  done

(* An affine guard: one branch directly when the block's class decides
   it, else the compare steps and the scan.  The class is computed on
   the guard's first run in a block (the block index is all it reads)
   and counted once per (guard, block).  The compare steps write only
   temporaries nothing else reads, and cannot raise. *)
let if_folded g rows cond scan th el : step =
 fun env lo hi ->
  let cls =
    if env.gseen.!(g) = env.serial then env.gcls.!(g)
    else begin
      let ir = env.ir in
      let k = classify_at rows ir.!(r_bx).!(0) ir.!(r_by).!(0) ir.!(r_bz).!(0) in
      env.gseen.!(g) <- env.serial;
      env.gcls.!(g) <- k;
      if k = g_mixed then env.scanned <- env.scanned + 1 else env.folded <- env.folded + 1;
      k
    end
  in
  if cls = g_true then th env lo hi
  else if cls = g_false then el env lo hi
  else begin
    cond env lo hi;
    scan env lo hi
  end

(* Loop a uniform counter [s] over [l, h) around the body, restoring the
   counter afterwards ([Keval] unbinds or restores it on exit).
   Bodies of up to three steps run inline, without a sequencer. *)
let for_uniform s from_ to_ steps : step =
  match steps with
  | [ a ] ->
    fun env lo hi ->
      let c = ig env s in
      let l = (ig env from_).!(0) and h = (ig env to_).!(0) and saved = c.!(0) in
      for iv = l to h - 1 do c.!(0) <- iv; a env lo hi done;
      c.!(0) <- saved
  | [ a; b ] ->
    fun env lo hi ->
      let c = ig env s in
      let l = (ig env from_).!(0) and h = (ig env to_).!(0) and saved = c.!(0) in
      for iv = l to h - 1 do c.!(0) <- iv; a env lo hi; b env lo hi done;
      c.!(0) <- saved
  | [ a; b; d ] ->
    fun env lo hi ->
      let c = ig env s in
      let l = (ig env from_).!(0) and h = (ig env to_).!(0) and saved = c.!(0) in
      for iv = l to h - 1 do c.!(0) <- iv; a env lo hi; b env lo hi; d env lo hi done;
      c.!(0) <- saved
  | _ ->
    let body = seq steps in
    fun env lo hi ->
      let c = ig env s in
      let l = (ig env from_).!(0) and h = (ig env to_).!(0) and saved = c.!(0) in
      for iv = l to h - 1 do c.!(0) <- iv; body env lo hi done;
      c.!(0) <- saved

(* A varying counter: each lane keeps its own induction value [iv],
   limit [hb] and saved counter [sv].  Each round runs the body once
   per run of lanes still inside their range and advances those lanes,
   until no lane is.  Trip counts that differ lane by lane (SpMV's rows
   on a banded matrix) split later rounds into short runs, each a full
   body call. *)
let for_lanes s from_ mf to_ mt ~iv ~hb ~sv body : step =
 fun env lo hi ->
  let c = ig env s and f = ig env from_ and t = ig env to_ in
  let iv = env.bufs.!(iv) and hb = env.bufs.!(hb) and sv = env.bufs.!(sv) in
  for l = lo to hi - 1 do
    sv.!(l) <- c.!(l);
    iv.!(l) <- f.!(l land mf);
    hb.!(l) <- t.!(l land mt)
  done;
  let live = ref true in
  while !live do
    live := false;
    let l = ref lo in
    while !l < hi do
      let r = !l in
      while !l < hi && iv.!(!l) < hb.!(!l) do
        c.!(!l) <- iv.!(!l);
        incr l
      done;
      if !l > r then begin
        body env r !l;
        for k = r to !l - 1 do iv.!(k) <- iv.!(k) + 1 done;
        live := true
      end
      else incr l
    done
  done;
  for l = lo to hi - 1 do c.!(l) <- sv.!(l) done

(* The checked offset of a store or atomic, then its value, then the
   write: [Keval]'s order. *)
let put c ~arr reference code e =
  let slot, o =
    match reference with
    | `Ok (slot, dims, subs) ->
      let o = fresh_i ~uni:(uniform_subs c subs) c in
      emit_i c o (offset_step ~arr dims (lane_subs c subs) o);
      (slot, o)
    | `Affine (slot, co, ct) ->
      let o = fresh_i ~uni:false c in
      emit c (affine_step ~arr co ~block:c.cblock ~ct ~slot:(-1) o);
      (slot, o)
  in
  let v = freg c (compile_exp c e) in
  c.stored <- slot :: c.stored;
  if code land 3 <> 0 then c.atomic <- slot :: c.atomic;
  emit c (put_step ((slot * 4) + code) o (mask_i c o) v (mask_f c v))

(* Registers persist across threads and blocks where [Keval]'s
   hashtable is fresh, but {!Kir.check} puts a binding before every use
   on every path of one thread, so stale register values are
   unobservable. *)
let rec compile_stmt c (s : Kir.stmt) =
  match s with
  | Kir.Store (a, idx, e) | Kir.Atomic (_, a, idx, e) ->
    (match reference c a idx with
     | `Arity raise_arity ->
       emit c raise_arity;
       ignore (in_block c (fun () -> freg c (compile_exp c e)))
     | (`Ok _ | `Affine _) as r ->
       let code =
         match s with
         | Kir.Atomic (Kir.AAdd, _, _, _) -> 1
         | Kir.Atomic (Kir.AMin, _, _, _) -> 2
         | Kir.Atomic (Kir.AMax, _, _, _) -> 3
         | _ -> 0
       in
       put c ~arr:a r code e)
  | Kir.Local (n, e) | Kir.Assign (n, e) ->
    let mark_i = c.n_i and mark_f = c.n_f in
    let v = compile_exp c ?dst:(Hashtbl.find_opt c.slots n) e in
    bind c n v ~mark_i ~mark_f
  | Kir.If (cexp, ts, es) ->
    let test, csteps = in_block c (fun () -> as_b (compile_exp c cexp)) in
    let (), tsteps = in_block c (fun () -> compile_seq c ts) in
    let (), esteps = in_block c (fun () -> compile_seq c es) in
    (match test with
     | Kb b -> List.iter (emit c) (csteps @ if b then tsteps else esteps)
     | _ when tsteps = [] && esteps = [] -> List.iter (emit c) csteps
     | t -> (
         let r = breg c t and th = seq tsteps and el = seq esteps in
         let scan = (if uni_i c r then if_uniform else if_lanes) r th el in
         match block_guard c.ge cexp with
         | Some rows ->
           let g = c.n_guards in
           c.n_guards <- g + 1;
           emit c (if_folded g rows (seq csteps) scan th el)
         | None -> List.iter (emit c) (csteps @ [ scan ])))
  | Kir.For { var; from_; to_; body } ->
    let lo = ireg c (compile_exp c from_) in
    let hi = ireg c (compile_exp c to_) in
    let s = slot_for c var TInt in
    let (), steps = in_block c (fun () -> compile_seq c body) in
    if uni_i c s then begin
      (* [varying_locals] and the registers agree by construction. *)
      assert (uni_i c lo && uni_i c hi);
      emit c (for_uniform s lo hi steps)
    end
    else begin
      let iv = fresh_buf c in
      let hb = fresh_buf c in
      let sv = fresh_buf c in
      emit c (for_lanes s lo (mask_i c lo) hi (mask_i c hi) ~iv ~hb ~sv (seq steps))
    end
  | Kir.Syncthreads -> ()

and compile_seq c stmts = List.iter (compile_stmt c) stmts

let rec mentions x (e : Kir.exp) =
  match e with
  | Kir.Var y -> y = x
  | Kir.Iconst _ | Kir.Fconst _ | Kir.Special _ | Kir.Param _ -> false
  | Kir.Load (_, idx) -> List.exists (mentions x) idx
  | Kir.Unop (_, a) -> mentions x a
  | Kir.Binop (_, a, b) -> mentions x a || mentions x b

(* Sink an initial value that a branch overwrites first into the other
   branch: [x = v; if (c) { x = e; ... } else { ... }] compiles as
   [if (c) { x = e; ... } else { x = v; ... }] when [c] and [e] do not
   read [x] and [v] is a local, a literal or a parameter.  The then
   branch never reads the dropped [x = v], which cannot raise, so this
   is [Keval]'s result and diagnostic; a block where a folded guard
   holds on every lane (hotspot's interior) then skips the move, as a
   hand-written guard-free kernel would. *)
let rec sink = function
  | Kir.Local (x, ((Kir.Var _ | Kir.Iconst _ | Kir.Fconst _ | Kir.Param _) as v))
    :: Kir.If (c, Kir.Assign (x', e) :: t, el) :: rest
    when x = x' && (not (mentions x c)) && not (mentions x e) ->
    Kir.If (c, Kir.Local (x, e) :: sink t, Kir.Local (x, v) :: sink el) :: sink rest
  | Kir.If (c, t, e) :: rest -> Kir.If (c, sink t, sink e) :: sink rest
  | Kir.For f :: rest -> Kir.For { f with body = sink f.body } :: sink rest
  | s :: rest -> s :: sink rest
  | [] -> []

let slot_set l = Array.of_list (List.sort_uniq compare l)

let compile kernel ~grid ~block ~args =
  Obs.Span.with_span ~cat:"kcompile" kernel.Kir.name @@ fun () ->
  (* Argument binding and extent resolution share [Keval]'s
     code, so a bad launch raises here exactly what [Keval.run] would
     raise (both happen before any thread executes). *)
  let scalars = Keval.bind_scalars kernel ~args in
  let dims = Keval.resolve_dims kernel ~scalars in
  let arr_slots = Hashtbl.create 8 in
  List.iteri (fun i (name, d) -> Hashtbl.add arr_slots name (i, d)) dims;
  let body = { kernel with Kir.body = sink kernel.Kir.body } in
  let written = written_arrays body in
  let c =
    {
      cgrid = grid;
      cblock = block;
      scalars;
      arr_slots;
      written;
      varying = varying_locals body ~written;
      ge = genv ~scalars ~grid ~block (single_locals body);
      n_guards = 0;
      n_affine = 0;
      slots = Hashtbl.create 16;
      iconsts = Hashtbl.create 16;
      fconsts = Hashtbl.create 16;
      ivary = Hashtbl.create 16;
      fvary = Hashtbl.create 16;
      n_i = r_tz + 1;
      n_f = 0;
      n_bufs = 0;
      loaded = [];
      stored = [];
      atomic = [];
      code = [];
    }
  in
  List.iter (fun r -> Hashtbl.replace c.ivary r ()) [ r_tx; r_ty; r_tz ];
  let (), steps = in_block c (fun () -> compile_seq c body.Kir.body) in
  let iregs = Array.make c.n_i 0 and fregs = Array.make c.n_f 0.0 in
  Hashtbl.iter (fun k r -> iregs.(r) <- k) c.iconsts;
  Hashtbl.iter (fun bits r -> fregs.(r) <- Int64.float_of_bits bits) c.fconsts;
  let arrays = Array.of_list (List.map fst dims) in
  let atomic_slot = Array.make (Array.length arrays) false in
  List.iter (fun s -> atomic_slot.(s) <- true) c.atomic;
  {
    grid;
    block;
    width = Dim3.volume block;
    arrays;
    iregs;
    fregs;
    n_bufs = c.n_bufs;
    load_slots = slot_set c.loaded;
    store_slots = slot_set c.stored;
    atomic_slot;
    n_guards = c.n_guards;
    affine = c.n_affine;
    body = seq steps;
    envs = Atomic.make [];
    narrow = Atomic.make 0;
  }

(* --- Execution --------------------------------------------------------- *)

let make_env t =
  let w = t.width and n = Array.length t.arrays in
  let ir = Array.map (fun k -> Array.make w k) t.iregs in
  let bx = t.block.Dim3.x and by = t.block.Dim3.y in
  for l = 0 to w - 1 do
    ir.(r_tx).(l) <- l mod bx;
    ir.(r_ty).(l) <- l / bx mod by;
    ir.(r_tz).(l) <- l / (bx * by)
  done;
  {
    ir;
    fr = Array.map (fun x -> Array.make w x) t.fregs;
    bufs = Array.init t.n_bufs (fun _ -> Array.make w 0);
    srcs = Array.make n [||];
    dsts = Array.make n [||];
    masks = Array.make n no_mask;
    limit = Array.make n 0;
    counts = Array.make (w + 1) 0;
    direct = false;
    log_n = 0;
    log_off = Array.make w 0;
    log_val = Array.make w 0.0;
    log_code = Array.make w 0;
    log_perm = Array.make w 0;
    seg_n = 0;
    seg_code = Array.make 8 0;
    seg_start = Array.make 8 0;
    seg_lane = Array.make 8 0;
    serial = 0;
    gseen = Array.make t.n_guards (-1);
    gcls = Array.make t.n_guards g_mixed;
    folded = 0;
    scanned = 0;
  }

let rec find_env id = function
  | [] -> None
  | (i, e) :: rest -> if i = id then Some e else find_env id rest

(* This domain's environment, made on its first block of the kernel. *)
let rec domain_env t =
  let id = (Domain.self () :> int) in
  let l = Atomic.get t.envs in
  match find_env id l with
  | Some e -> e
  | None ->
    let e = make_env t in
    if Atomic.compare_and_set t.envs l ((id, e) :: l) then e else domain_env t

(* Point the environment at this launch's arrays. *)
let bind_arrays t e ~access =
  for s = 0 to Array.length t.arrays - 1 do
    let r = access t.arrays.(s) in
    let m = match r.touched with Some m -> m | None -> no_mask in
    e.srcs.(s) <- r.loads;
    e.dsts.(s) <- r.stores;
    e.masks.(s) <- m;
    let lim = Array.length r.stores in
    let lim = if t.atomic_slot.(s) then min lim (Array.length r.loads) else lim in
    e.limit.(s) <- (if m == no_mask then lim else min lim (Array.length m))
  done

let copy_arrays ~src ~dst =
  let n = Array.length src.srcs in
  Array.blit src.srcs 0 dst.srcs 0 n;
  Array.blit src.dsts 0 dst.dsts 0 n;
  Array.blit src.masks 0 dst.masks 0 n;
  Array.blit src.limit 0 dst.limit 0 n

(* No array a store or atomic writes is read by a load step. *)
let lane_safe t e =
  let ok = ref true in
  Array.iter
    (fun s ->
       let d = e.dsts.(s) in
       Array.iter (fun s' -> if d == e.srcs.(s') then ok := false) t.load_slots)
    t.store_slots;
  !ok

let set_block env bz by bx =
  (ig env r_bz).!(0) <- bz;
  (ig env r_by).!(0) <- by;
  (ig env r_bx).!(0) <- bx;
  env.serial <- env.serial + 1

(* Thread by thread, stores written directly: the sequential order.
   Lanes are numbered in Keval's (z, y, x) thread order. *)
let scalar_lanes t env =
  env.direct <- true;
  for l = 0 to t.width - 1 do
    t.body env l (l + 1)
  done

let scalar_block t env bz by bx =
  set_block env bz by bx;
  scalar_lanes t env

let lane_block t env bz by bx =
  set_block env bz by bx;
  env.direct <- false;
  match t.body env 0 t.width with
  | () -> flush env
  | exception _ ->
    drop_log env;
    Atomic.incr t.narrow;
    scalar_lanes t env

(* Run every block of the grid; returns the domains engaged (1 when
   the blocks ran sequentially on the caller). *)
let run_grid ?pool t ~access =
  let gx = t.grid.Dim3.x and gy = t.grid.Dim3.y and gz = t.grid.Dim3.z in
  let nblocks = if gx <= 0 || gy <= 0 || gz <= 0 then 0 else gx * gy * gz in
  let e0 = domain_env t in
  bind_arrays t e0 ~access;
  let lanes = t.width > 1 && lane_safe t e0 in
  let block env bz by bx =
    if lanes then lane_block t env bz by bx
    else begin
      if t.width > 1 then Atomic.incr t.narrow;
      scalar_block t env bz by bx
    end
  in
  match pool with
  | Some pool when nblocks > 1 && Gpu_runtime.Dpool.size pool > 1 ->
    let plane = gy * gx in
    Gpu_runtime.Dpool.parallel_for pool ~n:nblocks (fun lo hi ->
        (* Chunks are linearized in the same z, y, x-major order the
           sequential loops use; each domain runs on its own
           environment. *)
        let env = domain_env t in
        if env != e0 then copy_arrays ~src:e0 ~dst:env;
        for i = lo to hi - 1 do
          let r = i mod plane in
          block env (i / plane) (r / gx) (r mod gx)
        done)
  | _ ->
    if nblocks > 0 then
      for z = 0 to gz - 1 do
        for y = 0 to gy - 1 do
          for x = 0 to gx - 1 do
            block e0 z y x
          done
        done
      done;
    1

(* Drop every environment's references to the launch's arrays, so a
   kernel kept in a store never keeps a finished run's device data
   alive. *)
let unbind_arrays t =
  List.iter
    (fun (_, e) ->
       Array.fill e.srcs 0 (Array.length e.srcs) [||];
       Array.fill e.dsts 0 (Array.length e.dsts) [||];
       Array.fill e.masks 0 (Array.length e.masks) no_mask)
    (Atomic.get t.envs)

let run_blocks ?pool t ~access =
  Fun.protect ~finally:(fun () -> unbind_arrays t) (fun () -> run_grid ?pool t ~access)

let run ?pool t ~access = ignore (run_blocks ?pool t ~access : int)

(* --- The launch executor ----------------------------------------------- *)

(* A compiled kernel is a pure function of (kernel, grid, block,
   scalar arguments) -- buffers are resolved per launch through
   [access] -- so a store memoizes it under that key.  A name identifies a kernel only inside one
   program, so entries hash on the name and shape but hold the kernel
   itself, compared physically first and then structurally. *)
module Shape = Hashtbl.Make (struct
    type t = string * Dim3.t * Dim3.t * Keval.arg list

    let arg_eq (a : Keval.arg) (b : Keval.arg) =
      match (a, b) with
      | AInt x, AInt y -> Int.equal x y
      | AFloat x, AFloat y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      | (AInt _ | AFloat _), _ -> false

    let equal (n, g, b, a) (n', g', b', a') =
      String.equal n n' && g = g' && b = b' && List.equal arg_eq a a'

    let hash = Hashtbl.hash
  end)

type kernels = (Kir.t * t) list Shape.t

let kernels () : kernels = Shape.create 16

let find_kernel (store : kernels) key kernel =
  match Shape.find_opt store key with
  | None -> None
  | Some entries -> List.find_map (fun (k, c) -> if Kir.equal k kernel then Some c else None) entries

let add_kernel (store : kernels) key kernel c =
  Shape.replace store key
    ((kernel, c) :: Option.value ~default:[] (Shape.find_opt store key))

(* Every engine launches kernels through one executor per run. *)
type executor = {
  store : kernels;
  reg : Obs.Metrics.t;
  compiles : Obs.Metrics.counter;
  cache_hits : Obs.Metrics.counter;
  seq_launches : Obs.Metrics.counter;
  par_launches : Obs.Metrics.counter;
  scalar_blocks : Obs.Metrics.counter;
  guards_folded : Obs.Metrics.counter;
  guards_scanned : Obs.Metrics.counter;
  affine_accesses : Obs.Metrics.counter;
  mutable max_domains : int;
}

let executor ?(kernels = kernels ()) reg =
  let counter = Obs.Metrics.counter reg in
  Obs.Metrics.set reg "exec.max_domains" 1.0;
  (* Every registry carries the series of launches [Keval] runs. *)
  ignore (Keval.launches reg : Obs.Metrics.counter);
  {
    store = kernels;
    reg;
    compiles = counter "exec.compiles";
    cache_hits = counter "exec.cache_hits";
    seq_launches = counter "exec.seq_launches";
    par_launches = counter "exec.par_launches";
    scalar_blocks = counter "kcompile.scalar_blocks";
    guards_folded = counter "kcompile.guards_folded";
    guards_scanned = counter "kcompile.guards_scanned";
    affine_accesses = counter "kcompile.affine_accesses";
    max_domains = 1;
  }

let clear_cache ex = Shape.reset ex.store

let bump c = Obs.Metrics.add c 1.0

let launch ex ?(parallel = false) kernel ~grid ~block ~args ~access =
  let key = (kernel.Kir.name, grid, block, args) in
  let t =
    match find_kernel ex.store key kernel with
    | Some t ->
      bump ex.cache_hits;
      t
    | None ->
      let t = compile kernel ~grid ~block ~args in
      add_kernel ex.store key kernel t;
      bump ex.compiles;
      if t.affine > 0 then Obs.Metrics.add ex.affine_accesses (float_of_int t.affine);
      t
  in
  let pool = if parallel then Some (Gpu_runtime.Dpool.get ()) else None in
  let before = Atomic.get t.narrow in
  let count_blocks () =
    let n = Atomic.get t.narrow - before in
    if n > 0 then Obs.Metrics.add ex.scalar_blocks (float_of_int n);
    (* Each domain's environment counted its own guard classes. *)
    List.iter
      (fun (_, e) ->
         if e.folded > 0 then Obs.Metrics.add ex.guards_folded (float_of_int e.folded);
         if e.scanned > 0 then Obs.Metrics.add ex.guards_scanned (float_of_int e.scanned);
         e.folded <- 0;
         e.scanned <- 0)
      (Atomic.get t.envs)
  in
  match run_blocks ?pool t ~access with
  | d ->
    count_blocks ();
    if d <= 1 then bump ex.seq_launches
    else begin
      bump ex.par_launches;
      if d > ex.max_domains then begin
        ex.max_domains <- d;
        Obs.Metrics.set ex.reg "exec.max_domains" (float_of_int d)
      end
    end
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    count_blocks ();
    Printexc.raise_with_backtrace e bt

let publish_metrics ?(into = Obs.Metrics.default) reg = Obs.Metrics.merge ~into reg

