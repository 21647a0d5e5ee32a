(* What a lane sweep runs in: one domain's environment, the step type,
   and the operand shapes that pick a sweep.  Shared by [Kcompile] and
   by [Ksteps], the step constructors gen/ksteps_gen.ml generates from
   its operator table (DESIGN.md §13). *)

external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* One executing domain's state for a block of [w] lanes.  [masks.(s)]
   is [no_mask] for arrays without a touched mask; [limit.(s)] is the
   first offset a logged write to slot [s] could not apply.  The log is
   a list of segments, one per store or atomic sweep, each
   [slot * 4 + op] (op 0 = store, 1/2/3 = atomic add/min/max) over a
   run of entries: an offset and a value per lane of the sweep, the
   first entry for the segment's first lane. *)
type env = {
  ir : int array array;
  fr : float array array;
  bufs : int array array;  (* per-lane loop state *)
  srcs : float array array;
  dsts : float array array;
  masks : bool array array;
  limit : int array;
  counts : int array;  (* the flush's per-lane counts, w + 1 *)
  mutable direct : bool;  (* thread by thread: stores skip the log *)
  mutable log_n : int;
  mutable log_off : int array;
  mutable log_val : float array;
  mutable log_code : int array;  (* the sort's scratch *)
  mutable log_perm : int array;
  mutable seg_n : int;
  mutable seg_code : int array;
  mutable seg_start : int array;
  mutable seg_lane : int array;  (* the lane of the segment's first entry *)
  mutable serial : int;  (* the running block's number, from 1 *)
  gseen : int array;  (* per guard: the block it was last classified for *)
  gcls : int array;  (* per guard: that block's class *)
  mutable folded : int;  (* (guard, block) pairs that took a branch directly *)
  mutable scanned : int;  (* (guard, block) pairs that ran the lane scan *)
}

(* A sweep over the lanes [lo, hi). *)
type step = env -> int -> int -> unit

(* A step's destination is uniform exactly when its operands all are
   (only a move broadcasts a uniform register into a varying one), and
   a uniform step runs over [0, 1), where slot [l] is slot 0.  So a
   two-operand step has one of three shapes, fixed when it is compiled:
   [Vv] reads both operands at [l] (also serving two uniform ones); [Uv]
   and [Vu] read their uniform operand once, before the loop, and it is
   never the destination, whose uniformity differs. *)
type shape = Vv | Uv | Vu

let shape ua ub = if ua = ub then Vv else if ua then Uv else Vu

(* An operator whose result does not depend on its operands' order
   takes its uniform operand first. *)
let commute sh a b = if sh = Vu then (Uv, b, a) else (sh, a, b)

(* [a > b] is [b < a] and [a >= b] is [b <= a], NaNs included, so
   four comparisons cover six. *)
let mirror op sh a b =
  let flip = match sh with Uv -> Vu | Vu -> Uv | Vv -> Vv in
  match op with
  | Kir.Gt -> (Kir.Lt, flip, b, a)
  | Kir.Ge -> (Kir.Le, flip, b, a)
  | _ -> (op, sh, a, b)

let non_integer () = invalid_arg "Keval: non-integer index"
