(* Launch-time compilation of kernel IR to register-file code.

   [Keval] interprets the tree per thread: boxed [value]s, per-thread
   [Hashtbl] locals, [List]-based subscript linearization.  Here we
   partially evaluate a kernel against everything known at launch
   time — grid and block dimensions, scalar arguments, resolved array
   extents — and emit destination-passing code over two unboxed
   register files per executing domain:

   - an [int array] and a [float array].  Registers 0–5 hold the block
     and thread indices; launch constants (parameters, [blockDim],
     [gridDim], literals) are registers preset when the environment is
     created; every local has a slot, and every compound
     subexpression a fresh temporary;
   - each compiled step is an [env -> unit] closure that reads its
     operand registers and writes exactly one register (or one array
     element), so no float ever crosses a closure boundary and the hot
     loop allocates nothing (OCaml boxes a float returned from an
     unknown closure);
   - a block of statements is a flat list of steps run by one
     sequencer; only [If] and [For] nest.  Conditions compile to pure
     [env -> bool] tests over registers (an immediate, never boxed);
   - array accesses read and write the backing [float array]s of the
     launch's access records directly, with the rank-1/2/3
     linearization, the bounds checks and [reg ± const] subscripts
     inlined into the load or store.

   Further fusions: comparisons are specialized per operator, float
   [x ± y*z] is one step (OCaml never contracts to FMA, so the result
   is bit-identical), launch-time-constant subtrees fold at compile
   time, an [Assign] root writes straight into its slot and a first
   [Local] takes over its expression's temporary.

   Evaluation order is Keval's, step for step: a binary operator's
   right operand before its left, subscripts left to right and all of
   them before any bounds check, a store's (or atomic's) bounds check
   before its value.  That keeps every diagnostic identical, not just
   every result.  Tests are pure, so [And]/[Or] may short-circuit.

   The IR is dynamically typed and the static pass is deliberately
   simple, so anything it cannot type (a local rebound at a different
   type, a use the analysis cannot prove bound, booleans in numeric
   position) falls back to the interpreter via [Error]: [Keval] stays
   the semantics oracle and the fallback is always bit-identical.

   Parallel execution: [run] can split the grid's blocks over a
   {!Gpu_runtime.Dpool}.  Each participating domain gets its own
   register files; array loads/stores go straight to the shared
   backing arrays.  The *caller* is responsible for only passing a
   pool when the kernel's verdict proves distinct blocks never touch
   overlapping elements (a [Verify.Safe] verdict); under that verdict
   any block interleaving writes each element exactly once from one
   domain and reads only elements no other block writes, so the result
   is bit-identical to the sequential order.  [Atomic] compiles to a
   plain load-combine-store, which is NOT indivisible across domains —
   kernels whose conflicts are merely atomic-reducible must run their
   blocks sequentially within one address space (the engine gives each
   partition a private accumulation buffer instead).

   Engines do not call [compile] and [run] themselves: [launch] is the
   one entry that caches compiled kernels, falls back to [Keval], picks
   the pool and counts the launch. *)

type access = {
  loads : float array;
  stores : float array;
  touched : bool array option;
}

(* One executing domain's state.  [masks.(s)] is [no_mask] for arrays
   without a touched mask. *)
type env = {
  ir : int array;
  fr : float array;
  srcs : float array array;
  dsts : float array array;
  masks : bool array array;
}

type step = env -> unit

type t = {
  kname : string;
  grid : Dim3.t;
  block : Dim3.t;
  arrays : string array;  (* array parameter names, slot-indexed *)
  iregs : int array;  (* register templates: constants preset *)
  fregs : float array;
  body : step;
}

let name t = t.kname

let r_bx = 0
let r_by = 1
let r_bz = 2
let r_tx = 3
let r_ty = 4
let r_tz = 5

let no_mask : bool array = [||]

let[@inline] gi env r = Array.unsafe_get env.ir r
let[@inline] si env r v = Array.unsafe_set env.ir r v
let[@inline] gf env r = Array.unsafe_get env.fr r
let[@inline] sf env r v = Array.unsafe_set env.fr r v

(* Type-specialized min/max, spelled exactly like the Stdlib
   polymorphic versions the interpreter uses so ties (e.g.
   [max 0.0 (-0.0)]) and NaNs resolve to the same bit patterns. *)
let[@inline] imin (x : int) y = if x <= y then x else y
let[@inline] imax (x : int) y = if x >= y then x else y
let[@inline] fmin (x : float) y = if x <= y then x else y
let[@inline] fmax (x : float) y = if x >= y then x else y

(* --- Array access ------------------------------------------------------ *)

(* A subscript is [ir.(r) + k]; all of a reference's subscripts are in
   registers before its step runs, so checking dimension by dimension
   is Keval's evaluate-all-then-check order. *)
let[@inline] index env arr dim extent r k =
  let v = gi env r + k in
  if v < 0 || v >= extent then Keval.bounds_error ~arr ~dim ~extent v;
  v

let[@inline] off1 env arr d0 r0 k0 = index env arr 0 d0 r0 k0

let[@inline] off2 env arr d0 d1 r0 k0 r1 k1 =
  let v0 = index env arr 0 d0 r0 k0 in
  let v1 = index env arr 1 d1 r1 k1 in
  (v0 * d1) + v1

let[@inline] off3 env arr d0 d1 d2 r0 k0 r1 k1 r2 k2 =
  let v0 = index env arr 0 d0 r0 k0 in
  let v1 = index env arr 1 d1 r1 k1 in
  let v2 = index env arr 2 d2 r2 k2 in
  (((v0 * d1) + v1) * d2) + v2

let offn env arr dims regs ks =
  let acc = ref 0 in
  for i = 0 to Array.length dims - 1 do
    acc := (!acc * dims.(i)) + index env arr i dims.(i) regs.(i) ks.(i)
  done;
  !acc

let[@inline] get env s o = (Array.unsafe_get env.srcs s).(o)

let[@inline] put env s o x =
  (Array.unsafe_get env.dsts s).(o) <- x;
  let m = Array.unsafe_get env.masks s in
  if m != no_mask then m.(o) <- true

let load_step ~arr s dims subs d : step =
  match (dims, subs) with
  | [| d0 |], [| (r0, k0) |] -> fun env -> sf env d (get env s (off1 env arr d0 r0 k0))
  | [| d0; d1 |], [| (r0, k0); (r1, k1) |] ->
    fun env -> sf env d (get env s (off2 env arr d0 d1 r0 k0 r1 k1))
  | [| d0; d1; d2 |], [| (r0, k0); (r1, k1); (r2, k2) |] ->
    fun env -> sf env d (get env s (off3 env arr d0 d1 d2 r0 k0 r1 k1 r2 k2))
  | _ ->
    let regs = Array.map fst subs and ks = Array.map snd subs in
    fun env -> sf env d (get env s (offn env arr dims regs ks))

let store_step ~arr s dims subs v : step =
  match (dims, subs) with
  | [| d0 |], [| (r0, k0) |] -> fun env -> put env s (off1 env arr d0 r0 k0) (gf env v)
  | [| d0; d1 |], [| (r0, k0); (r1, k1) |] ->
    fun env -> put env s (off2 env arr d0 d1 r0 k0 r1 k1) (gf env v)
  | [| d0; d1; d2 |], [| (r0, k0); (r1, k1); (r2, k2) |] ->
    fun env -> put env s (off3 env arr d0 d1 d2 r0 k0 r1 k1 r2 k2) (gf env v)
  | _ ->
    let regs = Array.map fst subs and ks = Array.map snd subs in
    fun env -> put env s (offn env arr dims regs ks) (gf env v)

(* The checked linear offset into an int register: a store or atomic
   whose value may raise runs this first. *)
let offset_step ~arr dims subs o : step =
  match (dims, subs) with
  | [| d0 |], [| (r0, k0) |] -> fun env -> si env o (off1 env arr d0 r0 k0)
  | [| d0; d1 |], [| (r0, k0); (r1, k1) |] ->
    fun env -> si env o (off2 env arr d0 d1 r0 k0 r1 k1)
  | [| d0; d1; d2 |], [| (r0, k0); (r1, k1); (r2, k2) |] ->
    fun env -> si env o (off3 env arr d0 d1 d2 r0 k0 r1 k1 r2 k2)
  | _ ->
    let regs = Array.map fst subs and ks = Array.map snd subs in
    fun env -> si env o (offn env arr dims regs ks)

(* --- Compilation ------------------------------------------------------- *)

(* Raised during compilation when the kernel leaves the statically
   typable fragment; surfaces as [Error reason] and the caller runs
   the interpreter instead. *)
exception Fallback of string

let fallback fmt = Printf.ksprintf (fun m -> raise (Fallback m)) fmt

type vtype = TInt | TFloat | TBool

let vtype_name = function TInt -> "int" | TFloat -> "float" | TBool -> "bool"

(* A compiled expression's value: a launch-time constant, a register
   (booleans live in int registers as 0/1), or a pure test. *)
type value =
  | Ki of int
  | Kf of float
  | Ri of int
  | Rf of int
  | Rb of int
  | Cb of (env -> bool)

let vtype_of = function
  | Ki _ | Ri _ -> TInt
  | Kf _ | Rf _ -> TFloat
  | Rb _ | Cb _ -> TBool

let is_int = function Ki _ | Ri _ -> true | _ -> false

module S = Set.Make (String)

type ctx = {
  cgrid : Dim3.t;
  cblock : Dim3.t;
  scalars : (string, Keval.value) Hashtbl.t;
  arr_slots : (string, int * int array) Hashtbl.t;  (* name -> slot, extents *)
  slots : (string, vtype * int) Hashtbl.t;  (* local -> register *)
  iconsts : (int, int) Hashtbl.t;  (* value -> preset register *)
  fconsts : (int64, int) Hashtbl.t;  (* bit pattern -> preset register *)
  mutable n_i : int;
  mutable n_f : int;
  mutable code : step list;  (* the open block, newest step first *)
  mutable raising : bool;  (* the open block has a step that may raise *)
}

let emit ?(raises = false) c s =
  c.code <- s :: c.code;
  if raises then c.raising <- true

(* Compile [f] into a fresh block: its result, its steps in order, and
   whether any of them may raise. *)
let in_block c f =
  let code = c.code and raising = c.raising in
  c.code <- [];
  c.raising <- false;
  let x = f () in
  let block = (x, List.rev c.code, c.raising) in
  c.code <- code;
  c.raising <- raising;
  block

let fresh_i c =
  let r = c.n_i in
  c.n_i <- r + 1;
  r

let fresh_f c =
  let r = c.n_f in
  c.n_f <- r + 1;
  r

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

(* Where a root writes: the destination slot when its type matches,
   else a fresh temporary. *)
let out_i c = function Some (TInt, r) -> r | _ -> fresh_i c
let out_f c = function Some (TFloat, r) -> r | _ -> fresh_f c

(* Coercions mirror Keval.as_int/as_float/as_bool.  Boolean operands
   in numeric position raise in the interpreter, so they leave the
   compiled fragment. *)

let non_integer () = invalid_arg "Keval: non-integer index"

let as_i c = function
  | (Ki _ | Ri _) as v -> v
  | Kf x ->
    let n = int_of_float x in
    if float_of_int n = x then Ki n
    else begin
      emit ~raises:true c (fun _ -> non_integer ());
      Ri (fresh_i c)
    end
  | Rf r ->
    let d = fresh_i c in
    emit ~raises:true c (fun env ->
        let x = gf env r in
        let n = int_of_float x in
        if float_of_int n = x then si env d n else non_integer ());
    Ri d
  | Rb _ | Cb _ -> fallback "boolean used as integer"

let as_f c = function
  | (Kf _ | Rf _) as v -> v
  | Ki k -> Kf (float_of_int k)
  | Ri r ->
    let d = fresh_f c in
    emit c (fun env -> sf env d (float_of_int (gi env r)));
    Rf d
  | Rb _ | Cb _ -> fallback "boolean used as float"

let as_b = function
  | Cb f -> f
  | Ri r | Rb r -> fun env -> gi env r <> 0
  | Ki k ->
    let b = k <> 0 in
    fun _ -> b
  | Kf _ | Rf _ -> fallback "float used as condition"

let rec ireg c v = match v with Ki k -> const_i c k | Ri r -> r | _ -> ireg c (as_i c v)
let rec freg c v = match v with Kf x -> const_f c x | Rf r -> r | _ -> freg c (as_f c v)

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

let int_step op d a b : step =
  match op with
  | Kir.Add -> fun env -> si env d (gi env a + gi env b)
  | Kir.Sub -> fun env -> si env d (gi env a - gi env b)
  | Kir.Mul -> fun env -> si env d (gi env a * gi env b)
  | Kir.Minb -> fun env -> si env d (imin (gi env a) (gi env b))
  | Kir.Maxb -> fun env -> si env d (imax (gi env a) (gi env b))
  | Kir.Idiv -> fun env -> si env d (gi env a / gi env b)
  | _ -> fun env -> si env d (gi env a mod gi env b)

let float_step op d a b : step =
  match op with
  | Kir.Add -> fun env -> sf env d (gf env a +. gf env b)
  | Kir.Sub -> fun env -> sf env d (gf env a -. gf env b)
  | Kir.Mul -> fun env -> sf env d (gf env a *. gf env b)
  | Kir.Minb -> fun env -> sf env d (fmin (gf env a) (gf env b))
  | Kir.Maxb -> fun env -> sf env d (fmax (gf env a) (gf env b))
  | _ -> fun env -> sf env d (gf env a /. gf env b)

(* Comparisons compare as floats in the interpreter, integers
   included. *)
let int_test op a b : env -> bool =
  match op with
  | Kir.Lt -> fun env -> float_of_int (gi env a) < float_of_int (gi env b)
  | Kir.Le -> fun env -> float_of_int (gi env a) <= float_of_int (gi env b)
  | Kir.Gt -> fun env -> float_of_int (gi env a) > float_of_int (gi env b)
  | Kir.Ge -> fun env -> float_of_int (gi env a) >= float_of_int (gi env b)
  | Kir.Eq -> fun env -> float_of_int (gi env a) = float_of_int (gi env b)
  | _ -> fun env -> float_of_int (gi env a) <> float_of_int (gi env b)

let float_test op a b : env -> bool =
  match op with
  | Kir.Lt -> fun env -> gf env a < gf env b
  | Kir.Le -> fun env -> gf env a <= gf env b
  | Kir.Gt -> fun env -> gf env a > gf env b
  | Kir.Ge -> fun env -> gf env a >= gf env b
  | Kir.Eq -> fun env -> gf env a = gf env b
  | _ -> fun env -> gf env a <> gf env b

(* Arithmetic stays integer only when both operands are; otherwise
   both sides coerce to float, exactly as [Keval.eval_binop]. *)
let arith c dst op vx vy =
  match (vx, vy) with
  | Ki a, Ki b -> Ki (int_arith op a b)
  | _ when is_int vx && is_int vy ->
    let d = out_i c dst in
    emit c (int_step op d (ireg c vx) (ireg c vy));
    Ri d
  | _ -> (
      match (as_f c vx, as_f c vy) with
      | Kf a, Kf b -> Kf (float_arith op a b)
      | fx, fy ->
        let d = out_f c dst in
        emit c (float_step op d (freg c fx) (freg c fy));
        Rf d)

(* Finish a binary operator whose operands are compiled (right one
   first); coercions run after both operands, as in the interpreter. *)
let binop c dst op vx vy =
  match op with
  | Kir.Add | Kir.Sub | Kir.Mul | Kir.Minb | Kir.Maxb -> arith c dst op vx vy
  | Kir.Div -> arith c dst op (as_f c vx) (as_f c vy)
  | Kir.Idiv | Kir.Imod -> (
      match (as_i c vx, as_i c vy) with
      | Ki a, Ki b when b <> 0 -> Ki (int_arith op a b)
      | ix, iy ->
        let d = out_i c dst in
        let zero_safe = match iy with Ki b -> b <> 0 | _ -> false in
        emit ~raises:(not zero_safe) c (int_step op d (ireg c ix) (ireg c iy));
        Ri d)
  | Kir.Lt | Kir.Le | Kir.Gt | Kir.Ge | Kir.Eq | Kir.Ne -> (
      if is_int vx && is_int vy then
        match (vx, vy) with
        | Ki a, Ki b ->
          let r = float_cmp op (float_of_int a) (float_of_int b) in
          Cb (fun _ -> r)
        | _ -> Cb (int_test op (ireg c vx) (ireg c vy))
      else
        match (as_f c vx, as_f c vy) with
        | Kf a, Kf b ->
          let r = float_cmp op a b in
          Cb (fun _ -> r)
        | fx, fy -> Cb (float_test op (freg c fx) (freg c fy)))
  | Kir.And ->
    let u = as_b vx and v = as_b vy in
    Cb (fun env -> u env && v env)
  | Kir.Or ->
    let u = as_b vx and v = as_b vy in
    Cb (fun env -> u env || v env)

let float_unop c dst op v =
  match (op, as_f c v) with
  | Kir.Neg, Kf x -> Kf (-.x)
  | Kir.Abs, Kf x -> Kf (Float.abs x)
  | Kir.Sqrt, Kf x -> Kf (sqrt x)
  | Kir.Rsqrt, Kf x -> Kf (1.0 /. sqrt x)
  | op, fv ->
    let d = out_f c dst and a = freg c fv in
    emit c
      (match op with
       | Kir.Neg -> fun env -> sf env d (-.gf env a)
       | Kir.Abs -> fun env -> sf env d (Float.abs (gf env a))
       | Kir.Sqrt -> fun env -> sf env d (sqrt (gf env a))
       | _ -> fun env -> sf env d (1.0 /. sqrt (gf env a)));
    Rf d

let unop c dst op v =
  match (op, v) with
  | (Kir.Neg | Kir.Abs), Ki k -> Ki (if op = Kir.Neg then -k else abs k)
  | (Kir.Neg | Kir.Abs), Ri a ->
    let d = out_i c dst in
    emit c
      (if op = Kir.Neg then fun env -> si env d (-gi env a)
       else fun env -> si env d (abs (gi env a)));
    Ri d
  | Kir.Neg, (Rb _ | Cb _) -> fallback "negating a boolean"
  | Kir.Not, _ ->
    let f = as_b v in
    Cb (fun env -> not (f env))
  | _ -> float_unop c dst op v

let array_slot c a =
  match Hashtbl.find_opt c.arr_slots a with
  | Some x -> x
  | None -> fallback "unknown array %s" a

let rec compile_exp c bound ?dst (e : Kir.exp) : value =
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
      match Hashtbl.find_opt c.scalars n with
      | Some (Keval.VInt v) -> Ki v
      | Some (Keval.VFloat x) -> Kf x
      | Some (Keval.VBool _) | None -> fallback "unbound parameter %s" n)
  | Kir.Var n -> (
      if not (S.mem n bound) then fallback "possibly-unbound local %s" n;
      match Hashtbl.find_opt c.slots n with
      | Some (TInt, s) -> Ri s
      | Some (TBool, s) -> Rb s
      | Some (TFloat, s) -> Rf s
      | None -> fallback "possibly-unbound local %s" n)
  | Kir.Load (a, idx) -> (
      match reference c bound a idx with
      | `Arity raise_arity ->
        emit ~raises:true c raise_arity;
        Rf (out_f c dst)
      | `Ok (s, dims, subs) ->
        let d = out_f c dst in
        emit ~raises:true c (load_step ~arr:a s dims subs d);
        Rf d)
  | Kir.Unop (op, x) -> unop c dst op (compile_exp c bound x)
  | Kir.Binop (((Kir.Add | Kir.Sub) as op), x, Kir.Binop (Kir.Mul, y, z)) ->
    (* [x ± y*z]: the interpreter evaluates z, y, then x. *)
    let vz = compile_exp c bound z in
    let vy = compile_exp c bound y in
    if is_int vy && is_int vz then begin
      let vm = arith c None Kir.Mul vy vz in
      let vx = compile_exp c bound x in
      binop c dst op vx vm
    end
    else begin
      match (as_f c vy, as_f c vz) with
      | Kf a, Kf b ->
        let vx = compile_exp c bound x in
        binop c dst op vx (Kf (a *. b))
      | fy, fz ->
        let y = freg c fy in
        let z = freg c fz in
        let x = freg c (compile_exp c bound x) in
        let d = out_f c dst in
        emit c
          (if op = Kir.Add then fun env -> sf env d (gf env x +. (gf env y *. gf env z))
           else fun env -> sf env d (gf env x -. (gf env y *. gf env z)));
        Rf d
    end
  | Kir.Binop (op, x, y) ->
    let vy = compile_exp c bound y in
    let vx = compile_exp c bound x in
    binop c dst op vx vy

(* A subscript, folding [e ± const] into the offset arithmetic. *)
and subscript c bound (e : Kir.exp) : int * int =
  match e with
  | Kir.Binop (((Kir.Add | Kir.Sub) as op), x, y) -> (
      let vy = compile_exp c bound y in
      let vx = compile_exp c bound x in
      match (op, vx, vy) with
      | Kir.Add, Ri r, Ki k -> (r, k)
      | Kir.Sub, Ri r, Ki k -> (r, -k)
      | Kir.Add, Ki k, Ri r -> (r, k)
      | _ -> isub c (binop c None op vx vy))
  | _ -> isub c (compile_exp c bound e)

(* An array reference: its slot, extents and subscripts (evaluated
   left to right, each coerced as it is evaluated), or the always-
   raising arity diagnostic. *)
and reference c bound a idx =
  let s, dims = array_slot c a in
  let subs = Array.of_list (List.map (subscript c bound) idx) in
  let rank = Array.length dims and got = Array.length subs in
  if got <> rank then `Arity (fun _ -> Keval.arity_error ~arr:a ~expected:rank ~got)
  else `Ok (s, dims, subs)

let slot_for c name ty =
  match Hashtbl.find_opt c.slots name with
  | Some (ty', s) ->
    if ty' <> ty then
      fallback "local %s rebound at type %s (was %s)" name (vtype_name ty)
        (vtype_name ty');
    s
  | None ->
    let s = if ty = TFloat then fresh_f c else fresh_i c in
    Hashtbl.add c.slots name (ty, s);
    s

(* Bind a local to a compiled value.  A first binding takes over the
   expression's fresh temporary (registers at or above the marks); a
   rebinding was compiled with the slot as its destination, so a move
   is only left for leaves. *)
let bind c name v ~mark_i ~mark_f =
  let adopt ty r = Hashtbl.add c.slots name (ty, r) in
  match (Hashtbl.find_opt c.slots name, v) with
  | None, Ri r when r >= mark_i -> adopt TInt r
  | None, Rf r when r >= mark_f -> adopt TFloat r
  | _ -> (
      let s = slot_for c name (vtype_of v) in
      match v with
      | Ki k -> emit c (fun env -> si env s k)
      | Kf x -> emit c (fun env -> sf env s x)
      | (Ri r | Rb r) when r <> s -> emit c (fun env -> si env s (gi env r))
      | Rf r when r <> s -> emit c (fun env -> sf env s (gf env r))
      | Cb f -> emit c (fun env -> si env s (if f env then 1 else 0))
      | Ri _ | Rb _ | Rf _ -> ())

let rec seq = function
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] -> fun env -> a env; b env
  | [ a; b; c ] -> fun env -> a env; b env; c env
  | [ a; b; c; d ] -> fun env -> a env; b env; c env; d env
  | a :: b :: c :: d :: rest ->
    let r = seq rest in
    fun env -> a env; b env; c env; d env; r env

(* Loop [s] over [l, h) around the body, restoring the counter's slot
   afterwards (the interpreter unbinds or restores it on exit).  Bodies
   of up to three steps run inline, without a sequencer. *)
let for_step s lo hi steps : step =
  match steps with
  | [ a ] ->
    fun env ->
      let l = gi env lo and h = gi env hi and saved = gi env s in
      for iv = l to h - 1 do si env s iv; a env done;
      si env s saved
  | [ a; b ] ->
    fun env ->
      let l = gi env lo and h = gi env hi and saved = gi env s in
      for iv = l to h - 1 do si env s iv; a env; b env done;
      si env s saved
  | [ a; b; c ] ->
    fun env ->
      let l = gi env lo and h = gi env hi and saved = gi env s in
      for iv = l to h - 1 do si env s iv; a env; b env; c env done;
      si env s saved
  | _ ->
    let body = seq steps in
    fun env ->
      let l = gi env lo and h = gi env hi and saved = gi env s in
      for iv = l to h - 1 do si env s iv; body env done;
      si env s saved

(* Statement compilation threads the set of locals provably bound at
   that program point (per thread, since every thread runs the whole
   body): a straight-line [Local]/[Assign] binds, an [If] binds the
   intersection of its branches, a [For] binds its counter only inside
   the body (the interpreter unbinds a previously-unbound counter on
   exit).  Registers persist across threads where the interpreter's
   hashtable is fresh, but a use never precedes a bind in the same
   thread, so stale register values are unobservable. *)
let rec compile_stmt c bound (s : Kir.stmt) : S.t =
  match s with
  | Kir.Store (a, idx, e) ->
    (match reference c bound a idx with
     | `Arity raise_arity ->
       emit ~raises:true c raise_arity;
       ignore (in_block c (fun () -> freg c (compile_exp c bound e)))
     | `Ok (slot, dims, subs) ->
       let v, steps, raises = in_block c (fun () -> freg c (compile_exp c bound e)) in
       if raises then begin
         (* The bounds check must fire before the value's own errors. *)
         let o = fresh_i c in
         emit ~raises:true c (offset_step ~arr:a dims subs o);
         List.iter (emit ~raises:true c) steps;
         emit c (fun env -> put env slot (gi env o) (gf env v))
       end
       else begin
         List.iter (emit c) steps;
         emit ~raises:true c (store_step ~arr:a slot dims subs v)
       end);
    bound
  | Kir.Atomic (op, a, idx, e) ->
    (match reference c bound a idx with
     | `Arity raise_arity ->
       emit ~raises:true c raise_arity;
       ignore (in_block c (fun () -> freg c (compile_exp c bound e)))
     | `Ok (slot, dims, subs) ->
       let o = fresh_i c in
       emit ~raises:true c (offset_step ~arr:a dims subs o);
       let v = freg c (compile_exp c bound e) in
       emit c
         (match op with
          | Kir.AAdd ->
            fun env ->
              let o = gi env o in
              put env slot o (get env slot o +. gf env v)
          | Kir.AMin ->
            fun env ->
              let o = gi env o in
              put env slot o (fmin (get env slot o) (gf env v))
          | Kir.AMax ->
            fun env ->
              let o = gi env o in
              put env slot o (fmax (get env slot o) (gf env v))));
    bound
  | Kir.Local (n, e) | Kir.Assign (n, e) ->
    let mark_i = c.n_i and mark_f = c.n_f in
    let v = compile_exp c bound ?dst:(Hashtbl.find_opt c.slots n) e in
    bind c n v ~mark_i ~mark_f;
    S.add n bound
  | Kir.If (cexp, ts, es) ->
    let test = as_b (compile_exp c bound cexp) in
    let bt, tsteps, traises = in_block c (fun () -> compile_seq c bound ts) in
    let be, esteps, eraises = in_block c (fun () -> compile_seq c bound es) in
    let raises = traises || eraises in
    (match (tsteps, esteps) with
     | [], [] -> ()
     | _, [] ->
       let t = seq tsteps in
       emit ~raises c (fun env -> if test env then t env)
     | _ ->
       let t = seq tsteps and f = seq esteps in
       emit ~raises c (fun env -> if test env then t env else f env));
    S.union bound (S.inter bt be)
  | Kir.For { var; from_; to_; body } ->
    let lo = ireg c (compile_exp c bound from_) in
    let hi = ireg c (compile_exp c bound to_) in
    let s = slot_for c var TInt in
    let _, steps, raises =
      in_block c (fun () -> compile_seq c (S.add var bound) body)
    in
    emit ~raises c (for_step s lo hi steps);
    bound
  | Kir.Syncthreads -> bound

and compile_seq c bound stmts = List.fold_left (compile_stmt c) bound stmts

let compile kernel ~grid ~block ~args =
  Obs.Span.with_span ~cat:"kcompile" kernel.Kir.name @@ fun () ->
  (* Argument binding and extent resolution share the interpreter's
     code, so a bad launch raises here exactly what [Keval.run] would
     raise (both happen before any thread executes). *)
  let scalars = Keval.bind_scalars kernel ~args in
  let dims = Keval.resolve_dims kernel ~scalars in
  let arr_slots = Hashtbl.create 8 in
  List.iteri (fun i (name, d) -> Hashtbl.add arr_slots name (i, d)) dims;
  let c =
    {
      cgrid = grid;
      cblock = block;
      scalars;
      arr_slots;
      slots = Hashtbl.create 16;
      iconsts = Hashtbl.create 16;
      fconsts = Hashtbl.create 16;
      n_i = r_tz + 1;
      n_f = 0;
      code = [];
      raising = false;
    }
  in
  match in_block c (fun () -> compile_seq c S.empty kernel.Kir.body) with
  | _, steps, _ ->
    let iregs = Array.make c.n_i 0 and fregs = Array.make c.n_f 0.0 in
    Hashtbl.iter (fun k r -> iregs.(r) <- k) c.iconsts;
    Hashtbl.iter (fun bits r -> fregs.(r) <- Int64.float_of_bits bits) c.fconsts;
    Ok
      {
        kname = kernel.Kir.name;
        grid;
        block;
        arrays = Array.of_list (List.map fst dims);
        iregs;
        fregs;
        body = seq steps;
      }
  | exception Fallback reason -> Error reason

(* --- Execution --------------------------------------------------------- *)

let make_env t ~access =
  let recs = Array.map access t.arrays in
  {
    ir = Array.copy t.iregs;
    fr = Array.copy t.fregs;
    srcs = Array.map (fun r -> r.loads) recs;
    dsts = Array.map (fun r -> r.stores) recs;
    masks = Array.map (fun r -> Option.value r.touched ~default:no_mask) recs;
  }

(* Fresh register files, shared arrays: what each extra domain
   needs. *)
let clone_env t env = { env with ir = Array.copy t.iregs; fr = Array.copy t.fregs }

let exec_block t env bz by bx =
  si env r_bz bz;
  si env r_by by;
  si env r_bx bx;
  let b = t.block in
  for tz = 0 to b.Dim3.z - 1 do
    si env r_tz tz;
    for ty = 0 to b.Dim3.y - 1 do
      si env r_ty ty;
      for tx = 0 to b.Dim3.x - 1 do
        si env r_tx tx;
        t.body env
      done
    done
  done

(* Run every block of the grid; returns the domains engaged (1 when
   the blocks ran sequentially on the caller). *)
let run_blocks ?pool t ~access =
  let gx = t.grid.Dim3.x and gy = t.grid.Dim3.y and gz = t.grid.Dim3.z in
  let nblocks = if gx <= 0 || gy <= 0 || gz <= 0 then 0 else gx * gy * gz in
  match pool with
  | Some pool when nblocks > 1 && Gpu_runtime.Dpool.size pool > 1 ->
    let base = make_env t ~access in
    let plane = gy * gx in
    Gpu_runtime.Dpool.parallel_for pool ~n:nblocks (fun lo hi ->
        (* Chunks are linearized in the same z, y, x-major order the
           sequential loops use; each chunk gets fresh register
           files. *)
        let env = clone_env t base in
        for i = lo to hi - 1 do
          let r = i mod plane in
          exec_block t env (i / plane) (r / gx) (r mod gx)
        done)
  | _ ->
    if nblocks > 0 then begin
      let env = make_env t ~access in
      for z = 0 to gz - 1 do
        for y = 0 to gy - 1 do
          for x = 0 to gx - 1 do
            exec_block t env z y x
          done
        done
      done
    end;
    1

let run ?pool t ~access = ignore (run_blocks ?pool t ~access : int)

let callbacks access =
  let memo = Hashtbl.create 8 in
  let find a =
    match Hashtbl.find_opt memo a with
    | Some r -> r
    | None ->
      let r = access a in
      Hashtbl.add memo a r;
      r
  in
  let load a off = (find a).loads.(off) in
  let store a off v =
    let r = find a in
    r.stores.(off) <- v;
    Option.iter (fun m -> m.(off) <- true) r.touched
  in
  (load, store)

(* --- The launch executor ----------------------------------------------- *)

(* Every engine launches kernels through one executor per run.  A
   compiled kernel is a pure function of (kernel, grid, block, scalar
   arguments) -- buffers are resolved per launch through [access] --
   so it is memoized under that key, failures included: a kernel
   outside the fragment pays its compile attempt once per shape. *)
type executor = {
  cache : (string * Dim3.t * Dim3.t * Keval.arg list, (t, string) result) Hashtbl.t;
  reg : Obs.Metrics.t;
  compiles : Obs.Metrics.counter;
  cache_hits : Obs.Metrics.counter;
  seq_launches : Obs.Metrics.counter;
  par_launches : Obs.Metrics.counter;
  interpreted : Obs.Metrics.counter;
  mutable max_domains : int;
}

let executor reg =
  let counter = Obs.Metrics.counter reg in
  Obs.Metrics.set reg "exec.max_domains" 1.0;
  {
    cache = Hashtbl.create 16;
    reg;
    compiles = counter "exec.compiles";
    cache_hits = counter "exec.cache_hits";
    seq_launches = counter "exec.seq_launches";
    par_launches = counter "exec.par_launches";
    interpreted = counter "exec.interpreted";
    max_domains = 1;
  }

let clear_cache ex = Hashtbl.reset ex.cache

let bump c = Obs.Metrics.add c 1.0

let launch ex ?(parallel = false) ?(interpret = false) kernel ~grid ~block
    ~args ~access =
  let fallback () =
    bump ex.interpreted;
    let load, store = callbacks access in
    Keval.run kernel ~grid ~block ~args ~load ~store
  in
  let compiled () =
    let key = (kernel.Kir.name, grid, block, args) in
    match Hashtbl.find_opt ex.cache key with
    | Some c ->
      bump ex.cache_hits;
      c
    | None ->
      let c = compile kernel ~grid ~block ~args in
      Hashtbl.replace ex.cache key c;
      bump ex.compiles;
      c
  in
  if interpret then fallback ()
  else
    match compiled () with
    | Error _ -> fallback ()
    | Ok t ->
      let pool = if parallel then Some (Gpu_runtime.Dpool.get ()) else None in
      let d = run_blocks ?pool t ~access in
      if d <= 1 then bump ex.seq_launches
      else begin
        bump ex.par_launches;
        if d > ex.max_domains then begin
          ex.max_domains <- d;
          Obs.Metrics.set ex.reg "exec.max_domains" (float_of_int d)
        end
      end

let publish_metrics ?(into = Obs.Metrics.default) reg = Obs.Metrics.merge ~into reg
