(* Launch-time compilation of kernel IR to OCaml closures.

   [Keval] interprets the tree per thread: boxed [value]s, per-thread
   [Hashtbl] locals, [List]-based subscript linearization.  That is
   the dominant cost of every functional run.  Here we partially
   evaluate a kernel against everything known at launch time — grid
   and block dimensions, scalar arguments, resolved array extents —
   and emit closures over a flat mutable environment:

   - locals live in slot-indexed [int array]/[float array]
     environments (booleans as 0/1 ints), assigned by a static typing
     pass over the body;
   - parameters and [gridDim]/[blockDim] are constants baked into the
     closures;
   - subscript linearization is unrolled per rank with the extents
     (hence strides) precomputed, keeping the interpreter's bounds
     checks and its exact diagnostics (shared via
     {!Keval.bounds_error});
   - expressions compile through separate int/float/bool compilers
     ([texp]), so the hot loop passes unboxed values between closures
     and allocates nothing.

   The IR is dynamically typed and the static pass is deliberately
   simple, so anything it cannot type (a local rebound at a different
   type, a use the analysis cannot prove bound, booleans in numeric
   position) falls back to the interpreter via [Error]: [Keval] stays
   the semantics oracle and the fallback is always bit-identical.

   Parallel execution: [run] can split the launched block range over a
   {!Gpu_runtime.Dpool}.  Each participating domain gets its own local
   environment; array loads/stores go straight to the shared backing
   arrays.  The *caller* is responsible for only passing a pool when
   the kernel's verdict proves distinct blocks never touch overlapping
   elements (a [Verify.Safe] verdict); under that verdict any block interleaving writes each element exactly once from
   one domain and reads only elements no other block writes, so the
   result is bit-identical to the sequential order.  [Atomic] compiles
   to a plain load-combine-store, which is NOT indivisible across
   domains — kernels whose conflicts are merely atomic-reducible must
   run their blocks sequentially within one address space (the engine
   gives each partition a private accumulation buffer instead). *)

type env = {
  mutable bx : int;
  mutable by : int;
  mutable bz : int;
  mutable tx : int;
  mutable ty : int;
  mutable tz : int;
  ienv : int array;
  fenv : float array;
  aload : (int -> float) array;
  astore : (int -> float -> unit) array;
}

type t = {
  kname : string;
  grid : Dim3.t;
  block : Dim3.t;
  arrays : string array;  (* array parameter names, slot-indexed *)
  n_ints : int;
  n_floats : int;
  body : env -> unit;
}

let name t = t.kname

(* Raised during compilation when the kernel leaves the statically
   typable fragment; surfaces as [Error reason] and the caller runs
   the interpreter instead. *)
exception Fallback of string

let fallback fmt = Printf.ksprintf (fun m -> raise (Fallback m)) fmt

type vtype = TInt | TFloat | TBool

let vtype_name = function TInt -> "int" | TFloat -> "float" | TBool -> "bool"

type texp =
  | EI of (env -> int)
  | EF of (env -> float)
  | EB of (env -> bool)

module S = Set.Make (String)

type sctx = {
  cgrid : Dim3.t;
  cblock : Dim3.t;
  scalars : (string, Keval.value) Hashtbl.t;
  slots : (string, vtype * int) Hashtbl.t;
  mutable nints : int;
  mutable nfloats : int;
  arr_slots : (string, int * int array) Hashtbl.t;  (* name -> slot, extents *)
}

let slot_for c name ty =
  match Hashtbl.find_opt c.slots name with
  | Some (ty', s) ->
    if ty' <> ty then
      fallback "local %s rebound at type %s (was %s)" name (vtype_name ty)
        (vtype_name ty');
    s
  | None ->
    let s =
      match ty with
      | TFloat ->
        let s = c.nfloats in
        c.nfloats <- s + 1;
        s
      | TInt | TBool ->
        let s = c.nints in
        c.nints <- s + 1;
        s
    in
    Hashtbl.add c.slots name (ty, s);
    s

(* Coercions mirror Keval.as_int/as_float/as_bool.  Boolean operands
   in numeric position raise in the interpreter, so they leave the
   compiled fragment. *)

let as_iexp = function
  | EI f -> f
  | EF f ->
    fun env ->
      let x = f env in
      let n = int_of_float x in
      if float_of_int n = x then n else invalid_arg "Keval: non-integer index"
  | EB _ -> fallback "boolean used as integer"

let as_fexp = function
  | EF f -> f
  | EI f -> fun env -> float_of_int (f env)
  | EB _ -> fallback "boolean used as float"

let as_bexp = function
  | EB f -> f
  | EI f -> fun env -> f env <> 0
  | EF _ -> fallback "float used as condition"

(* Type-specialized min/max, spelled exactly like the Stdlib
   polymorphic versions the interpreter uses so ties (e.g.
   [max 0.0 (-0.0)]) and NaNs resolve to the same bit patterns. *)
let imin (x : int) y = if x <= y then x else y
let imax (x : int) y = if x >= y then x else y
let fmin (x : float) y = if x <= y then x else y
let fmax (x : float) y = if x >= y then x else y

let rec compile_exp c bound (e : Kir.exp) : texp =
  match e with
  | Kir.Iconst n -> EI (fun _ -> n)
  | Kir.Fconst x -> EF (fun _ -> x)
  | Kir.Special s -> (
      match s with
      | Kir.Thread_idx Dim3.X -> EI (fun env -> env.tx)
      | Kir.Thread_idx Dim3.Y -> EI (fun env -> env.ty)
      | Kir.Thread_idx Dim3.Z -> EI (fun env -> env.tz)
      | Kir.Block_idx Dim3.X -> EI (fun env -> env.bx)
      | Kir.Block_idx Dim3.Y -> EI (fun env -> env.by)
      | Kir.Block_idx Dim3.Z -> EI (fun env -> env.bz)
      | Kir.Block_dim a ->
        let n = Dim3.get c.cblock a in
        EI (fun _ -> n)
      | Kir.Grid_dim a ->
        let n = Dim3.get c.cgrid a in
        EI (fun _ -> n))
  | Kir.Param n -> (
      match Hashtbl.find_opt c.scalars n with
      | Some (Keval.VInt v) -> EI (fun _ -> v)
      | Some (Keval.VFloat x) -> EF (fun _ -> x)
      | Some (Keval.VBool _) | None -> fallback "unbound parameter %s" n)
  | Kir.Var n -> (
      if not (S.mem n bound) then fallback "possibly-unbound local %s" n;
      match Hashtbl.find_opt c.slots n with
      | Some (TInt, s) -> EI (fun env -> Array.unsafe_get env.ienv s)
      | Some (TBool, s) -> EB (fun env -> Array.unsafe_get env.ienv s <> 0)
      | Some (TFloat, s) -> EF (fun env -> Array.unsafe_get env.fenv s)
      | None -> fallback "possibly-unbound local %s" n)
  | Kir.Load (a, idx) ->
    let s, off = compile_offset c bound a idx in
    EF (fun env -> (Array.unsafe_get env.aload s) (off env))
  | Kir.Unop (op, x) -> compile_unop c bound op x
  | Kir.Binop (op, x, y) -> compile_binop c bound op x y

(* Returns the array's slot and a closure computing the (bounds
   checked) linear offset.  Index expressions evaluate left to right,
   all before any bounds check, matching the interpreter. *)
and compile_offset c bound a idx : int * (env -> int) =
  let slot, dims =
    match Hashtbl.find_opt c.arr_slots a with
    | Some x -> x
    | None -> fallback "unknown array %s" a
  in
  let rank = Array.length dims in
  if List.length idx <> rank then begin
    (* Always fails at run time; keep the interpreter's lazy raise. *)
    let got = List.length idx in
    (slot, fun _ -> Keval.arity_error ~arr:a ~expected:rank ~got)
  end
  else begin
    let ixs =
      Array.of_list (List.map (fun e -> as_iexp (compile_exp c bound e)) idx)
    in
    let off =
      match dims with
      | [| d0 |] ->
        let i0 = ixs.(0) in
        fun env ->
          let v0 = i0 env in
          if v0 < 0 || v0 >= d0 then
            Keval.bounds_error ~arr:a ~dim:0 ~extent:d0 v0;
          v0
      | [| d0; d1 |] ->
        let i0 = ixs.(0) and i1 = ixs.(1) in
        fun env ->
          let v0 = i0 env in
          let v1 = i1 env in
          if v0 < 0 || v0 >= d0 then
            Keval.bounds_error ~arr:a ~dim:0 ~extent:d0 v0;
          if v1 < 0 || v1 >= d1 then
            Keval.bounds_error ~arr:a ~dim:1 ~extent:d1 v1;
          (v0 * d1) + v1
      | [| d0; d1; d2 |] ->
        let i0 = ixs.(0) and i1 = ixs.(1) and i2 = ixs.(2) in
        fun env ->
          let v0 = i0 env in
          let v1 = i1 env in
          let v2 = i2 env in
          if v0 < 0 || v0 >= d0 then
            Keval.bounds_error ~arr:a ~dim:0 ~extent:d0 v0;
          if v1 < 0 || v1 >= d1 then
            Keval.bounds_error ~arr:a ~dim:1 ~extent:d1 v1;
          if v2 < 0 || v2 >= d2 then
            Keval.bounds_error ~arr:a ~dim:2 ~extent:d2 v2;
          (((v0 * d1) + v1) * d2) + v2
      | _ ->
        fun env ->
          let vs = Array.make rank 0 in
          for i = 0 to rank - 1 do
            vs.(i) <- ixs.(i) env
          done;
          let acc = ref 0 in
          for i = 0 to rank - 1 do
            let v = vs.(i) in
            if v < 0 || v >= dims.(i) then
              Keval.bounds_error ~arr:a ~dim:i ~extent:dims.(i) v;
            acc := (!acc * dims.(i)) + v
          done;
          !acc
    in
    (slot, off)
  end

and compile_unop c bound op x =
  let tx = compile_exp c bound x in
  match (op, tx) with
  | Kir.Neg, EI f -> EI (fun env -> -f env)
  | Kir.Neg, EF f -> EF (fun env -> -.f env)
  | Kir.Neg, EB _ -> fallback "negating a boolean"
  | Kir.Sqrt, _ ->
    let f = as_fexp tx in
    EF (fun env -> sqrt (f env))
  | Kir.Rsqrt, _ ->
    let f = as_fexp tx in
    EF (fun env -> 1.0 /. sqrt (f env))
  | Kir.Abs, EI f -> EI (fun env -> abs (f env))
  | Kir.Abs, _ ->
    let f = as_fexp tx in
    EF (fun env -> Float.abs (f env))
  | Kir.Not, _ ->
    let f = as_bexp tx in
    EB (fun env -> not (f env))

and compile_binop c bound op x y =
  let a = compile_exp c bound x in
  let b = compile_exp c bound y in
  (* Arithmetic stays integer only when both operands are; otherwise
     both sides coerce to float, exactly as [Keval.eval_binop]. *)
  let arith fi ff =
    match (a, b) with
    | EI f, EI g -> EI (fun env -> fi (f env) (g env))
    | _ ->
      let f = as_fexp a and g = as_fexp b in
      EF (fun env -> ff (f env) (g env))
  in
  (* Comparisons always compare as floats in the interpreter. *)
  let cmp op =
    let f = as_fexp a and g = as_fexp b in
    EB (fun env -> op (f env) (g env))
  in
  match op with
  | Kir.Add -> arith ( + ) ( +. )
  | Kir.Sub -> arith ( - ) ( -. )
  | Kir.Mul -> arith ( * ) ( *. )
  | Kir.Div ->
    let f = as_fexp a and g = as_fexp b in
    EF (fun env -> f env /. g env)
  | Kir.Idiv ->
    let f = as_iexp a and g = as_iexp b in
    EI (fun env -> f env / g env)
  | Kir.Imod ->
    let f = as_iexp a and g = as_iexp b in
    EI (fun env -> f env mod g env)
  | Kir.Minb -> arith imin fmin
  | Kir.Maxb -> arith imax fmax
  | Kir.Lt -> cmp (fun (u : float) v -> u < v)
  | Kir.Le -> cmp (fun (u : float) v -> u <= v)
  | Kir.Gt -> cmp (fun (u : float) v -> u > v)
  | Kir.Ge -> cmp (fun (u : float) v -> u >= v)
  | Kir.Eq -> cmp (fun (u : float) v -> u = v)
  | Kir.Ne -> cmp (fun (u : float) v -> u <> v)
  | Kir.And ->
    (* No short circuit: the interpreter evaluates both operands. *)
    let f = as_bexp a and g = as_bexp b in
    EB
      (fun env ->
        let u = f env in
        let v = g env in
        u && v)
  | Kir.Or ->
    let f = as_bexp a and g = as_bexp b in
    EB
      (fun env ->
        let u = f env in
        let v = g env in
        u || v)

(* Statement compilation threads the set of locals provably bound at
   that program point (per thread, since every thread runs the whole
   body): a straight-line [Local]/[Assign] binds, an [If] binds the
   intersection of its branches, a [For] binds its counter only inside
   the body (the interpreter unbinds a previously-unbound counter on
   exit).  Slots persist across threads where the interpreter's
   hashtable is fresh, but a use never precedes a bind in the same
   thread, so stale slot values are unobservable. *)
let rec compile_stmt c bound (s : Kir.stmt) : (env -> unit) * S.t =
  match s with
  | Kir.Store (a, idx, e) ->
    let slot, off = compile_offset c bound a idx in
    let v = as_fexp (compile_exp c bound e) in
    ( (fun env ->
        let o = off env in
        let x = v env in
        (Array.unsafe_get env.astore slot) o x),
      bound )
  | Kir.Atomic (op, a, idx, e) ->
    let slot, off = compile_offset c bound a idx in
    let v = as_fexp (compile_exp c bound e) in
    let combine =
      match op with
      | Kir.AAdd -> ( +. )
      | Kir.AMin -> fmin
      | Kir.AMax -> fmax
    in
    ( (fun env ->
        let o = off env in
        let x = v env in
        let old = (Array.unsafe_get env.aload slot) o in
        (Array.unsafe_get env.astore slot) o (combine old x)),
      bound )
  | Kir.Local (n, e) | Kir.Assign (n, e) -> (
      let bound' = S.add n bound in
      match compile_exp c bound e with
      | EI f ->
        let s = slot_for c n TInt in
        ((fun env -> Array.unsafe_set env.ienv s (f env)), bound')
      | EF f ->
        let s = slot_for c n TFloat in
        ((fun env -> Array.unsafe_set env.fenv s (f env)), bound')
      | EB f ->
        let s = slot_for c n TBool in
        ((fun env -> Array.unsafe_set env.ienv s (if f env then 1 else 0)), bound'))
  | Kir.If (cexp, ts, es) ->
    let cnd = as_bexp (compile_exp c bound cexp) in
    let tf, bt = compile_seq c bound ts in
    let ef, be = compile_seq c bound es in
    ( (fun env -> if cnd env then tf env else ef env),
      S.union bound (S.inter bt be) )
  | Kir.For { var; from_; to_; body } ->
    let lo = as_iexp (compile_exp c bound from_) in
    let hi = as_iexp (compile_exp c bound to_) in
    let s = slot_for c var TInt in
    let bf, _ = compile_seq c (S.add var bound) body in
    ( (fun env ->
        let l = lo env in
        let h = hi env in
        let saved = Array.unsafe_get env.ienv s in
        for iv = l to h - 1 do
          Array.unsafe_set env.ienv s iv;
          bf env
        done;
        Array.unsafe_set env.ienv s saved),
      bound )
  | Kir.Syncthreads -> ((fun _ -> ()), bound)

and compile_seq c bound = function
  | [] -> ((fun _ -> ()), bound)
  | [ s ] -> compile_stmt c bound s
  | s :: rest ->
    let f, b1 = compile_stmt c bound s in
    let g, b2 = compile_seq c b1 rest in
    ((fun env -> f env; g env), b2)

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
      slots = Hashtbl.create 16;
      nints = 0;
      nfloats = 0;
      arr_slots;
    }
  in
  match compile_seq c S.empty kernel.Kir.body with
  | body, _ ->
    Ok
      {
        kname = kernel.Kir.name;
        grid;
        block;
        arrays = Array.of_list (List.map fst dims);
        n_ints = c.nints;
        n_floats = c.nfloats;
        body;
      }
  | exception Fallback reason -> Error reason

(* --- Execution --------------------------------------------------------- *)

let make_env t ~load ~store =
  let n = Array.length t.arrays in
  {
    bx = 0;
    by = 0;
    bz = 0;
    tx = 0;
    ty = 0;
    tz = 0;
    ienv = Array.make (max 1 t.n_ints) 0;
    fenv = Array.make (max 1 t.n_floats) 0.0;
    aload = Array.init n (fun i -> load t.arrays.(i));
    astore = Array.init n (fun i -> store t.arrays.(i));
  }

(* Fresh local slots, shared array accessors: what each extra domain
   needs. *)
let clone_env t env =
  {
    env with
    ienv = Array.make (max 1 t.n_ints) 0;
    fenv = Array.make (max 1 t.n_floats) 0.0;
  }

let exec_block t env bz by bx =
  env.bz <- bz;
  env.by <- by;
  env.bx <- bx;
  let b = t.block in
  for tz = 0 to b.Dim3.z - 1 do
    env.tz <- tz;
    for ty = 0 to b.Dim3.y - 1 do
      env.ty <- ty;
      for tx = 0 to b.Dim3.x - 1 do
        env.tx <- tx;
        t.body env
      done
    done
  done

let run_range t env (lo : Dim3.t) (hi : Dim3.t) =
  for z = lo.Dim3.z to hi.Dim3.z do
    for y = lo.Dim3.y to hi.Dim3.y do
      for x = lo.Dim3.x to hi.Dim3.x do
        exec_block t env z y x
      done
    done
  done

let run ?pool ?max_domains ?block_range t ~load ~store =
  let lo, hi =
    match block_range with
    | Some r -> r
    | None ->
      ( { Dim3.x = 0; y = 0; z = 0 },
        {
          Dim3.x = t.grid.Dim3.x - 1;
          y = t.grid.Dim3.y - 1;
          z = t.grid.Dim3.z - 1;
        } )
  in
  let ex = hi.Dim3.x - lo.Dim3.x + 1 in
  let ey = hi.Dim3.y - lo.Dim3.y + 1 in
  let ez = hi.Dim3.z - lo.Dim3.z + 1 in
  if ex <= 0 || ey <= 0 || ez <= 0 then `Seq
  else
    let nblocks = ex * ey * ez in
    let cap = match max_domains with Some d -> d | None -> max_int in
    match pool with
    | Some pool when nblocks > 1 && cap > 1 && Gpu_runtime.Dpool.size pool > 1 ->
      let base = make_env t ~load ~store in
      let plane = ey * ex in
      let used =
        Gpu_runtime.Dpool.parallel_for ~max_domains:cap pool ~n:nblocks
          (fun clo chi ->
            (* Chunks are linearized in the same z, y, x-major order
               the sequential loops use; each chunk gets fresh local
               slots. *)
            let env = clone_env t base in
            for i = clo to chi - 1 do
              let z = lo.Dim3.z + (i / plane) in
              let r = i mod plane in
              let y = lo.Dim3.y + (r / ex) in
              let x = lo.Dim3.x + (r mod ex) in
              exec_block t env z y x
            done)
      in
      if used <= 1 then `Seq else `Par used
    | _ ->
      run_range t (make_env t ~load ~store) lo hi;
      `Seq

(* --- Executor counters ------------------------------------------------- *)

type stats = {
  mutable st_compiles : int;
  mutable st_cache_hits : int;
  mutable st_interpreted : int;
  mutable st_seq : int;
  mutable st_par : int;
  mutable st_domains : int;
}

let new_stats () =
  {
    st_compiles = 0;
    st_cache_hits = 0;
    st_interpreted = 0;
    st_seq = 0;
    st_par = 0;
    st_domains = 1;
  }

let record_path st = function
  | `Seq -> st.st_seq <- st.st_seq + 1
  | `Par d ->
    st.st_par <- st.st_par + 1;
    if d > st.st_domains then st.st_domains <- d

let publish_metrics ?(into = Obs.Metrics.default) s =
  let incr n v = Obs.Metrics.incr into ~by:v n in
  incr "exec.compiles" s.st_compiles;
  incr "exec.cache_hits" s.st_cache_hits;
  incr "exec.interpreted" s.st_interpreted;
  incr "exec.seq_launches" s.st_seq;
  incr "exec.par_launches" s.st_par;
  Obs.Metrics.set into "exec.max_domains" (float_of_int s.st_domains)
