(* Direct interpreter for the kernel IR: executes every thread of a
   grid (or a sub-range of its blocks) sequentially.  Used for the
   bit-exact functional runs that validate the partitioning compiler,
   so it favors obvious correctness over speed. *)

type value = VInt of int | VFloat of float | VBool of bool

let as_int = function
  | VInt n -> n
  | VFloat f ->
    (* Integer contexts accept exact float values (scalar args are
       dynamically typed). *)
    let n = int_of_float f in
    if float_of_int n = f then n else invalid_arg "Keval: non-integer index"
  | VBool _ -> invalid_arg "Keval: boolean used as integer"

let as_float = function
  | VFloat f -> f
  | VInt n -> float_of_int n
  | VBool _ -> invalid_arg "Keval: boolean used as float"

let as_bool = function
  | VBool b -> b
  | VInt n -> n <> 0
  | VFloat _ -> invalid_arg "Keval: float used as condition"

(* Launch-time argument values for the kernel parameters. *)
type arg = AInt of int | AFloat of float

(* Diagnostics shared with the compiled executor (Kcompile), so both
   engines fail with byte-identical messages. *)
let arity_error ~arr ~expected ~got =
  invalid_arg
    (Printf.sprintf
       "Keval: subscript arity mismatch: array %s has %d dimension(s), got %d \
        subscript(s)"
       arr expected got)

let bounds_error ~arr ~dim ~extent v =
  invalid_arg
    (Printf.sprintf "Keval: index %d out of bounds [0,%d) in dim %d of array %s"
       v extent dim arr)

(* One global-memory access, as seen by the [trace] hook.  The race
   sanitizer and the witness validator both replay kernels through the
   interpreter and watch this stream. *)
type trace_event = {
  te_kind : [ `Load | `Store | `Atomic of Kir.atomic_op ];
  te_arr : string;
  te_off : int;  (* linear element offset *)
  te_block : Dim3.t;
  te_thread : Dim3.t;
}

type ctx = {
  kernel : Kir.t;
  grid : Dim3.t;
  block : Dim3.t;
  scalars : (string, value) Hashtbl.t;
  (* Array access callbacks receive the array parameter name and a
     linear element offset. *)
  load : string -> int -> float;
  store : string -> int -> float -> unit;
  trace : (trace_event -> unit) option;
  array_dims : (string, int array) Hashtbl.t;
}

let bind_scalars kernel ~args =
  let scalars = Hashtbl.create 8 in
  let rec bind params args =
    match (params, args) with
    | [], [] -> ()
    | Kir.Scalar n :: ps, AInt v :: as_ -> Hashtbl.replace scalars n (VInt v); bind ps as_
    | Kir.Scalar n :: ps, AFloat v :: as_ -> Hashtbl.replace scalars n (VFloat v); bind ps as_
    | Kir.Fscalar n :: ps, AFloat v :: as_ -> Hashtbl.replace scalars n (VFloat v); bind ps as_
    | Kir.Fscalar n :: ps, AInt v :: as_ ->
      Hashtbl.replace scalars n (VFloat (float_of_int v)); bind ps as_
    | Kir.Array _ :: ps, as_ -> bind ps as_ (* arrays are bound via load/store *)
    | _ -> invalid_arg "Keval: scalar argument count mismatch"
  in
  (* [args] supplies values only for the scalar parameters, in order. *)
  bind kernel.Kir.params args;
  scalars

let resolve_dims kernel ~scalars =
  let eval_dim = function
    | Kir.Dim_const n -> n
    | Kir.Dim_param n -> (
        match Hashtbl.find_opt scalars n with
        | Some v -> as_int v
        | None ->
          invalid_arg ("Keval: array dimension parameter " ^ n ^ " unbound"))
  in
  List.filter_map
    (function
      | Kir.Array { name; dims } -> Some (name, Array.map eval_dim dims)
      | Kir.Scalar _ | Kir.Fscalar _ -> None)
    kernel.Kir.params

let make_ctx ?trace kernel ~grid ~block ~args ~load ~store =
  let scalars = bind_scalars kernel ~args in
  let ctx =
    { kernel; grid; block; scalars; load; store; trace;
      array_dims = Hashtbl.create 8 }
  in
  List.iter
    (fun (name, dims) -> Hashtbl.replace ctx.array_dims name dims)
    (resolve_dims kernel ~scalars);
  ctx

(* Environment of one executing thread. *)
type thread_env = {
  ctx : ctx;
  block_idx : Dim3.t;
  thread_idx : Dim3.t;
  locals : (string, value) Hashtbl.t;
}

let trace env te_kind te_arr te_off =
  match env.ctx.trace with
  | None -> ()
  | Some f ->
    f { te_kind; te_arr; te_off;
        te_block = env.block_idx; te_thread = env.thread_idx }

let linear_index ~arr dims idx =
  let n = Array.length dims in
  if List.length idx <> n then
    arity_error ~arr ~expected:n ~got:(List.length idx);
  let acc = ref 0 in
  List.iteri
    (fun i v ->
       if v < 0 || v >= dims.(i) then bounds_error ~arr ~dim:i ~extent:dims.(i) v;
       acc := (!acc * dims.(i)) + v)
    idx;
  !acc

let rec eval (env : thread_env) (e : Kir.exp) : value =
  match e with
  | Kir.Iconst n -> VInt n
  | Kir.Fconst x -> VFloat x
  | Kir.Special s -> VInt (eval_special env s)
  | Kir.Param n -> (
      match Hashtbl.find_opt env.ctx.scalars n with
      | Some v -> v
      | None -> invalid_arg ("Keval: unbound parameter " ^ n))
  | Kir.Var n -> (
      match Hashtbl.find_opt env.locals n with
      | Some v -> v
      | None -> invalid_arg ("Keval: unbound local " ^ n))
  | Kir.Load (a, idx) ->
    let dims =
      match Hashtbl.find_opt env.ctx.array_dims a with
      | Some d -> d
      | None -> invalid_arg ("Keval: unknown array " ^ a)
    in
    let off =
      linear_index ~arr:a dims (List.map (fun i -> as_int (eval env i)) idx)
    in
    trace env `Load a off;
    VFloat (env.ctx.load a off)
  | Kir.Unop (op, x) -> eval_unop op (eval env x)
  | Kir.Binop (op, x, y) ->
    (* Right operand first.  The compiled executor follows the same
       order, so both engines report the same failing access. *)
    let b = eval env y in
    let a = eval env x in
    eval_binop op a b

and eval_special env s =
  let open Kir in
  match s with
  | Thread_idx a -> Dim3.get env.thread_idx a
  | Block_idx a -> Dim3.get env.block_idx a
  | Block_dim a -> Dim3.get env.ctx.block a
  | Grid_dim a -> Dim3.get env.ctx.grid a

and eval_unop op value =
  match (op, value) with
  | Kir.Neg, VInt n -> VInt (-n)
  | Kir.Neg, VFloat x -> VFloat (-.x)
  | Kir.Neg, VBool _ -> invalid_arg "Keval: negating a boolean"
  | Kir.Sqrt, x -> VFloat (sqrt (as_float x))
  | Kir.Rsqrt, x -> VFloat (1.0 /. sqrt (as_float x))
  | Kir.Abs, VInt n -> VInt (abs n)
  | Kir.Abs, x -> VFloat (Float.abs (as_float x))
  | Kir.Not, x -> VBool (not (as_bool x))

and eval_binop op a b =
  let arith fi ff =
    match (a, b) with
    | VInt x, VInt y -> VInt (fi x y)
    | _ -> VFloat (ff (as_float a) (as_float b))
  in
  match op with
  | Kir.Add -> arith ( + ) ( +. )
  | Kir.Sub -> arith ( - ) ( -. )
  | Kir.Mul -> arith ( * ) ( *. )
  | Kir.Div -> VFloat (as_float a /. as_float b)
  | Kir.Idiv -> VInt (as_int a / as_int b)
  | Kir.Imod -> VInt (as_int a mod as_int b)
  | Kir.Minb -> arith min min
  | Kir.Maxb -> arith max max
  | Kir.Lt -> VBool (as_float a < as_float b)
  | Kir.Le -> VBool (as_float a <= as_float b)
  | Kir.Gt -> VBool (as_float a > as_float b)
  | Kir.Ge -> VBool (as_float a >= as_float b)
  | Kir.Eq -> VBool (as_float a = as_float b)
  | Kir.Ne -> VBool (as_float a <> as_float b)
  | Kir.And -> VBool (as_bool a && as_bool b)
  | Kir.Or -> VBool (as_bool a || as_bool b)

let rec exec_stmt env (s : Kir.stmt) =
  match s with
  | Kir.Store (a, idx, e) ->
    let dims =
      match Hashtbl.find_opt env.ctx.array_dims a with
      | Some d -> d
      | None -> invalid_arg ("Keval: unknown array " ^ a)
    in
    let off =
      linear_index ~arr:a dims (List.map (fun i -> as_int (eval env i)) idx)
    in
    trace env `Store a off;
    env.ctx.store a off (as_float (eval env e))
  | Kir.Atomic (op, a, idx, e) ->
    let dims =
      match Hashtbl.find_opt env.ctx.array_dims a with
      | Some d -> d
      | None -> invalid_arg ("Keval: unknown array " ^ a)
    in
    let off =
      linear_index ~arr:a dims (List.map (fun i -> as_int (eval env i)) idx)
    in
    (* Threads run sequentially, so load-combine-store is indivisible
       by construction; ties follow Stdlib min/max like Minb/Maxb. *)
    trace env (`Atomic op) a off;
    let old = env.ctx.load a off in
    let v = as_float (eval env e) in
    let combined =
      match op with
      | Kir.AAdd -> old +. v
      | Kir.AMin -> Stdlib.min old v
      | Kir.AMax -> Stdlib.max old v
    in
    env.ctx.store a off combined
  | Kir.Local (n, e) | Kir.Assign (n, e) ->
    Hashtbl.replace env.locals n (eval env e)
  | Kir.If (c, t, e) ->
    if as_bool (eval env c) then List.iter (exec_stmt env) t
    else List.iter (exec_stmt env) e
  | Kir.For { var; from_; to_; body } ->
    let lo = as_int (eval env from_) in
    let hi = as_int (eval env to_) in
    let saved = Hashtbl.find_opt env.locals var in
    for iv = lo to Stdlib.( - ) hi 1 do
      Hashtbl.replace env.locals var (VInt iv);
      List.iter (exec_stmt env) body
    done;
    (match saved with
     | Some v -> Hashtbl.replace env.locals var v
     | None -> Hashtbl.remove env.locals var)
  | Kir.Syncthreads ->
    (* Threads run sequentially here, so the barrier is a no-op.  This
       restricts the IR to kernels without cross-thread shared-memory
       dataflow, which is also what the paper's analysis covers. *)
    ()

(* Execute one thread block. *)
let exec_block ctx block_idx =
  Dim3.iter ctx.block (fun thread_idx ->
      let env = { ctx; block_idx; thread_idx; locals = Hashtbl.create 8 } in
      List.iter (exec_stmt env) ctx.kernel.Kir.body)

(* Run a kernel over its full grid, or over the blocks in
   [block_range] = inclusive (lo, hi) coordinates per axis. *)
let run ?block_range ?trace kernel ~grid ~block ~args ~load ~store =
  let ctx = make_ctx ?trace kernel ~grid ~block ~args ~load ~store in
  match block_range with
  | None -> Dim3.iter grid (fun b -> exec_block ctx b)
  | Some (lo, hi) ->
    for z = lo.Dim3.z to hi.Dim3.z do
      for y = lo.Dim3.y to hi.Dim3.y do
        for x = lo.Dim3.x to hi.Dim3.x do
          exec_block ctx { Dim3.x; y; z }
        done
      done
    done
