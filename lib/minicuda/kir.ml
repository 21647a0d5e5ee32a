(* The kernel intermediate representation.

   This deep embedding plays the role LLVM IR plays for gpucc: kernels
   written in it can be executed directly (bit-exact functional runs,
   {!Keval}), statically analyzed (polyhedral access extraction in
   lib/mekong), cost-estimated ({!Costmodel}) and transformed (the
   kernel-partitioning rewrite of paper §7).

   Expressions are typed over integers, floats and booleans with
   {!Keval}'s promotions, and every kernel that enters the pipeline
   passes {!check}; array subscripts must evaluate to integers and,
   for the polyhedral analysis to succeed, must be affine in the grid
   coordinates, loop counters and scalar parameters. *)

type special =
  | Thread_idx of Dim3.axis
  | Block_idx of Dim3.axis
  | Block_dim of Dim3.axis
  | Grid_dim of Dim3.axis

type unop = Neg | Sqrt | Abs | Rsqrt | Not

type binop =
  | Add | Sub | Mul | Div (* arithmetic; Div is float division *)
  | Idiv | Imod (* integer-only *)
  | Minb | Maxb
  | Lt | Le | Gt | Ge | Eq | Ne (* comparisons, yield booleans *)
  | And | Or

type exp =
  | Iconst of int
  | Fconst of float
  | Special of special
  | Param of string (* scalar kernel argument (int or float at runtime) *)
  | Var of string (* loop counter or local variable *)
  | Load of string * exp list (* array argument, one index per dimension *)
  | Unop of unop * exp
  | Binop of binop * exp * exp

(* The commutative-associative read-modify-write operators.  Their
   device semantics (one indivisible load-combine-store per call) is
   what makes cross-block conflicts on the same element reducible
   instead of racy: any interleaving yields a result obtainable by
   SOME combining order, and the engines pin one deterministic order. *)
type atomic_op = AAdd | AMin | AMax

type stmt =
  | Store of string * exp list * exp
  | Atomic of atomic_op * string * exp list * exp
    (* atomicAdd(&a[i]..., e); combines the old element with e *)
  | Local of string * exp (* declare-and-initialize a mutable local *)
  | Assign of string * exp (* update a local *)
  | If of exp * stmt list * stmt list
  | For of { var : string; from_ : exp; to_ : exp; body : stmt list }
    (* for (var = from_; var < to_; var++) *)
  | Syncthreads (* barrier within a thread block; a no-op for analysis *)

type dim = Dim_const of int | Dim_param of string

type param =
  | Scalar of string (* integer scalar argument *)
  | Fscalar of string (* float scalar argument *)
  | Array of { name : string; dims : dim array }

type t = { name : string; params : param list; body : stmt list }

let kernel ~name ~params body = { name; params; body }

let scalar_params k =
  List.filter_map (function Scalar n -> Some n | _ -> None) k.params

let array_params k =
  List.filter_map
    (function Array { name; dims } -> Some (name, dims) | _ -> None)
    k.params

(* Structural equality, except that float constants compare by bit
   pattern: [0.0] and [-0.0] are different kernels, a NaN equals
   itself. *)
let float_eq x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec equal_exp a b =
  match (a, b) with
  | Fconst x, Fconst y -> float_eq x y
  | Load (n, l), Load (n', l') -> String.equal n n' && List.equal equal_exp l l'
  | Unop (o, e), Unop (o', e') -> o = o' && equal_exp e e'
  | Binop (o, x, y), Binop (o', x', y') -> o = o' && equal_exp x x' && equal_exp y y'
  | (Iconst _ | Special _ | Param _ | Var _), _ -> a = b
  | (Fconst _ | Load _ | Unop _ | Binop _), _ -> false

let rec equal_stmt a b =
  let subs = List.equal equal_exp and body = List.equal equal_stmt in
  match (a, b) with
  | Store (n, l, e), Store (n', l', e') -> String.equal n n' && subs l l' && equal_exp e e'
  | Atomic (o, n, l, e), Atomic (o', n', l', e') ->
    o = o' && String.equal n n' && subs l l' && equal_exp e e'
  | Local (n, e), Local (n', e') | Assign (n, e), Assign (n', e') ->
    String.equal n n' && equal_exp e e'
  | If (c, t, e), If (c', t', e') -> equal_exp c c' && body t t' && body e e'
  | For f, For f' ->
    String.equal f.var f'.var && equal_exp f.from_ f'.from_ && equal_exp f.to_ f'.to_
    && body f.body f'.body
  | Syncthreads, Syncthreads -> true
  | (Store _ | Atomic _ | Local _ | Assign _ | If _ | For _ | Syncthreads), _ -> false

let equal a b =
  a == b
  || String.equal a.name b.name && a.params = b.params && List.equal equal_stmt a.body b.body

(* --- Convenience constructors (the kernel-building eDSL) -------------- *)

let i n = Iconst n
let f x = Fconst x
let p n = Param n
let v n = Var n
let tid a = Special (Thread_idx a)
let bid a = Special (Block_idx a)
let bdim a = Special (Block_dim a)
let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( > ) a b = Binop (Gt, a, b)
let ( >= ) a b = Binop (Ge, a, b)
let ( = ) a b = Binop (Eq, a, b)
let ( <> ) a b = Binop (Ne, a, b)
let ( && ) a b = Binop (And, a, b)
let ( || ) a b = Binop (Or, a, b)
let load name idx = Load (name, idx)
let store name idx e = Store (name, idx, e)
let atomic_add name idx e = Atomic (AAdd, name, idx, e)
let rsqrt e = Unop (Rsqrt, e)

(* Global thread position along an axis:
   threadIdx.a + blockIdx.a * blockDim.a  (paper Eq. 5). *)
let global_id a = Binop (Add, tid a, Binop (Mul, bid a, bdim a))

(* --- Generic traversal / transformation -------------------------------- *)

(* Bottom-up expression rewriting: [f] is applied to every node after
   its children have been rewritten. *)
let rec map_exp f e =
  let e' =
    match e with
    | Iconst _ | Fconst _ | Special _ | Param _ | Var _ -> e
    | Load (a, idx) -> Load (a, List.map (map_exp f) idx)
    | Unop (op, x) -> Unop (op, map_exp f x)
    | Binop (op, x, y) -> Binop (op, map_exp f x, map_exp f y)
  in
  f e'

let rec map_stmt f s =
  match s with
  | Store (a, idx, e) -> Store (a, List.map (map_exp f) idx, map_exp f e)
  | Atomic (op, a, idx, e) ->
    Atomic (op, a, List.map (map_exp f) idx, map_exp f e)
  | Local (n, e) -> Local (n, map_exp f e)
  | Assign (n, e) -> Assign (n, map_exp f e)
  | If (c, t, e) ->
    If (map_exp f c, List.map (map_stmt f) t, List.map (map_stmt f) e)
  | For { var; from_; to_; body } ->
    For
      { var; from_ = map_exp f from_; to_ = map_exp f to_;
        body = List.map (map_stmt f) body }
  | Syncthreads -> Syncthreads

let map_kernel f k = { k with body = List.map (map_stmt f) k.body }

(* --- Pretty printing ---------------------------------------------------- *)

let special_name = function
  | Thread_idx a -> "threadIdx." ^ Dim3.axis_name a
  | Block_idx a -> "blockIdx." ^ Dim3.axis_name a
  | Block_dim a -> "blockDim." ^ Dim3.axis_name a
  | Grid_dim a -> "gridDim." ^ Dim3.axis_name a

let unop_name = function
  | Neg -> "-" | Sqrt -> "sqrtf" | Abs -> "fabsf" | Rsqrt -> "rsqrtf" | Not -> "!"

let atomic_name = function
  | AAdd -> "atomicAdd" | AMin -> "atomicMin" | AMax -> "atomicMax"

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Idiv -> "/" | Imod -> "%"
  | Minb -> "min" | Maxb -> "max"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | And -> "&&" | Or -> "||"

(* The %g conversion Printf itself calls, without its format
   interpreter: rendering runs in every compile's frontend pass. *)
external format_float : string -> float -> string = "caml_format_float"

(* %g first, so constants it reads back exactly print as they always
   did; %.17g reads back for every finite float.  Negative constants
   keep their '-' and parse back as unary minus; they and non-finite
   ones are not round-tripped. *)
let rec first_exact x = function
  | [] -> format_float "%.17g" x
  | fmt :: rest ->
    let s = format_float fmt x in
    if float_eq (float_of_string s) x then s else first_exact x rest

let float_literal x = first_exact x [ "%g"; "%.15g"; "%.16g" ] ^ "f"

let rec pp_exp fmt e =
  let open Format in
  match e with
  | Iconst n -> fprintf fmt "%d" n
  | Fconst x -> pp_print_string fmt (float_literal x)
  | Special s -> fprintf fmt "%s" (special_name s)
  | Param n | Var n -> fprintf fmt "%s" n
  | Load (a, idx) ->
    fprintf fmt "%s%a" a
      (pp_print_list ~pp_sep:(fun _ () -> ()) (fun fmt i ->
           fprintf fmt "[%a]" pp_exp i))
      idx
  | Unop (Neg, x) -> fprintf fmt "(-%a)" pp_exp x
  | Unop (Not, x) -> fprintf fmt "(!%a)" pp_exp x
  | Unop (op, x) -> fprintf fmt "%s(%a)" (unop_name op) pp_exp x
  | Binop ((Minb | Maxb) as op, x, y) ->
    fprintf fmt "%s(%a, %a)" (binop_name op) pp_exp x pp_exp y
  | Binop (op, x, y) ->
    fprintf fmt "(%a %s %a)" pp_exp x (binop_name op) pp_exp y

let rec pp_stmt ~indent fmt s =
  let open Format in
  let pad = String.make indent ' ' in
  match s with
  | Store (a, idx, e) ->
    fprintf fmt "%s%s%s = %a;\n" pad a
      (String.concat ""
         (List.map (fun i -> asprintf "[%a]" pp_exp i) idx))
      pp_exp e
  | Atomic (op, a, idx, e) ->
    fprintf fmt "%s%s(&%s%s, %a);\n" pad (atomic_name op) a
      (String.concat ""
         (List.map (fun i -> asprintf "[%a]" pp_exp i) idx))
      pp_exp e
  | Local (n, e) -> fprintf fmt "%sauto %s = %a;\n" pad n pp_exp e
  | Assign (n, e) -> fprintf fmt "%s%s = %a;\n" pad n pp_exp e
  | If (c, t, []) ->
    fprintf fmt "%sif (%a) {\n" pad pp_exp c;
    List.iter (pp_stmt ~indent:Stdlib.(indent + 2) fmt) t;
    fprintf fmt "%s}\n" pad
  | If (c, t, e) ->
    fprintf fmt "%sif (%a) {\n" pad pp_exp c;
    List.iter (pp_stmt ~indent:Stdlib.(indent + 2) fmt) t;
    fprintf fmt "%s} else {\n" pad;
    List.iter (pp_stmt ~indent:Stdlib.(indent + 2) fmt) e;
    fprintf fmt "%s}\n" pad
  | For { var; from_; to_; body } ->
    fprintf fmt "%sfor (int %s = %a; %s < %a; %s++) {\n" pad var pp_exp from_
      var pp_exp to_ var;
    List.iter (pp_stmt ~indent:Stdlib.(indent + 2) fmt) body;
    fprintf fmt "%s}\n" pad
  | Syncthreads -> fprintf fmt "%s__syncthreads();\n" pad

let pp fmt k =
  let open Format in
  let pp_dim fmt = function
    | Dim_const n -> fprintf fmt "[%d]" n
    | Dim_param p -> fprintf fmt "[%s]" p
  in
  let pp_param fmt = function
    | Scalar n -> fprintf fmt "int %s" n
    | Fscalar n -> fprintf fmt "float %s" n
    | Array { name; dims } ->
      (* extents as a trailing comment so the textual pipeline can
         recover the array shapes *)
      fprintf fmt "float *%s /* %a */" name
        (fun fmt -> Array.iter (pp_dim fmt))
        dims
  in
  fprintf fmt "__global__ void %s(%a) {\n" k.name
    (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt ", ") pp_param)
    k.params;
  List.iter (pp_stmt ~indent:2 fmt) k.body;
  fprintf fmt "}\n"

let to_string k = Format.asprintf "%a" pp k

(* --- Scope and type check ------------------------------------------------ *)

(* One walk over the kernel.  [bound] is the set of locals bound on
   every path to the current point: a [Local] or [Assign] adds its name,
   an [If] keeps what both branches bind, and a [For] counter and its
   body's bindings do not escape the loop.  [types] is kernel-wide: a
   name keeps the type of its first binding, a loop counter's being
   [int].  Expression types follow Keval's promotions: integer
   arithmetic stays integer, a float operand makes it float, [Div],
   [sqrtf], [rsqrtf] and loads are float, comparisons and logic are
   bool.  A bool is never a number and a float never a condition; a
   float still reads as an index, which Keval checks is integral when
   it runs. *)

type ty = T_int | T_float | T_bool

module Names = Set.Make (String)

exception Ill_typed of string

let check k =
  let open Stdlib in
  let ill fmt = Printf.ksprintf (fun m -> raise (Ill_typed m)) fmt in
  let ty_name = function T_int -> "int" | T_float -> "float" | T_bool -> "bool" in
  let rec scalar n = function
    | Scalar m :: _ when String.equal m n -> T_int
    | Fscalar m :: _ when String.equal m n -> T_float
    | _ :: ps -> scalar n ps
    | [] -> ill "unknown scalar parameter %s" n
  in
  let rec array a = function
    | Array { name; _ } :: _ when String.equal name a -> ()
    | _ :: ps -> array a ps
    | [] -> ill "unknown array %s" a
  in
  let rec find n = function
    | (m, t) :: _ when String.equal m n -> Some t
    | _ :: l -> find n l
    | [] -> None
  in
  (* Diagnostics name the context as [what ^ name], built only when
     raised. *)
  let number what name t = if t = T_bool then ill "bool used as a number in %s%s" what name in
  let condition what t = if t = T_float then ill "float used as a condition in %s" what in
  let types = ref [] in
  let rec exp bound e =
    match e with
    | Iconst _ | Special _ -> T_int
    | Fconst _ -> T_float
    | Param n -> scalar n k.params
    | Var n -> (
        match find n !types with
        | Some t when Names.mem n bound -> t
        | Some _ -> ill "local %s may be unbound here" n
        | None -> ill "undeclared identifier %s" n)
    | Load (a, idx) ->
      array a k.params;
      subscripts bound a idx;
      T_float
    | Unop (op, x) -> (
        let t = exp bound x in
        match op with
        | Not -> condition "!" t; T_bool
        | Neg | Abs -> number (unop_name op) "" t; t
        | Sqrt | Rsqrt -> number (unop_name op) "" t; T_float)
    | Binop (op, x, y) -> (
        let tx = exp bound x and ty = exp bound y in
        match op with
        | And | Or -> condition (binop_name op) tx; condition (binop_name op) ty; T_bool
        | _ -> (
            number (binop_name op) "" tx;
            number (binop_name op) "" ty;
            match op with
            | Add | Sub | Mul | Minb | Maxb -> if tx = T_int && ty = T_int then T_int else T_float
            | Div -> T_float
            | Idiv | Imod -> T_int
            | Lt | Le | Gt | Ge | Eq | Ne | And | Or -> T_bool))
  and subscripts bound a idx =
    List.iter (fun i -> number "a subscript of " a (exp bound i)) idx
  in
  let bind n t =
    match find n !types with
    | Some t' when t' <> t -> ill "local %s rebound at type %s (was %s)" n (ty_name t) (ty_name t')
    | Some _ -> ()
    | None -> types := (n, t) :: !types
  in
  let rec stmt bound s =
    match s with
    | Store (a, idx, e) | Atomic (_, a, idx, e) ->
      array a k.params;
      subscripts bound a idx;
      number "a store to " a (exp bound e);
      bound
    | Local (n, e) | Assign (n, e) ->
      bind n (exp bound e);
      Names.add n bound
    | If (c, t, e) ->
      condition "an if" (exp bound c);
      let bt = stmts bound t and be = stmts bound e in
      (* both contain [bound] *)
      if bt == bound || be == bound then bound else Names.inter bt be
    | For { var; from_; to_; body } ->
      number "the bounds of loop " var (exp bound from_);
      number "the bounds of loop " var (exp bound to_);
      bind var T_int;
      ignore (stmts (Names.add var bound) body : Names.t);
      bound
    | Syncthreads -> bound
  and stmts bound l = List.fold_left stmt bound l in
  match stmts Names.empty k.body with
  | _ -> Ok ()
  | exception Ill_typed m -> Error m
