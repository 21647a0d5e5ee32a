(* The kernel intermediate representation.

   This deep embedding plays the role LLVM IR plays for gpucc: kernels
   written in it can be executed directly (bit-exact functional runs,
   {!Keval}), statically analyzed (polyhedral access extraction in
   lib/mekong), cost-estimated ({!Costmodel}) and transformed (the
   kernel-partitioning rewrite of paper §7).

   Expressions are dynamically typed over integers, floats and
   booleans; array subscripts must evaluate to integers and, for the
   polyhedral analysis to succeed, must be affine in the grid
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

(* --- Convenience constructors (the kernel-building eDSL) -------------- *)

let i n = Iconst n
let f x = Fconst x
let p n = Param n
let v n = Var n
let tid a = Special (Thread_idx a)
let bid a = Special (Block_idx a)
let bdim a = Special (Block_dim a)
let gdim a = Special (Grid_dim a)
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
let atomic_min name idx e = Atomic (AMin, name, idx, e)
let atomic_max name idx e = Atomic (AMax, name, idx, e)
let sqrt_ e = Unop (Sqrt, e)
let rsqrt e = Unop (Rsqrt, e)
let min_ a b = Binop (Minb, a, b)
let max_ a b = Binop (Maxb, a, b)

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

(* Fold over every expression in a statement list (loads inside stores
   included). *)
let rec fold_exp_in_exp f acc e =
  let acc =
    match e with
    | Iconst _ | Fconst _ | Special _ | Param _ | Var _ -> acc
    | Load (_, idx) -> List.fold_left (fold_exp_in_exp f) acc idx
    | Unop (_, x) -> fold_exp_in_exp f acc x
    | Binop (_, x, y) -> fold_exp_in_exp f (fold_exp_in_exp f acc x) y
  in
  f acc e

let rec fold_exp_in_stmt f acc s =
  match s with
  | Store (_, idx, e) | Atomic (_, _, idx, e) ->
    fold_exp_in_exp f (List.fold_left (fold_exp_in_exp f) acc idx) e
  | Local (_, e) | Assign (_, e) -> fold_exp_in_exp f acc e
  | If (c, t, e) ->
    let acc = fold_exp_in_exp f acc c in
    let acc = List.fold_left (fold_exp_in_stmt f) acc t in
    List.fold_left (fold_exp_in_stmt f) acc e
  | For { from_; to_; body; _ } ->
    let acc = fold_exp_in_exp f acc from_ in
    let acc = fold_exp_in_exp f acc to_ in
    List.fold_left (fold_exp_in_stmt f) acc body
  | Syncthreads -> acc

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

let rec pp_exp fmt e =
  let open Format in
  match e with
  | Iconst n -> fprintf fmt "%d" n
  | Fconst x -> fprintf fmt "%gf" x
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
