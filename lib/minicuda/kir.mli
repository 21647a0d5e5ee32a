(** The kernel intermediate representation — the role LLVM IR plays for
    gpucc.  Kernels in this IR can be executed ({!Keval}), statically
    analyzed (polyhedral access extraction), cost-estimated
    ({!Costmodel}), optimized ({!Kopt}) and transformed (the kernel
    partitioning of paper §7). *)

type special =
  | Thread_idx of Dim3.axis
  | Block_idx of Dim3.axis
  | Block_dim of Dim3.axis
  | Grid_dim of Dim3.axis

type unop = Neg | Sqrt | Abs | Rsqrt | Not

type binop =
  | Add | Sub | Mul | Div  (** [Div] is float division *)
  | Idiv | Imod  (** integer-only *)
  | Minb | Maxb
  | Lt | Le | Gt | Ge | Eq | Ne  (** comparisons yield booleans *)
  | And | Or

type exp =
  | Iconst of int
  | Fconst of float
  | Special of special
  | Param of string  (** scalar kernel argument *)
  | Var of string  (** loop counter or local variable *)
  | Load of string * exp list  (** array argument, one index per dim *)
  | Unop of unop * exp
  | Binop of binop * exp * exp

type atomic_op = AAdd | AMin | AMax
(** Commutative-associative read-modify-write operators.  One call is
    an indivisible load-combine-store, so cross-block conflicts on the
    same element are reducible (any combining order is a legal result)
    rather than racy. *)

type stmt =
  | Store of string * exp list * exp
  | Atomic of atomic_op * string * exp list * exp
      (** [atomicAdd(&a[i]..., e);] — combine the old element with [e] *)
  | Local of string * exp  (** declare-and-initialize a mutable local *)
  | Assign of string * exp
  | If of exp * stmt list * stmt list
  | For of { var : string; from_ : exp; to_ : exp; body : stmt list }
      (** [for (var = from_; var < to_; var++)] *)
  | Syncthreads

type dim = Dim_const of int | Dim_param of string
(** An array dimension size: a constant or a scalar parameter. *)

type param =
  | Scalar of string  (** integer scalar argument *)
  | Fscalar of string  (** float scalar argument *)
  | Array of { name : string; dims : dim array }

type t = { name : string; params : param list; body : stmt list }

val kernel : name:string -> params:param list -> stmt list -> t

val scalar_params : t -> string list
(** Names of the integer scalar parameters. *)

val array_params : t -> (string * dim array) list

val check : t -> (unit, string) result
(** The scope and type check every kernel passes where it enters the
    pipeline ({!Cuparse.parse_cu}, {!Host_ir.validate}); the engines
    run only checked kernels.  [Error] names the first violation:
    - a [Var] not bound on every path to its use (a [Local] or
      [Assign] binds, an [If] binds what both branches bind, a [For]
      counter and its body's bindings do not escape the loop);
    - a [Param] that names no scalar parameter, or a [Load], [Store]
      or [Atomic] that names no array parameter;
    - a local bound at two types (a loop counter is [int]);
    - a bool used as a number, or a float used as a condition.
    Types follow {!Keval}'s promotions: a [Scalar] is [int], an
    [Fscalar] and a load are [float], arithmetic is [int] only when
    both operands are. *)

val equal : t -> t -> bool
(** The same kernel: physically equal, or structurally equal with
    float constants compared by bit pattern ([0.0] and [-0.0] differ). *)

(** {2 Construction eDSL}

    Infix operators build IR expressions and therefore shadow the
    stdlib operators — scope [open Kir] to kernel definitions. *)

val i : int -> exp
val f : float -> exp
val p : string -> exp
val v : string -> exp
val tid : Dim3.axis -> exp
val ( + ) : exp -> exp -> exp
val ( - ) : exp -> exp -> exp
val ( * ) : exp -> exp -> exp
val ( / ) : exp -> exp -> exp
val ( < ) : exp -> exp -> exp
val ( <= ) : exp -> exp -> exp
val ( > ) : exp -> exp -> exp
val ( >= ) : exp -> exp -> exp
val ( = ) : exp -> exp -> exp
val ( <> ) : exp -> exp -> exp
val ( && ) : exp -> exp -> exp
val ( || ) : exp -> exp -> exp
val load : string -> exp list -> exp
val store : string -> exp list -> exp -> stmt
val atomic_add : string -> exp list -> exp -> stmt
val rsqrt : exp -> exp

val global_id : Dim3.axis -> exp
(** [threadIdx.a + blockIdx.a * blockDim.a] (paper Eq. 5). *)

(** {2 Traversal} *)

val map_exp : (exp -> exp) -> exp -> exp
(** Bottom-up rewriting: the function sees every node after its
    children were rewritten. *)

val map_kernel : (exp -> exp) -> t -> t

(** {2 Printing (toy CUDA syntax)} *)

val atomic_name : atomic_op -> string

val float_literal : float -> string
(** A float constant as toy-CUDA text with an [f] suffix: the first of
    [%g], [%.15g], [%.16g] and [%.17g] that reads back to the same
    bits, so every finite non-negative constant survives a render and
    parse.  A negative constant prints with a leading ['-'], which
    parses back as unary minus; non-finite ones do not parse back. *)

val to_string : t -> string
