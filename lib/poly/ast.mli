(** isl-style code generation: loop-nest ASTs scanning polyhedra.

    The generator follows the classic "project and bound" scheme
    (paper §6): for each dimension, project the polyhedron onto the
    outer dimensions and compute closed-form loop bounds.  ASTs can be
    pretty-printed as C-like text or executed directly against an
    environment. *)

type expr =
  | Int of int
  | Var of string
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Fdiv of expr * expr  (** floor division *)
  | Cdiv of expr * expr  (** ceiling division *)
  | Min of expr * expr
  | Max of expr * expr

type stmt =
  | Seq of stmt list
  | For of { var : string; lb : expr; ub : expr; body : stmt }
      (** [ub] inclusive *)
  | Guard of expr list * stmt  (** all exprs must be [>= 0] *)
  | Emit of expr array  (** one point of the set *)
  | Emit_range of expr array * expr * expr
      (** row coordinates, then inclusive bounds of the innermost dim *)

val simp : expr -> expr
(** Constant folding and algebraic simplification. *)

exception Unbounded of string
(** Raised by scanning when a dimension has no finite bound; carries the
    dimension name. *)

val scan_set : ?emit_ranges:bool -> Pset.t -> stmt
(** One loop nest per convex piece, in sequence, each scanning all
    integer points of the piece, dims outermost-first.  With
    [emit_ranges] the innermost loop becomes an [Emit_range]. *)

type env = (string, int) Hashtbl.t

val compile_expr : slot:(string -> int) -> expr -> int array -> int
(** Compile an expression into a closure over a slot-indexed int-array
    environment.  [slot] maps each variable name to its array index
    (allocating on first sight); repeated evaluation pays no hashing. *)

val exec :
  env ->
  on_point:(int array -> unit) ->
  on_range:(int array -> int -> int -> unit) ->
  stmt ->
  unit
(** Execute a statement; [on_range] receives (row coordinates,
    inclusive lo, inclusive hi).
    Test oracle window: test_poly "ast scan triangle", "ast scan
    parametric", "ast scan_set enumerates exactly the set" and
    "codegen-parametric parametric scan matches direct enumeration"
    run the scans {!scan_set} builds. *)

val pp_expr : Format.formatter -> expr -> unit
