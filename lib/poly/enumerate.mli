(** Enumerator generation (paper §6): compile the set of array elements
    an access map touches within a grid partition into a closure that
    emits half-open linear ranges in the row-major array layout.

    Only the first and last element of each row is computed (per-row
    lexmin/lexmax, paper §6.1); contiguous bands of full-width rows are
    additionally collapsed into single ranges, which makes stencil read
    sets O(1) to enumerate. *)

type plan =
  | P_seq of plan list
  | P_for of string * Ast.expr * Ast.expr * plan
  | P_guard of Ast.expr list * plan
  | P_point of Ast.expr array
  | P_ranges of Ast.expr array * Ast.expr * Ast.expr
      (** row coordinates, inclusive bounds of the last dim *)
  | P_row_block of Ast.expr array * Ast.expr * Ast.expr
      (** outer row coordinates, inclusive bounds of the last row dim;
          the innermost dim spans a full row *)

type rect = {
  row_var : string;  (** the scan's row loop variable (printing only) *)
  row_lb : Ast.expr;
  row_ub : Ast.expr;
  col_lb : Ast.expr;
  col_ub : Ast.expr;
}
(** A rank-2 convex piece scanned as a rectangle with loop-invariant
    column bounds.  Rectangles are evaluated to corners and merged with
    each other before emission, so stencil halos and per-column
    accesses collapse to O(1) ranges per partition. *)

type piece = Rect of rect | General of plan

type compiled
(** Slot-indexed closure form of an enumerator, built by its first
    evaluation. *)

type t = {
  pieces : piece list;
  sizes : Ast.expr array;
  rank : int;
  mutable compiled : compiled option;
      (** closure form, memoized by the first evaluation *)
}

val merge_rects :
  (int * int * int * int) list -> (int * int * int * int) list
(** Merge evaluated rectangles (row0, row1, col0, col1, inclusive):
    subsumption plus row-wise and column-wise coalescing to fixpoint.
    Test oracle window: test_poly "rects merge_rects preserves
    coverage and shrinks" and "rects merge cases" check the merge
    step of {!of_set} on rectangle lists of their own. *)

val of_set : ?rectangles:bool -> sizes:Ast.expr array -> Pset.t -> t
(** Build an enumerator for a set over array index dims; [sizes] are the
    array dimension sizes (outermost first) as expressions over the
    parameters. *)

val canonicalize : (int * int) list -> (int * int) list
(** Sort and merge overlapping/adjacent ranges; drop empty ones. *)

val eval : t -> Ast.env -> (int * int) list
(** Evaluate to a canonical list of half-open linear ranges.  Raises
    [Invalid_argument "Enumerate.eval: unbound variable v"] for a
    parameter [v] that [env] lacks. *)

val eval_counted : t -> Ast.env -> (int * int) list * int
(** Like {!eval}, plus the number of raw ranges emitted before
    canonicalization (the enumeration cost driver). *)

val env_of_bindings : (string * int) list -> Ast.env

val pp : Format.formatter -> t -> unit
(** Print each piece as the scan it was built from. *)
