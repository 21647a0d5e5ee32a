(** Kernel IR optimization passes: constant folding, exact algebraic
    simplification (no float reassociation, no [x *. 0.0] folding),
    dead-branch pruning and dead-local elimination, iterated to a
    fixpoint. *)

val fold_exp : Kir.exp -> Kir.exp
(** Bottom-up constant folding and algebraic simplification. *)

val optimize_body : Kir.stmt list -> Kir.stmt list
(** Folding + dead-code elimination to a fixpoint.  A dead binding
    whose value reads an array stays, with the bindings it reads: the
    load may fault, and [Keval] would raise.  A body that passes
    {!Kir.check} still does. *)

val optimize : Kir.t -> Kir.t
(** {!optimize_body} over a kernel, whose extents also prove a dead
    load in bounds: each subscript a constant inside a constant
    extent, or one that an earlier access of the array in the same
    dimension checked on every path. *)

val optimize_shadow : Kir.t -> Kir.t
(** {!optimize}, deleting dead loads too: for instrumentation shadow
    kernels, whose partition launch runs every load they drop. *)

val size : Kir.t -> int
(** Statement count (code metric). *)
