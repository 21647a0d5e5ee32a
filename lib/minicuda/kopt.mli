(** Kernel IR optimization passes: constant folding, exact algebraic
    simplification (no float reassociation, no [x *. 0.0] folding),
    dead-branch pruning and dead-local elimination, iterated to a
    fixpoint. *)

val optimize : Kir.t -> Kir.t
(** Folding + dead-code elimination to a fixpoint.  A float zero folds
    only out of [x + -0.0] and [x - +0.0], exact for [x = -0.0] too.  A
    dead binding whose value reads an array stays, with the bindings it
    reads, and so does an [If] or [For] whose header reads one while its
    body folds away: the load may fault, and [Keval] would raise.  The
    kernel's extents prove such a load in bounds: each subscript a
    constant inside a constant extent, or one that an earlier access of
    the array in the same dimension checked on every path.  A kernel
    that passes {!Kir.check} still does. *)

val optimize_shadow : Kir.t -> Kir.t
(** {!optimize}, deleting dead loads too: for instrumentation shadow
    kernels, whose partition launch runs every load they drop. *)

val size : Kir.t -> int
(** Statement count (code metric). *)
