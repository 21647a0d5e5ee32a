(** Kernel IR optimization passes: constant folding, exact algebraic
    simplification (no float reassociation, no [x *. 0.0] folding),
    dead-branch pruning and dead-local elimination, iterated to a
    fixpoint. *)

val fold_exp : Kir.exp -> Kir.exp
(** Bottom-up constant folding and algebraic simplification. *)

val optimize_body : Kir.stmt list -> Kir.stmt list
(** Folding + dead-code elimination to a fixpoint. *)

val optimize : Kir.t -> Kir.t

val size : Kir.t -> int
(** Statement count (code metric). *)
