(** Affine constraints: [aff = 0] (equality) or [aff >= 0]
    (inequality).

    Constraints have no order of their own.  A polyhedron lists its
    constraints in the one canonical order of {!Row.compare}
    (see {!Poly}). *)

type kind = Eq | Ge

type t

val make : kind -> Aff.t -> t
val eq : Aff.t -> t
val ge : Aff.t -> t

val ge2 : Aff.t -> Aff.t -> t
(** [ge2 a b] is the constraint [a >= b]. *)

val le2 : Aff.t -> Aff.t -> t
(** [le2 a b] is [a <= b]. *)

val eq2 : Aff.t -> Aff.t -> t
(** [eq2 a b] is [a = b]. *)

val gt2 : Aff.t -> Aff.t -> t
(** [gt2 a b] is the integer-strict [a > b], i.e. [a - b - 1 >= 0]. *)

val lt2 : Aff.t -> Aff.t -> t

val kind : t -> kind
val aff : t -> Aff.t
val space : t -> Space.t

val negate_ge : t -> t
(** Integer negation of an inequality: [not (aff >= 0)] is
    [-aff - 1 >= 0].  Must not be applied to equalities. *)

type triviality = Row.triviality = Trivially_true | Trivially_false | Nontrivial

val triviality : t -> triviality
(** Classification of constraints with no variable coefficients. *)

val normalize : t -> t
(** Divide by the gcd of variable coefficients, tighten inequality
    constants toward the integer hull, canonicalize equality sign.  An
    unsatisfiable equality (gcd does not divide the constant) becomes a
    trivially-false constraint. *)

val to_row : t -> Row.t
(** A fresh row of the constraint (see {!Row}). *)

val of_row : Space.t -> Row.t -> t
(** The constraint of a row over the given space. *)

val eval : t -> int array -> bool
(** Does the assignment satisfy the constraint? *)

val rebase : t -> Space.t -> int array -> t
val substitute : t -> int -> Aff.t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
