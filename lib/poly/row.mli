(** Constraint rows: the flat form in which {!Poly} stores constraints.

    A row over a space of [n] variables is an [int array] of length
    [n + 2]: the coefficients in the space's index order, then the
    constant, then the kind tag ({!eq} or {!ge}).  Rows are built
    fresh, normalized in place once, and never mutated after that. *)

type t = int array

val eq : int
(** Tag of an equality, [coeffs . x + k = 0]. *)

val ge : int
(** Tag of an inequality, [coeffs . x + k >= 0]. *)

val inequality : int -> (int * int) list -> int -> t
(** [inequality n terms k] is a fresh row over [n] variables for
    [sum c * x_i + k >= 0], from [(c, i)] terms with distinct indices.
    It is not normalized. *)

val n_vars : t -> int
val is_eq : t -> bool

type triviality = Trivially_true | Trivially_false | Nontrivial

val normalize : t -> triviality
(** Normalize in place: divide by the gcd of the variable
    coefficients, tighten an inequality's constant toward the integer
    hull, make an equality's first nonzero coefficient positive.  An
    equality whose gcd does not divide its constant becomes the false
    row [1 = 0].  A row without variables is classified by its
    constant.  Raises {!Ints.Overflow} on a [min_int] coefficient and
    where tightening or the sign change would negate [min_int]. *)

val compare : t -> t -> int
(** The canonical constraint order: negative when the first row comes
    first.  Rows are sorted descending in the key (kind with
    equality < inequality, then the coefficient vector
    lexicographically, then the constant for equalities only), so
    inequalities precede equalities.  Two inequalities with equal
    coefficients compare equal whatever their constants. *)
