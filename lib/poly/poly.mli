(** Convex polyhedra: conjunctions of affine constraints.

    Constraints are stored as flat integer rows ({!Row}).  Projection
    and emptiness are computed with Fourier-Motzkin elimination;
    equalities are eliminated by substitution.  Projection yields the
    rational shadow: an over-approximation of the integer projection,
    exact for the unimodular access functions produced by data-parallel
    kernels.  The unimodularity precondition is not checked.

    Every constraint list this module returns is in one canonical
    order, {!Row.compare}'s: inequalities before equalities, each
    descending by coefficient vector (equalities then by constant),
    deduplicated, an inequality keeping the smallest constant for its
    coefficient vector. *)

type t

val make : Space.t -> Constr.t list -> t
(** Normalizes, deduplicates, and detects trivially false constraints. *)

val space : t -> Space.t

val constraints : t -> Constr.t list
(** The normalized constraint list ([] for trivially-empty polyhedra). *)

val is_trivially_empty : t -> bool
(** Syntactic emptiness only; see {!is_empty} for the real test. *)

val add_constrs : t -> Constr.t list -> t

val add_normalized_rows : t -> Row.t list -> t
(** Add rows over the polyhedron's space that are already normalized
    ({!Row.normalize} would leave them as they are), in any order: they
    are sorted into the canonical list, not normalized again.  The
    rows are shared, never mutated.  Raises [Invalid_argument] on a
    row of the wrong length. *)

val mentions : t -> int -> bool
(** Does some constraint have a nonzero coefficient on the variable?
    [false] for a trivially empty polyhedron. *)

val intersect : t -> t -> t

val mem : t -> int array -> bool
(** Membership of a full assignment of the combined variable vector. *)

val is_empty : t -> bool
(** Full Fourier-Motzkin elimination, treating parameters as ordinary
    variables: empty when no parameter valuation admits a point.  The
    answer lies between Q- and Z-feasibility: every derived inequality
    has its constant tightened to the integer hull of that row, so some
    sets with rational but no integer points are found empty, but not
    all.  [true] is sound over Z. *)

val eliminate_var : t -> int -> t
(** Remove every occurrence of one variable (space unchanged).  With
    an equality on the variable, the last one in list order substitutes
    it away; otherwise every lower bound is combined with every upper
    bound.  When no constraint mentions the variable, the constraints
    come back unchanged. *)

val project_out : t -> int list -> t
(** Eliminate the dims at the given combined-vector indices (in
    ascending order) and drop them from the space. *)

val project_onto : t -> int list -> t
(** Keep only the dims whose dim-local indices are listed. *)

val bounds_of_var : t -> int -> (int * Aff.t) list * (int * Aff.t) list
(** [(lowers, uppers)] for a variable: a lower [(a, e)] means
    [x >= ceil(e / a)], an upper [(a, e)] means [x <= floor(e / a)],
    with [a > 0] in both. *)

val numeric_bounds : t -> int -> int option array -> int option * int option
(** Numeric bounds of a variable given partial assignment [env]
    (constraints mentioning unassigned variables are ignored).  Raises
    {!Ints.Overflow} when a bound does not fit in an [int]. *)

val sample : ?default_radius:int -> t -> int array option
(** Search for an integer point by bounded backtracking; unbounded
    directions are searched within [default_radius]. *)

val subsumes : t -> t -> bool
(** [subsumes a b]: does [a] contain [b] (over Z)? *)

val substitute : t -> int -> Aff.t -> t
val rebase : t -> Space.t -> int array -> t
(** [rebase p space remap] moves [p] into [space]; [remap.(i)] is the
    new index of old variable [i], or [-1] if dropped (its coefficients
    must be zero).  A remap that changes the variables' relative order
    renormalizes the constraints, as {!make} would. *)

val pp : Format.formatter -> t -> unit
