(** Affine expressions [sum coeffs.(i) * var_i + const] over a
    {!Space}. *)

type t

val zero : Space.t -> t
val const : Space.t -> int -> t

val var : Space.t -> string -> t
(** Unit-coefficient expression for a named variable. *)

val var_i : Space.t -> int -> t
(** Unit-coefficient expression for a combined-vector index. *)

val of_terms : Space.t -> (int * string) list -> const:int -> t
(** Build from [(coefficient, variable-name)] terms plus a constant. *)

val space : t -> Space.t
val coeff : t -> int -> int
val coeff_of : t -> string -> int
val constant : t -> int

val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val neg : t -> t
val add_const : t -> int -> t
val set_coeff : t -> int -> int -> t

val is_constant : t -> bool
(** All variable coefficients zero. *)

val is_param_only : t -> bool
(** No dim has a nonzero coefficient (parameters allowed). *)

val equal : t -> t -> bool

val eval : t -> int array -> int
(** Evaluate under a full assignment of the combined vector. *)

val substitute : t -> int -> t -> t
(** [substitute a i e] replaces variable [i] by expression [e]. *)

val rebase : t -> Space.t -> int array -> t
(** [rebase a space remap] moves [a] into [space]; [remap.(i)] is the
    new index of old variable [i], or [-1] if dropped (its coefficient
    must be zero). *)

val to_row : t -> int -> Row.t
(** [to_row a tag] is a fresh row: [a]'s coefficients, its constant,
    then [tag] ({!Row.eq} or {!Row.ge}). *)

val of_row : Space.t -> Row.t -> t
(** The expression of a row's coefficients and constant (its kind tag
    is ignored). *)

val pp : Format.formatter -> t -> unit
