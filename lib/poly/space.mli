(** Dimension spaces: the named variables a polyhedron ranges over.

    The variable vector is ordered [params ++ dims].  Parameters are
    symbolic constants (problem sizes, block dimensions, scalar kernel
    arguments); dims are set dimensions proper.  All indices exposed here
    are indices into the combined vector unless noted otherwise. *)

type t

val make : params:string array -> dims:string array -> t
(** Create a space; raises [Invalid_argument] on duplicate names. *)

val n_params : t -> int
val n_dims : t -> int

val n_total : t -> int
(** [n_params + n_dims]: the length of coefficient vectors over this
    space. *)

val params : t -> string array
val dims : t -> string array

val param_index : t -> string -> int option
(** Combined-vector index of a parameter. *)

val dim_index : t -> string -> int option
(** Combined-vector index of a dim (i.e. [n_params + local index]). *)

val var_index : t -> string -> int option
(** Combined-vector index, searching params then dims. *)

val var_index_exn : t -> string -> int

val var_name : t -> int -> string
(** Name of the variable at a combined-vector index. *)

val equal : t -> t -> bool
(** Same params and dims, name by name; physically equal spaces
    answer at once. *)

val same_params : t -> t -> bool
(** Same parameter names in the same order. *)

val is_product : t -> t -> t -> bool
(** [is_product t a b]: [t] has [a]'s params, and [t]'s dims are [a]'s
    followed by [b]'s; what {!Pmap} checks of a relation, without
    building the combined space. *)

val drop_dim : t -> int -> t
(** Remove the dim at a combined-vector index.  Raises
    [Invalid_argument] if the index denotes a parameter. *)

val filter_dims : t -> (int -> bool) -> t
(** Keep only dims whose dim-local index satisfies the predicate. *)

val pp : Format.formatter -> t -> unit
