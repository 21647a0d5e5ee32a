(** Unions of convex polyhedra over a common space. *)

type t

val of_polys : Space.t -> Poly.t list -> t
val of_poly : Poly.t -> t

val space : t -> Space.t
val pieces : t -> Poly.t list
val n_pieces : t -> int

val is_empty : t -> bool
val mem : t -> int array -> bool

val coalesce : t -> t
(** Drop pieces subsumed by other pieces. *)

val union : t -> t -> t
val intersect : t -> t -> t
val add_constrs : t -> Constr.t list -> t

val add_normalized_rows : t -> (Poly.t -> Row.t list) -> t
(** Add to each piece the already-normalized rows the function gives
    for it ({!Poly.add_normalized_rows}). *)

val subtract : t -> t -> t
(** Integer set difference (exact). *)

val subsumes : t -> t -> bool
(** [subsumes a b]: [b ⊆ a]. *)

val equal : t -> t -> bool

val project_onto : t -> int list -> t
(** Keep only the dims whose dim-local indices are listed. *)

val enumerate : ?default_radius:int -> t -> int list list
(** All integer points of a bounded set, sorted; test helper. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
