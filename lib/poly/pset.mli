(** Unions of convex polyhedra over a common space. *)

type t

val of_polys : Space.t -> Poly.t list -> t
val of_poly : Poly.t -> t

val space : t -> Space.t
val pieces : t -> Poly.t list

val is_empty : t -> bool

val mem : t -> int array -> bool
(** Test oracle window: test_poly's brute-force, map-algebra and
    set-algebra properties test membership point by point. *)

val union : t -> t -> t

val add_normalized_rows : t -> (Poly.t -> Row.t list) -> t
(** Add to each piece the already-normalized rows the function gives
    for it ({!Poly.add_normalized_rows}). *)

val project_onto : t -> int list -> t
(** Keep only the dims whose dim-local indices are listed. *)

val enumerate : ?default_radius:int -> t -> int list list
(** All integer points of a bounded set, sorted.
    Test oracle window: test_poly "pmap figure-1 image", "pmap
    domain/range/preimage", "ast scan triangle" and the brute-force
    properties compare sets by their points. *)
