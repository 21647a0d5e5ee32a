(** Polyhedral relations (maps) between two spaces sharing parameters.

    Memory access maps in the partitioning compiler are maps from the
    6-dimensional grid space (blockOff.{z,y,x}, blockIdx.{z,y,x}) to
    array index spaces (paper §4). *)

type t

val combined_space : Space.t -> Space.t -> Space.t
(** The space [params; dims(dom) ++ dims(ran)] the relation lives in. *)

val make : dom:Space.t -> ran:Space.t -> Pset.t -> t
(** Wrap a set over the combined space as a map. *)

val of_affs :
  dom:Space.t -> ran:Space.t -> affs:Aff.t array -> guards:Constr.t list -> t
(** Map given by affine output functions [out_i = affs.(i)] of the
    domain dims; [guards] are constraints over the combined space
    restricting the domain. *)

val dom_space : t -> Space.t
val ran_space : t -> Space.t

val rel : t -> Pset.t
(** The underlying set over the combined space. *)

val combined : t -> Space.t

val union : t -> t -> t

val domain : t -> Pset.t
val range : t -> Pset.t

val image : t -> Pset.t -> Pset.t
(** Image of a set under the map. *)

val constrain : t -> Constr.t list -> t
(** Add raw constraints over the combined space. *)

val constrain_normalized : t -> (Poly.t -> Row.t list) -> t
(** Add to each piece of the relation the already-normalized rows over
    the combined space that the function gives for it
    ({!Poly.add_normalized_rows}). *)

val inverse : t -> t
val preimage : t -> Pset.t -> Pset.t

val is_injective : ?param_ge:((int * string) list * int) list -> t -> bool
(** Write-map check from paper §4.1: no two distinct domain points map
    to a common range point.  [param_ge] lists context constraints
    [sum terms + const >= 0] over parameter names (e.g. problem size
    at least 1). *)
