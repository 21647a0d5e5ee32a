(** Polyhedral relations (maps) between two spaces sharing parameters.

    Memory access maps in the partitioning compiler are maps from the
    6-dimensional grid space (blockOff.{z,y,x}, blockIdx.{z,y,x}) to
    array index spaces (paper §4). *)

type t

val combined_space : Space.t -> Space.t -> Space.t
(** The space [params; dims(dom) ++ dims(ran)] the relation lives in. *)

val make : dom:Space.t -> ran:Space.t -> Pset.t -> t
(** Wrap a set over the combined space as a map. *)

val dom_space : t -> Space.t
val ran_space : t -> Space.t

val rel : t -> Pset.t
(** The underlying set over the combined space. *)

val combined : t -> Space.t

val union : t -> t -> t

val range : t -> Pset.t

val constrain_normalized : t -> (Poly.t -> Row.t list) -> t
(** Add to each piece of the relation the already-normalized rows over
    the combined space that the function gives for it
    ({!Poly.add_normalized_rows}). *)
