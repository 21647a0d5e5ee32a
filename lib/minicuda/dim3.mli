(** 3-dimensional extents, mirroring CUDA's [dim3]. *)

type t = { x : int; y : int; z : int }

type axis = X | Y | Z

val make : ?y:int -> ?z:int -> int -> t
(** Extents must be at least 1 (coordinates may be built literally). *)

val one : t

val volume : t -> int

val get : t -> axis -> int
val set : t -> axis -> int -> t

val axes : axis list
(** The axes in (z, y, x) order, matching hierarchical iteration. *)

val axis_name : axis -> string

val equal : t -> t -> bool

val iter : t -> (t -> unit) -> unit
(** Visit every coordinate in (z, y, x) lexicographic order. *)

val pp : Format.formatter -> t -> unit
