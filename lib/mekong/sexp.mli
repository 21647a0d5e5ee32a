(** Minimal s-expressions, used to persist application models to disk
    between the two compiler passes (paper §4). *)

type t = Atom of string | List of t list

val atom : string -> t
val int : int -> t
val list : t list -> t

val to_string : t -> string

exception Parse_error of string

val parse_many : string -> t list
(** Parse a sequence of top-level forms; [;] comments to end of line
    are skipped. *)

val as_atom : t -> string
val as_int : t -> int
val as_list : t -> t list

val field : string -> t -> t list
(** [(key a b c)] sub-form lookup in an association-style list; returns
    [[a; b; c]].  Raises {!Parse_error} when missing. *)

val field_opt : string -> t -> t list option
