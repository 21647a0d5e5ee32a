(** Self-contained JSON value type, pretty emitter and strict parser.

    The emitter backs every JSON artifact in the tree
    (Chrome traces, profile and serve reports, causal DAG dumps); string
    escaping covers the full mandatory set (the quote, the backslash
    and every control character U+0000–U+001F).  Non-finite floats
    serialize as [null].
    The parser is the base of the bundled trace checker and of the
    round-trip tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val write : file:string -> t -> unit

val parse : string -> (t, string) result
(** Strict parse of a complete JSON document.  Rejects raw control
    characters in strings, bad escapes, lone surrogates and trailing
    garbage — everything the emitter must never produce. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the value bound to [k], if any. *)

val to_number : t -> float option
(** [Int] or [Float] as a float. *)
