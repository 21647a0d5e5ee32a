(** Parser for the toy CUDA surface syntax emitted by {!Cusrc.render},
    so the toolchain can be driven from .cu text files.  Array
    parameters carry their extents in a trailing comment
    ([float *a] followed by [[n][n]] in a block comment); host data
    referenced by memcpys becomes phantom arrays (text carries no
    element values). *)

exception Error of string
(** A malformed input, with the line and column (from 1) of the
    offending token where one is to blame: [unexpected character | at
    2:5]. *)

type token =
  | Ident of string
  | Int_lit of int
  | Float_lit of float
  | Punct of string  (** operators and punctuation, longest match *)
  | Eof

val tokens : string -> token list
(** The tokens of a text, up to but not including [Eof].  Raises
    {!Error} where {!parse_cu} would fail to lex.
    Test oracle window: test_cuparse "lexer every punctuation
    spelling", "lexer longest match", "lexer numeric literals" and
    "lexer leading zero". *)

val parse_cu : name:string -> string -> Kir.t list * Host_ir.t
(** Parse a full translation unit: kernels, then [main()].  Raises
    {!Error} with a description on malformed input: a second
    [__global__] definition of one name, an integer literal with a
    leading zero, a float launch argument for an [int] parameter, and
    a kernel that fails {!Kir.check} (at its [__global__]) included. *)
