(** Parser for the toy CUDA surface syntax emitted by {!Cusrc.render},
    so the toolchain can be driven from .cu text files.  Array
    parameters carry their extents in a trailing comment
    ([float *a] followed by [[n][n]] in a block comment); host data
    referenced by memcpys becomes phantom arrays (text carries no
    element values). *)

exception Error of string

val parse_cu : name:string -> string -> Kir.t list * Host_ir.t
(** Parse a full translation unit: kernels, then [main()].  Raises
    {!Error} with a description on malformed input, a second
    [__global__] definition of one name included. *)
