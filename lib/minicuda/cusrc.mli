(** Rendering host programs and kernels as a toy CUDA surface syntax —
    the text the regex-based source-to-source rewriter (paper §5)
    operates on. *)

val render : Host_ir.t -> string
(** The full toy .cu translation unit: kernels, then [main()] with the
    host program. *)
