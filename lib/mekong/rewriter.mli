(** The regex-based source-to-source host rewriter (paper §5): inserts
    the runtime prologue, redirects CUDA API calls to their
    virtual-buffer replacements (§8.4), and replaces kernel launches
    with the runtime dispatch performing the Fig. 4 sequence. *)

val rewrite : string -> string
(** All three substitution kinds, in order. *)
