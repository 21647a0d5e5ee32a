(** Dot product via [atomicAdd] into a single output element: the
    irregular-accumulation kernel the boolean race gate had to reject.
    The verifier proves it reducible and the engine runs it with
    partition-local accumulation plus an ordered merge
    (DESIGN.md §20). *)

val kernel : Kir.t
(** [dot(n, a, b, out)] with [out] a one-element array.
    Test oracle window: test_verify "sanitizer". *)

val block : Dim3.t
val grid_for : int -> Dim3.t
(** Test oracle window: test_exec "allocation guard". *)

val program :
  n:int -> a:float array -> b:float array -> result:float array -> Host_ir.t

val initial : n:int -> float array * float array
(** Exact-arithmetic inputs (small integers), so every grouping of the
    additions produces identical bits. *)

val reference : float array -> float array -> float array
(** One-element array holding the sequential dot product. *)
