(** Sparse matrix-vector product in CSR format: the degradation path of
    the analysis (paper §4): data-dependent loop bounds over-approximate
    every read inside the row loop to the whole array, while the affine
    injective write of [y] keeps the kernel partitionable. *)

val kernel : Kir.t
(** [spmv(n, nnz, row_ptr, n1, cols, vals, x, y)]; one thread per
    row. *)

type csr = {
  n : int;
  nnz : int;
  row_ptr : float array;  (** length n+1; float-encoded integers *)
  cols : float array;  (** length nnz *)
  vals : float array;
}

val program : m:csr -> x:float array -> result:float array -> Host_ir.t

val reference : m:csr -> float array -> float array
(** CPU reference mirroring the kernel arithmetic exactly. *)

val banded : n:int -> band:int -> csr
(** A deterministic banded sparse matrix with up to [band] entries per
    row. *)
