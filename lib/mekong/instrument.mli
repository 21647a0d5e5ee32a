(** Instrumented write-set collection — the run-time fallback the
    paper's conclusion proposes for kernels whose write accesses cannot
    be modeled polyhedrally (§11; mechanism after VAST's minimal kernel
    clones).  Available in functional machines only. *)

exception
  Write_conflict of { arr : string; offset : int; dev_a : int; dev_b : int }
(** Two partitions wrote the same element: the dynamic counterpart of
    the §4.1 injectivity rejection. *)

val shadow_kernel : Kir.t -> Kir.t
(** The minimal clone: stores keep their subscripts but write a
    constant, and the optimizer removes the dead value computation —
    only address computation (including indirect-subscript loads)
    remains. *)

val shadow_cost :
  Kir.t -> scalar_env:(string * int) list -> block:Dim3.t -> float
(** Simulated cost of one instrumentation launch. *)

val collect_writes :
  arrays:string list ->
  data:(string -> float array) ->
  ((string -> Kcompile.access) -> unit) ->
  (string * (int * int) list) list
(** [collect_writes ~arrays ~data run] calls [run access] once to
    launch the (partition-transformed) shadow over one partition, and
    returns, per instrumented array, the canonical written ranges.
    [access] loads from the device-local instance [data] names, stores
    into scratch and marks a per-array touched mask, from which the
    ranges are read. *)

val check_disjoint : arr:string -> (int * (int * int) list) list -> unit
(** Dynamic write-after-write check across partitions; raises
    {!Write_conflict} on overlap. *)
