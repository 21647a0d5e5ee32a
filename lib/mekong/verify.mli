(** Polyhedral data-race verifier with concrete witnesses
    (DESIGN.md §20).

    Classifies each kernel's cross-block behavior into a typed verdict
    consumed by the execution-engine gate, the partitioner, and the
    [mekongc verify] command.  A [Racy] verdict always carries
    witnesses that were validated by replaying both blocks through the
    interpreter ({!Keval.run} with its trace hook), so every reported
    collision is real. *)

type access_kind = Read | Write | Atomic of Kir.atomic_op

type witness = {
  w_arr : string;
  w_elem : int array;  (** multi-dimensional array index *)
  w_block1 : Dim3.t;
  w_thread1 : Dim3.t;
  w_kind1 : access_kind;
  w_block2 : Dim3.t;
  w_thread2 : Dim3.t;
  w_kind2 : access_kind;
  w_grid : Dim3.t;
  w_block : Dim3.t;
  w_scalars : (string * int) list;
      (** integer scalar arguments of the witnessing launch *)
}
(** Two accesses from distinct blocks touching the same array element
    under one concrete launch configuration. *)

type verdict =
  | Safe  (** all cross-block access pairs provably disjoint *)
  | Reducible of (string * Kir.atomic_op) list
      (** conflicts are same-operator atomics on the listed arrays;
          legal to partition with local accumulation + ordered merge *)
  | Racy of witness list  (** validated concrete witnesses *)
  | Unknown of string  (** analysis too coarse to decide; the reason *)

val verdict_name : verdict -> string
(** ["safe" | "reducible" | "racy" | "unknown"]. *)

val verdict_to_string : verdict -> string

val verify :
  ?assume:((int * string) list * int) list ->
  kernel:Kir.t ->
  Model.kernel_model ->
  verdict
(** Full verification: for every potential conflict, sample the
    violation polyhedron under restored affine blockOff/blockIdx glue
    and concrete block shapes, then validate candidates by replay.
    Conflicts with a validated witness yield [Racy]; conflicts no
    sample validates yield [Unknown] (the relaxed analysis may have
    been too coarse, or the launch shapes tried missed the race).
    [Safe] is sound with respect to the dynamic sanitizer: a kernel
    {!sanitize} catches is never [Safe]. *)

type dynamic_conflict = {
  dc_arr : string;
  dc_off : int;  (** linear element offset *)
  dc_kind1 : access_kind;
  dc_block1 : Dim3.t;
  dc_thread1 : Dim3.t;
  dc_kind2 : access_kind;
  dc_block2 : Dim3.t;
  dc_thread2 : Dim3.t;
}

val sanitize :
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:Keval.arg list ->
  dynamic_conflict list
(** Dynamic race sanitizer: interpret the whole launch over
    zero-initialized storage, tracking per-element access history, and
    report one conflict per element touched by two distinct blocks
    where the pair is neither read/read nor same-operator
    atomic/atomic.  Differential oracle for the static verdict.
    Test oracle window: test_verify "verdicts sanitizer" and
    "verdicts random kernels: sanitizer conflicts imply verdict is
    not safe". *)
