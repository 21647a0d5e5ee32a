(** Polyhedral access analysis of kernel IR (paper §4).

    For every global-memory array a kernel touches, build read and
    write maps from the 6-dimensional grid space
    (blockOff.{z,y,x}, blockIdx.{z,y,x}) to the array's index space:
    the non-affine [blockIdx * blockDim] product becomes the dedicated
    blockOff dimension (Eq. 5–7), thread ids are bounded by the block
    dimensions and projected out (§4.1), affine guards become domain
    constraints, unanalyzable reads over-approximate to the whole
    array, and unanalyzable or non-injective writes reject the
    kernel. *)

open Ppoly

type error =
  | Unsupported of string
  | Non_injective_write of string
  | Inexact_write of string

val error_message : error -> string

(** {2 Names of the analysis space} *)

val bo_name : Dim3.axis -> string
(** The blockOff dimension (Eq. 6). *)

val b_name : Dim3.axis -> string
val bdim_name : Dim3.axis -> string
val gdim_name : Dim3.axis -> string

val box_min_bo : Dim3.axis -> string
(** Partition-box corner parameters (paper §6): blockOff lower bound. *)

val box_max_bo : Dim3.axis -> string
val box_min_b : Dim3.axis -> string
val box_max_b : Dim3.axis -> string

val out_name : string -> int -> string
(** Name of an array's i-th index dimension in the range spaces. *)

(** {2 Results} *)

type array_access = {
  arr : string;
  dims : Kir.dim array;
  read : Pmap.t option;  (** [None] when the array is never read *)
  write : Pmap.t option;  (** plain (non-atomic) writes *)
  atomic : Pmap.t option;
      (** atomic read-modify-write accesses, when exactly modeled *)
  atomic_ops : Kir.atomic_op list;
      (** distinct atomic operators applied to this array; [[]] = none *)
  atomic_exact : bool;
      (** [false] when atomic accesses were unanalyzable (e.g.
          data-dependent histogram bins) *)
  read_exact : bool;  (** [false] when reads were over-approximated *)
  write_instrumented : bool;
      (** writes exist but are unanalyzable; collected at run time by
          the instrumentation fallback (paper §11) *)
  write_proved : bool;
      (** {!analyze} proved [write] injective across blocks (vacuously
          when there is none): [false] under [check_writes:false] or
          extra [assume] rows, since the proof holds only under the
          assumptions it used.  The race verifier skips the
          write/write check when it is set. *)
}

type t = {
  kernel : Kir.t;
  params : string array;
  grid_space : Space.t;
  accesses : array_access list;
  strategy : Dim3.axis;  (** suggested partitioning axis (§4.1) *)
}

type violation = { vi_space : Space.t; vi_poly : Poly.t }
(** A satisfiable cross-block conflict over the doubled space
    [params; dims(dom)$1 ++ dims(dom)$2 ++ dims(ran)]: integer points
    assign two grid positions and a common array element they both
    touch.  The data-race verifier samples it for concrete witnesses. *)

val find_violations :
  ?assume:((int * string) list * int) list ->
  Pmap.t -> Pmap.t -> violation list
(** All satisfiable (piece-pair, sign-pattern) conflict polyhedra of
    {!cross_block_disjoint}, not just the first that decides it: the
    blockOff/blockIdx relaxation can make a pattern satisfiable that
    admits no exact witness, so the verifier tries every candidate. *)

val cross_block_disjoint :
  ?assume:((int * string) list * int) list -> Pmap.t -> Pmap.t -> bool
(** [cross_block_disjoint m1 m2]: can no two {e distinct} blocks b1,
    b2 of the same launch have [m1(b1)] and [m2(b2)] overlap?  Both
    maps must range over the same array of the same kernel.  With
    [m1 = m2] = a write map this is the injectivity check {!analyze}
    applies to writes; with
    [m1] = write and [m2] = read it is the cross-block
    read-after-write hazard check gating domain-parallel execution.
    Axes unused by [m1] follow the degenerate-grid convention of that
    check. *)

val default_assume : Kir.t -> ((int * string) list * int) list
(** The context constraints {!analyze} adds automatically: every
    array-extent parameter is at least 1. *)

val analyze :
  ?assume:((int * string) list * int) list ->
  ?check_writes:bool ->
  ?on_inexact_write:[ `Reject | `Instrument ] ->
  Kir.t ->
  (t, error) result
(** Analyze a kernel.  [assume] adds context constraints over scalar
    parameters (array extents are assumed positive automatically);
    [check_writes:false] skips the injectivity/exactness rejection
    (used by diagnostics and the instrumentation fallback).  Each
    array's [write_proved] is set only when the check ran without
    extra [assume] rows. *)

