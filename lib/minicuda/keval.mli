(** Direct interpreter for the kernel IR: executes every thread of a
    grid (or a sub-range of its blocks) sequentially.  Used for the
    bit-exact functional runs that validate the partitioning
    compiler. *)

type value = VInt of int | VFloat of float | VBool of bool

type arg = AInt of int | AFloat of float
(** Launch-time values for the scalar kernel parameters, in parameter
    order (array parameters are bound through [load]/[store]). *)

(** {2 Pieces shared with the compiled executor ({!Kcompile})}

    Both engines resolve launch arguments and report access errors
    through the same code, so diagnostics and binding semantics cannot
    drift apart. *)

val bind_scalars : Kir.t -> args:arg list -> (string, value) Hashtbl.t
(** Bind the scalar parameters to the launch arguments: a [Scalar] to
    a [VInt], an [Fscalar] to a [VFloat] (coercing an integer
    argument).  Raises [Invalid_argument] on an argument-count
    mismatch or an [AFloat] bound to a [Scalar]. *)

val resolve_dims :
  Kir.t -> scalars:(string, value) Hashtbl.t -> (string * int array) list
(** Resolve every array parameter's dimensions ([Dim_param] via the
    bound scalars) to concrete extents. *)

val arity_error : arr:string -> expected:int -> got:int -> 'a
(** Raise the subscript-arity diagnostic, naming the offending
    array. *)

val bounds_error : arr:string -> dim:int -> extent:int -> int -> 'a
(** Raise the out-of-bounds diagnostic, naming the offending array. *)

type trace_event = {
  te_kind : [ `Load | `Store | `Atomic of Kir.atomic_op ];
  te_arr : string;
  te_off : int;  (** linear element offset *)
  te_block : Dim3.t;
  te_thread : Dim3.t;
}
(** One global-memory access, as seen by the [trace] hook of {!run}.
    The data-race sanitizer and the witness validator replay kernels
    through the interpreter and watch this stream. *)

val run :
  ?block_range:Dim3.t * Dim3.t ->
  ?trace:(trace_event -> unit) ->
  Kir.t ->
  grid:Dim3.t ->
  block:Dim3.t ->
  args:arg list ->
  load:(string -> int -> float) ->
  store:(string -> int -> float -> unit) ->
  unit
(** Run a kernel over its grid.  [load]/[store] receive the array
    parameter name and a linear element offset (row-major).
    [block_range] restricts execution to the inclusive block-coordinate
    range.  [trace] observes every global-memory access, before the
    access's own [load]/[store] callbacks fire. *)

val launches : Obs.Metrics.t -> Obs.Metrics.counter
(** The registry's [exec.interpreted] counter: launches run by {!run}
    instead of the compiled executor ({!Single_gpu}'s [`Interpreter]
    mode).  {!Kcompile.executor} registers it in every engine's
    registry. *)
