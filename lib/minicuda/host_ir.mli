(** Host programs: the abstract counterpart of a single-GPU CUDA host
    source file.  The same program is executed by the single-GPU
    reference engine ({!Single_gpu}) and by the partitioning runtime —
    one source, two binaries, as in the paper. *)

type harg = HInt of int | HFloat of float | HBuf of string

type host_array = { len : int; data : float array option }
(** Real data for functional runs, or a phantom of the right extent for
    performance runs at paper scale. *)

val host_data : float array -> host_array
val host_phantom : int -> host_array

val host_data_exn : host_array -> float array
(** Raises [Invalid_argument] on phantoms. *)

type stmt =
  | Malloc of string * int  (** buffer name, element count *)
  | Memcpy_h2d of { dst : string; src : host_array }
  | Memcpy_d2h of { dst : host_array; src : string }
  | Launch of { kernel : Kir.t; grid : Dim3.t; block : Dim3.t; args : harg list }
  | Repeat of int * stmt list
  | Swap of string * string  (** exchange two buffer bindings *)
  | Free of string
  | Sync

type t = { name : string; body : stmt list }

val program : name:string -> stmt list -> t

val scalar_args : harg list -> Keval.arg list
(** Scalar argument values in kernel-parameter order (arrays omitted). *)

val array_bindings : Kir.t -> harg list -> (string * string) list
(** Pair each array parameter with the buffer name bound to it. *)

val scalar_bindings : Kir.t -> harg list -> (string * int) list
(** Integer scalar bindings (name, value) for analysis and costing. *)

val validate : t -> unit
(** Static checks: buffers allocated before use, freed at most once,
    never allocated twice (across the iterations of a [Repeat] too),
    launch arguments matching kernel signatures.  Raises
    [Invalid_argument] on the first problem. *)

val kernels : t -> Kir.t list
(** All kernels launched by the program, deduplicated by name. *)
