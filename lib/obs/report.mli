(** Per-run profile report: device utilization, byte matrix, counters
    and span summary.  Plain data filled by collectors in higher
    layers; rendered as text or JSON. *)

type device_row = {
  dr_device : int;
  dr_compute : float;  (** busy seconds on the compute engine *)
  dr_copy_in : float;
  dr_copy_out : float;
  dr_idle : float;  (** span minus compute busy time, clamped at 0 *)
  dr_util : float;
      (** compute-engine busy fraction of the span, clamped to [0, 1] *)
  dr_lost : bool;
}

type t = {
  rp_elapsed : float;
  rp_devices : device_row list;
  rp_host_busy : (string * float) list;
  rp_fabric_busy : float;
  rp_matrix : ((int * int) * int) list;
      (** bytes per (src, dst) device pair; -1 is the host *)
  rp_counters : (string * float) list;
  rp_spans : Span.summary list;
}

val matrix_totals : t -> int * int * int
(** (h2d, d2h, p2p) byte totals of the matrix — must reconcile exactly
    with [Machine.stats]. *)

val endpoint_name : int -> string
(** ["host"] for -1, ["devN"] otherwise. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val to_json : t -> Json.t
