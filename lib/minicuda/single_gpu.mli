(** The single-GPU reference engine: runs a host program against device
    0 of a simulated machine, as NVCC-compiled binaries do in the
    paper's baseline measurements. *)

type result = {
  machine : Gpusim.Machine.t;
  time : float;  (** simulated end-to-end seconds (after final sync) *)
  exec : Obs.Metrics.t;
      (** the run's ["exec.*"] series from {!Kcompile.launch}:
          compilations, cache hits, fallbacks (all zero on performance
          machines, which skip functional work) *)
}

val run :
  ?machine:Gpusim.Machine.t ->
  ?executor:[ `Compiled | `Interpreter ] ->
  Host_ir.t ->
  result
(** Defaults to a fresh functional single-device test machine.
    [executor] (default [`Compiled]) selects the {!Kcompile} register
    executor with automatic interpreter fallback, or forces the
    {!Keval} interpreter (the bench baseline); functional results are
    bit-identical either way.  Blocks always run sequentially. *)
