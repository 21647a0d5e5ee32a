(** The single-GPU reference engine: runs a host program against device
    0 of a simulated machine, as NVCC-compiled binaries do in the
    paper's baseline measurements. *)

type result = {
  machine : Gpusim.Machine.t;
  time : float;  (** simulated end-to-end seconds (after final sync) *)
  exec : Obs.Metrics.t;
      (** the run's ["exec.*"] series: {!Kcompile.launch}'s
          compilations, cache hits and launches, and [exec.interpreted],
          the launches run by {!Keval} (all zero on performance
          machines, which skip functional work) *)
}

val run :
  ?machine:Gpusim.Machine.t ->
  ?executor:[ `Compiled | `Interpreter ] ->
  Host_ir.t ->
  result
(** Defaults to a fresh functional single-device test machine.
    [executor] (default [`Compiled]) runs every launch through the
    {!Kcompile} register executor, or through {!Keval.run} (the
    semantics oracle and the bench baseline), each launch then
    counted in [exec.interpreted]; functional results are
    bit-identical either way.  Blocks always run sequentially.
    Raises [Invalid_argument] where {!Host_ir.validate} does, an
    ill-typed kernel ({!Kir.check}) included. *)
