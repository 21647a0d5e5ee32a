(** Deterministic synthetic job mixes for the serving campaigns: a
    seeded stream of small functional workloads (vecadd, matmul,
    hotspot, nbody at a couple of sizes each) with drawn tenants,
    priorities, arrival gaps and lease requests, plus optional poison
    jobs whose kernels always fault (exercising the circuit breaker).

    Identical (seed, parameters) produce the identical mix, including
    buffer contents — the basis for the bench's bit-identity gate. *)

type built = {
  b_spec : Job.spec;  (** pre-linked: [spec.exe] is populated *)
  b_key : string;
      (** workload identity ("matmul-32", ...): two jobs with the same
          key compute bit-identical outputs from bit-identical inputs *)
  b_output : float array;
      (** the array this job's program writes its result into *)
  b_solo : unit -> Mekong.Multi_gpu.exe * float array;
      (** a fresh identical instance, for solo-run comparison *)
  b_poison : bool;
}

val generate :
  ?seed:int ->
  ?tenants:int ->
  ?poison:int ->
  ?deadline:float ->
  ?mean_gap:float ->
  jobs:int ->
  unit ->
  built list
(** Defaults: seed 1, 3 tenants, no poison jobs, no deadline, mean
    arrival gap 200µs.  [poison] poison jobs are spread evenly through
    the stream.  Raises [Invalid_argument] on non-positive [jobs] /
    [tenants] or [poison] outside [0, jobs]. *)
