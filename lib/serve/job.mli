(** Jobs of the serving layer: what tenants submit and what they get
    back.  Every submitted job ends in exactly one typed {!outcome} —
    the scheduler never drops work silently. *)

type spec = {
  name : string;  (** unique within one scheduler run *)
  tenant : string;
  prog : Host_ir.t;
  exe : Mekong.Multi_gpu.exe option;
      (** pre-linked binary; [None] makes the scheduler compile the
          program on arrival (a [Compile_error] rejection on failure) *)
  priority : int;  (** higher dispatches first *)
  arrival : float;  (** submission time, simulated seconds *)
  deadline : float option;
      (** turnaround budget relative to [arrival]; when it expires the
          job is preempted and reported [Timed_out] *)
  devices : int;  (** requested lease size (clamped to the live fleet) *)
  faults : Gpusim.Faults.spec option;
      (** job-local fault injection on the leased sub-machine *)
}

val make :
  ?exe:Mekong.Multi_gpu.exe ->
  ?priority:int ->
  ?arrival:float ->
  ?deadline:float ->
  ?devices:int ->
  ?faults:Gpusim.Faults.spec ->
  name:string ->
  tenant:string ->
  Host_ir.t ->
  spec
(** Defaults: priority 0, arrival 0.0, no deadline, 1 device, no
    faults.  Raises [Invalid_argument] on a negative arrival, a
    non-positive deadline or a non-positive device request. *)

type reject_reason =
  | Queue_full of int  (** the bounded queue's limit *)
  | Infeasible of string
      (** footprint cannot fit the live fleet under the capacity *)
  | Compile_error of string
  | Fleet_lost  (** no device survives *)

val reject_reason_to_string : reject_reason -> string

type outcome =
  | Completed of {
      started : float;  (** first dispatch *)
      finished : float;
      queue_latency : float;  (** started - arrival *)
      turnaround : float;  (** finished - arrival *)
      engine_time : float;  (** simulated engine seconds, all attempts *)
      attempts : int;  (** dispatches, including preempted/failed ones *)
      preemptions : int;  (** device-loss preempt/requeue cycles *)
      retries : int;  (** failure retries (circuit-breaker strikes) *)
    }
  | Rejected of { at : float; reason : reject_reason }
  | Timed_out of { at : float; started : float option }
  | Quarantined of { at : float; strikes : int; last_error : string }
      (** the circuit breaker gave up on a poison job *)

type report = {
  r_name : string;
  r_tenant : string;
  r_priority : int;
  r_arrival : float;
  r_outcome : outcome;
}

val report_to_json : report -> Obs.Json.t
