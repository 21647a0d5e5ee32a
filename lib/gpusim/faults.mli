(** Seeded, deterministic fault injection for the machine simulator.

    Covers transient kernel faults, transient transfer faults and
    permanent device loss (scheduled at a simulated time or drawn per
    operation).  All randomness comes from one splitmix64 stream seeded
    by the spec, so the fault schedule is a pure function of
    (seed, operation sequence) — two runs over the same program see the
    identical schedule.  A cap on consecutive transient faults bounds
    the retries of one operation retried alone; it does not bound the
    retries of a statement of many operations, which succeeds only when
    all of them draw no fault in one attempt. *)

type spec = {
  seed : int;
  kernel_fault_rate : float;  (** transient-fault probability per launch *)
  transfer_fault_rate : float;  (** per transfer (h2d/d2h/p2p) *)
  loss_rate : float;  (** permanent-loss probability per operation *)
  scheduled_losses : (int * float) list;
      (** (device, simulated seconds): the device is lost at the first
          operation touching it whose issue time — or whose engines'
          queued work — reaches that time (work executing at or after
          the death instant must fail even if issued earlier) *)
  max_consecutive : int;
      (** forced success after this many transient faults in a row *)
}

val null_spec : spec
(** Seed 0, all rates zero, no scheduled losses. *)

val is_null : spec -> bool
(** True when the spec can never produce a fault. *)

val spec_of_string : string -> (spec, string) result
(** Parse ["SEED,RATE[,DEV@TIME...]"]: [RATE] applies to kernels and
    transfers alike, each [DEV@TIME] schedules a permanent loss.  A
    rate that is not in 0 <= RATE < 1 and a negative or non-finite
    [TIME] are rejected. *)

val check_devices : spec -> n_devices:int -> (unit, string) result
(** [Error "device D is out of range for N GPUs"] when a scheduled loss
    names a device outside 0 <= D < [n_devices]. *)

type counters = {
  mutable kernel_faults : int;
  mutable transfer_faults : int;
  mutable losses : int;
}

type t

val create : spec -> t
val spec : t -> spec
val counters : t -> counters

val uniform : t -> float
(** Next uniform float in [0, 1) from the stream (exposed for tests). *)

val device_lost : t -> int -> bool

val mark_lost : t -> int -> unit
(** Force a permanent loss (test support). *)

type outcome = [ `Ok | `Transient | `Lost ]

val kernel_outcome : t -> device:int -> now:float -> outcome
(** Fate of a kernel launch on [device] issued at simulated [now].
    [`Lost] marks the device lost as a side effect. *)

val transfer_outcome :
  t -> devices:int list -> now:float -> [ `Ok | `Transient | `Lost of int ]
(** Fate of a transfer touching [devices] (negative ids — the host —
    are ignored).  [`Lost d] names the device that failed. *)

