(** Per-tenant SLO aggregation: outcome counts, queue-latency and
    turnaround percentiles, device-seconds consumed. *)

type tenant = {
  t_name : string;
  t_submitted : int;
  t_completed : int;
  t_rejected : int;
  t_timed_out : int;
  t_quarantined : int;
  t_retries : int;  (** failure retries across the tenant's jobs *)
  t_preemptions : int;  (** loss-preempt/requeue cycles *)
  t_queue_p50 : float;  (** seconds; 0 when nothing completed *)
  t_queue_p99 : float;
  t_turnaround_p50 : float;
  t_turnaround_p99 : float;
  t_device_seconds : float;  (** lease occupancy, all attempts *)
  t_burn_queue : float;
      (** summed queue wait of the tenant's completed jobs, seconds *)
  t_burn_run : float;  (** summed engine time of completed jobs *)
  t_burn_stall : float;
      (** turnaround not explained by queue or engine time (requeue
          gaps, retry backoff), clamped at 0 per job *)
}

val collect :
  jobs:Job.report list -> device_seconds:(string * float) list ->
  tenant list
(** Aggregate job reports (plus per-tenant device-second contributions
    from lease segments) into one row per tenant, sorted by name. *)

val to_json : tenant list -> Obs.Json.t
val pp : Format.formatter -> tenant list -> unit
(** An aligned table, one tenant per row. *)
