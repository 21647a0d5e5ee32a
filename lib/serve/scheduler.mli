(** The serving scheduler: a discrete-event loop over simulated time
    that admits a stream of jobs under the fleet's memory capacity,
    packs them onto disjoint device leases, and runs one partitioned
    engine per dispatched job on a leased sub-machine.

    Robustness invariants (DESIGN.md §17):
    - every submitted job ends in exactly one typed {!Job.outcome};
      overflow and infeasibility are typed rejections, never drops;
    - per-job deadlines preempt in simulated time ([Timed_out]);
    - repeated failures trip a circuit breaker ([Quarantined]) after
      3 strikes, with capped-exponential retry backoff in between;
    - a permanent fleet device loss degrades gracefully: in-flight
      jobs on the dead device preempt into a checkpoint handoff and
      re-queue, later re-admitted onto the surviving devices;
      scheduling continues while at least one device survives;
    - per-job functional output is bit-identical to running the job
      alone on the full machine, under any schedule. *)

type config = {
  fleet : Gpusim.Config.t;
      (** the whole box; [n_devices] is the fleet size and
          [mem_capacity] drives admission *)
  max_queue : int;  (** bounded pending queue (backpressure) *)
  losses : (int * float) list;
      (** fleet-level permanent losses: (device, simulated seconds) *)
}

val config :
  ?max_queue:int -> ?losses:(int * float) list -> Gpusim.Config.t -> config
(** Defaults: queue bound 64, no losses.  Raises [Invalid_argument] on
    a non-positive bound, an out-of-range loss device, a negative loss
    time, or an invalid fleet config.  Duplicate losses of one device
    keep the earliest.  The rest of the policy is fixed: functional
    machines, quarantine at the 3rd failure, a re-queue delay of 1 ms
    doubling per strike to 250 ms (simulated), and engine checkpoints
    every 4 launches per lease. *)

(** One lease occupancy: a job running on a device subset for a span
    of simulated time. *)
type segment = {
  sg_job : string;
  sg_tenant : string;
  sg_devices : int list;  (** fleet device ids, ascending *)
  sg_start : float;
  sg_stop : float;
  sg_outcome : [ `Done | `Preempted | `Timed_out | `Failed ];
}

type report = {
  r_fleet : int;  (** fleet size at start *)
  r_jobs : Job.report list;  (** submission order, one per spec *)
  r_segments : segment list;  (** chronological *)
  r_queue_log : (float * string * string) list;
      (** (time, kind, job): arrive / requeue / reject / timeout /
          quarantine / complete instants, chronological *)
  r_losses : (int * float) list;  (** the schedule that was applied *)
  r_makespan : float;
  r_utilization : float;
      (** busy device-seconds over live device-seconds *)
  r_devices_lost : int;
  r_peak_queue : int;
  r_arena_reused : int;
      (** functional device arrays the run's dispatches drew from its
          arena *)
  r_arena_fresh : int;
      (** functional device arrays allocated because the arena had
          none of the length *)
}

val predicted_runtime : Gpusim.Config.t -> Job.spec -> float
(** Static runtime estimate of one job on its requested lease size:
    each launch's {!Costmodel.ops_per_block} through the simulator's
    wave/autoboost formula, each memcpy's bytes over the host link,
    [Repeat]-multiplied.  Orders deadline admission (see {!run}); an
    ordering heuristic, never a promise to the job. *)

val run : config -> Job.spec list -> report
(** Drive every job to a terminal outcome.  Specs may arrive in any
    order; duplicate job names raise [Invalid_argument].

    Admission order: within a priority band, jobs carrying a deadline
    are served first, ordered by latest feasible start time
    (arrival + deadline - {!predicted_runtime}) — earliest-deadline-
    first weighted by each job's own predicted length, so a
    short-deadline job is not pinned behind a long job that merely
    arrived earlier.  With no deadlines pending the order is exactly
    the original (priority, arrival, submission) FIFO.

    Every dispatch of the run launches through one
    {!Kcompile.kernels} store, so each launch shape compiles once per
    run, and allocates its functional device arrays from one
    {!Gpusim.Buffer.arena}, which gets them back when the dispatch is
    done with its machine ({!Gpusim.Machine.release}).  Neither
    outlives the call. *)

val tenants : report -> Slo.tenant list
(** Per-tenant SLO aggregation of a run. *)

val causal_dag : report -> Obs.Causal.dag
(** Causal DAG of the run, built from the lease segments: a
    "queue_wait" node per dispatched job (arrival to first dispatch),
    a "run" node per lease segment on its devices, chained job-locally
    with requeue gaps surfacing as "requeue_wait" stalls.  Feed it to
    {!Obs.Causal.analyze} / {!Obs.Causal.what_if} for critical-path
    and bottleneck analysis of a serving run. *)

val report_to_json : report -> Obs.Json.t
(** Everything: summary, per-tenant SLOs, per-job outcomes. *)

val publish_metrics : ?into:Obs.Metrics.t -> report -> unit
(** Snapshot the run into a metrics registry under stable ["serve.*"]
    names, with per-tenant labels (default {!Obs.Metrics.default}). *)

val pp : Format.formatter -> report -> unit
(** Human summary: outcome counts, utilization, the arena's reused and
    fresh device arrays, per-tenant SLO table. *)
