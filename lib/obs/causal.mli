(** Causal DAG of one simulated run: every timeline operation is a
    node recording its scheduling constraints — causal predecessors
    (events, stream ordering, the issuing host op), the resources it
    occupied, and any contention stall between its constraint time and
    its actual start.  The recording order is a topological order, so
    the critical path is an exact backward walk (per-category
    attribution tiles [0, makespan] with no residual) and what-if
    replay is a single forward pass. *)

type node = {
  n_id : int;
  n_label : string;  (** display name *)
  n_category : string;  (** attribution bucket: compute, h2d, p2p, ... *)
  n_phase : string;  (** engine phase active at record time, "" = none *)
  n_resources : string list;  (** engines held for [start, finish] *)
  n_ready : float;  (** max over predecessor finishes (constraint time) *)
  n_start : float;  (** actual start; [start - ready] is contention wait *)
  n_finish : float;
  n_fixed : float;  (** bandwidth-invariant (latency) part of the duration *)
  n_legs : (string * float) list;  (** (link, occupancy seconds) held *)
  n_deps : int list;  (** causal predecessor node ids *)
  n_rpred : int list;  (** in-order predecessor per occupied resource *)
  n_wait : string;  (** category of a [ready, start) stall *)
}

type dag

val nodes : dag -> node array

(** {1 Builder} — bounded; past capacity nodes are dropped (newest
    lost) and counted, since a truncated DAG must be detectable. *)

type builder

val builder : ?capacity:int -> unit -> builder
(** Default capacity 1,048,576 nodes. *)

val add :
  builder ->
  label:string ->
  category:string ->
  phase:string ->
  resources:string list ->
  ready:float ->
  start:float ->
  finish:float ->
  fixed:float ->
  legs:(string * float) list ->
  deps:int list ->
  wait:string ->
  int
(** Record one operation; returns its node id, or -1 when dropped.
    Negative ids in [deps] are filtered out, so a dropped dependency
    degrades to a missing edge rather than an error.  Resource-order
    predecessors are derived from the last node recorded on each
    resource. *)

val node_at : builder -> float -> int option
(** Resolve a completion time to the node that produced it (the newest
    on ties); [None] for times no recorded node finishes at. *)

val last_on : builder -> string -> int option
(** Last node recorded on a resource. *)

val builder_dropped : builder -> int
val dag : builder -> dag

(** {1 Critical path} *)

type segment = {
  sg_start : float;
  sg_finish : float;
  sg_category : string;
  sg_label : string;
  sg_node : int;  (** node id, or -1 for gap (wait / idle) segments *)
}

type analysis = {
  an_makespan : float;
  an_segments : segment list;
      (** adjacent, earliest first; tiles [0, makespan] exactly *)
  an_by_category : (string * float) list;
      (** per-category attribution, largest first; sums to the makespan *)
  an_replay_drift : float;
      (** relative drift of the identity replay vs. the recorded
          makespan — the backfill approximation's fidelity bound *)
  an_nodes : int;
  an_dropped : int;  (** non-zero means the DAG is truncated: warn *)
}

val analyze : dag -> analysis

val critical_path_length : analysis -> float
(** Attributed time excluding idle — always <= the makespan. *)

(** {1 What-if} *)

val identity_replay : dag -> float
(** The recorded schedule replayed forward unchanged; {!what_if}
    corrects its predictions by this replay's drift from the makespan.
    Links replay in recorded (admission) order — backfill reordering
    is approximated.
    Test oracle window: test_critpath "hand-computed serial chain"
    and "properties identity replay matches on barriered DAGs". *)

val what_if : dag -> category:string -> factor:float -> float
(** Predicted makespan with [category]'s cost multiplied by [factor]
    (0 = removed).  Bandwidth-like categories ("h2d", "d2h", "p2p",
    "spill", "xfer") rescale the variable part of matching transfers
    plus their link occupancies; "link" rescales only occupancies
    (pure contention); "compute", "barrier", "host" and any literal
    category rescale full durations.  The prediction is
    drift-corrected: the replay estimates the {e relative} change and
    applies it to the recorded makespan, cancelling the backfill
    approximation's shared bias (a no-op on drift-free DAGs). *)

val what_if_categories : string list
(** The standard categories the CLI sweeps. *)

val to_json : dag -> Json.t
val of_json : Json.t -> (dag, string) result
