(** Chrome-trace export of one simulated run: devices as processes,
    engines (compute stream, copy engines, fabric, host) as threads,
    plus a lane for host-side spans that carry simulated time and —
    when a causal analysis is supplied — a "critical path" lane whose
    segments tile the makespan, chained by flow arrows.  All
    timestamps are simulated microseconds.  Every engine lane is
    rendered from {!Machine.trace}; enable {!Machine.enable_trace}
    before the run. *)

val device_pid : int -> int
(** Process id a device's lanes appear under (host is 0, fabric 1).
    Test oracle window: test_obs "machine trace lanes match busy time
    under faults". *)

val events :
  ?spans:Obs.Span.record list ->
  ?critpath:Obs.Causal.analysis ->
  Machine.t ->
  Obs.Chrome_trace.event list
(** Metadata first, then timing events sorted per lane: what {!write}
    writes.  Test oracle window: test_obs "trace golden", "trace valid
    with one lane per engine" and "machine trace lanes match busy time
    under faults", test_critpath "validator traced export validates". *)

val write :
  ?spans:Obs.Span.record list ->
  ?critpath:Obs.Causal.analysis ->
  file:string ->
  Machine.t ->
  unit
