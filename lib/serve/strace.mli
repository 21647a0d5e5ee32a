(** Chrome-trace lanes for one scheduler run: the queue as thread 0
    (arrive/requeue/reject/timeout/quarantine/complete instants) and
    one thread per fleet device carrying its lease segments as
    complete events plus a "lost" instant at its death.  All
    timestamps are simulated microseconds; lanes satisfy
    {!Obs.Chrome_trace.validate}. *)

val to_json : Scheduler.report -> Obs.Json.t
val write : file:string -> Scheduler.report -> unit
