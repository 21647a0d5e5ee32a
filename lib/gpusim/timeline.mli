(** One in-order execution engine (a device stream, a copy engine, the
    host thread, or the shared fabric) in the discrete-event
    simulation.  It keeps clocks and busy time only; the per-operation
    record is [Machine.trace]. *)

type t

val create : string -> t
val name : t -> string

val ready : t -> float
(** Completion time of the latest-finishing scheduled operation. *)

val clock : t -> float array
(** The engine's clock cell, updated in place by every operation:
    [.(0)] is {!ready}, [.(1)] and [.(2)] the start and finish of the
    last scheduled operation.  Callers only read it.  It exists for
    hot callers in other modules: the dev profile compiles with
    [-opaque], so {!ready} is never inlined and boxes its result on
    every call, while an array read does not. *)

val schedule : t -> after:float -> duration:float -> category:string -> unit
(** Append an operation that cannot start before [after]; its start
    and finish are then in {!clock}.  Busy time is accumulated per
    [category]. *)

val schedule_in : t -> float array -> category:string -> unit
val schedule_at_in : t -> float array -> category:string -> unit
(** {!schedule} with [after] and [duration] read from slots 0 and 1 of
    the array, for hot callers in other modules, which under [-opaque]
    would box every float argument; and an operation recorded at
    exactly [start] (slot 0) for [duration] (slot 1), without clamping
    against [ready] (the engine's ready still advances to at least the
    operation's finish): for contention lanes whose admission is
    computed externally with backfill, where a later-recorded
    operation may start before an earlier reservation ends. *)

(** {2 Charge tapes}

    A tape records a stretch of charges so that they can be added
    again without scheduling anything: the same adds, in the same
    order, per busy slot.  [Machine] records one per launch graph and
    replays it for the periods a fold skips. *)

type tape

val new_tape : unit -> tape
(** A tape for an accumulator outside any timeline (charged with
    {!push_in}). *)

val timeline_tape : t -> tape
(** The tape each charge of the timeline goes to while it records. *)

val start_tape : tape -> unit
(** Record every later charge, until {!stop_tape}. *)

val push_in : tape -> int -> float array -> unit
(** [push_in tp s a] records a charge of [a.(0)] seconds to slot [s]
    while [tp] records (the float travels in the array, unboxed). *)

val stop_tape : tape -> (int * float array) list
(** Stop recording and return, per slot in slot order, the seconds
    charged to it in charge order ([[]] when none). *)

val repeat_adds : float array -> int -> float array -> times:int -> unit
(** [repeat_adds acc s amounts ~times] adds [amounts] to [acc.(s)] in
    order, [times] times over: the float operations of charging them
    one by one. *)

val recharge : t -> int -> float array -> times:int -> unit
(** {!repeat_adds} on one busy slot of the timeline. *)

val shift_in : t -> float array -> unit
(** Move every cell of {!clock} later by [a.(0)] seconds, read from
    the array so that the float is not boxed.  Only a fold that has
    proved the shift exact calls it (DESIGN.md §4). *)

val busy_in : t -> string -> float
(** Accumulated busy seconds in one category. *)

val total_busy : t -> float

val categories : t -> string list
(** Categories with accumulated busy time, in sorted order (stable
    across hash seeds). *)

val idle_in : t -> span:float -> float
(** [span] minus the total busy seconds, clamped at zero. *)

val utilization : t -> span:float -> float
(** Busy fraction of a span, clamped to [0, 1]; 0 for empty spans. *)

