(** One contention lane of the fabric: a timeline for busy accounting
    and the trace, plus a time-ordered reservation index that admits
    transfers by time with backfill (a transfer may start before a
    later-starting reservation issued earlier, if it fits in the
    gap). *)

type t

val create : string -> t
(** An idle link whose timeline carries the given name. *)

val timeline : t -> Timeline.t

val reservations : t -> (float * float) list
(** Current reservations as [(start, stop)], sorted, disjoint and
    coalesced (no two touch).  Drained ones are dropped at each
    admission. *)

val admit : now:float -> start:float -> (t * float) list -> float
(** [admit ~now ~start legs] is the earliest time [>= start] at which
    every leg [(link, occupancy)] is simultaneously free for its
    occupancy; the route is then reserved on every leg from that time
    and scheduled on each link's timeline (category ["bus"]).  [now] is
    the transfer's host issue time, a lower bound on every later
    admission, below which reservations are dropped.  Occupancies must
    be positive.  An empty route is admitted at [start]. *)
