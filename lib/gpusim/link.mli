(** One contention lane of the fabric: a timeline for busy accounting,
    plus a time-ordered reservation index that admits transfers by
    time with backfill (a transfer may start before a later-starting
    reservation issued earlier, if it fits in the gap). *)

type t

val create : string -> t
(** An idle link whose timeline carries the given name. *)

val timeline : t -> Timeline.t

val reservations : t -> (float * float) list
(** Current reservations as [(start, stop)], sorted, disjoint and
    coalesced (no two touch).  Drained ones are dropped at each
    admission. *)

val live : t -> int
(** The number of {!reservations}. *)

val save_window : t -> float array -> int -> unit
(** [save_window l dst off] writes the {!live} reservations' starts,
    then their stops, in order, to [dst] from [off]. *)

val shift_in : t -> float array -> unit
(** Move every reservation later by [a.(0)] seconds (the float travels
    in the array, unboxed).  Only a fold that has proved the shift
    exact calls it (DESIGN.md §4). *)

val admit_in : float array -> t array -> float array -> unit
(** [admit_in a legs occupancy], with [now = a.(0)] and
    [start = a.(1)], finds the earliest time [>= start] at which every
    leg [legs.(i)] is simultaneously free for [occupancy.(i)] seconds;
    the route is then reserved on every leg from that time and
    scheduled on each link's timeline (category ["bus"]), and the time
    is written to [a.(1)].  [now] is the transfer's host issue time, a
    lower bound on every later admission, below which reservations are
    dropped.  Occupancies must be positive.  An empty route is
    admitted at [start].  The floats travel in [a] because under
    [-opaque] a float passed to or returned from another module is
    boxed; nothing is allocated except when a link's reservation
    arrays grow. *)
