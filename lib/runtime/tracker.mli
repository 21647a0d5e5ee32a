(** The segment tracker (paper §8.1): which device owns the most
    recently written copy of each element range of a virtual buffer.

    Segments are non-overlapping half-open intervals covering the whole
    index space, stored in a B-tree keyed by segment start.  One owner
    per segment — shared copies are not representable, which is the
    paper's stated limitation (redundant transfers for shared data). *)

type segment = { start : int; stop : int; owner : int }

type t

val host : int
(** Owner value meaning "freshest copy is in host memory". *)

val create : len:int -> initial_owner:int -> t
(** A tracker covering [0, len) with a single segment. *)

val create_indexed : len:int -> initial_owner:int -> t
(** {!create}, plus the (owner, start) index that {!coldest} reads.
    Its owners must lie in [\[0, max_indexed_owner\]] and [len] must
    not exceed {!max_indexed_len}; {!create_indexed} and {!write}
    raise [Invalid_argument] otherwise. *)

val max_indexed_len : int
(** The longest index space an indexed tracker can cover (2{^32}). *)

val max_indexed_owner : int
(** The largest owner an indexed tracker can hold (2{^30} - 1). *)

val len : t -> int
val segment_count : t -> int

val ops : t -> int
(** Number of B-tree operations performed so far (cost accounting). *)

val reset_ops : t -> unit

val add_ops : t -> int -> unit
(** Count [n] more operations without touching the segments: replaying
    a memoized walk charges what the walk itself would have. *)

val version : t -> int
(** The tracker's current version.  Versions come from one
    process-wide counter, at creation and at every change to the
    segment map, so they are unique across trackers and never reused:
    equal versions mean the same tracker with the same segments.
    Queries and writes that leave the segments as they were (the
    in-segment fast path of {!write}) keep the version. *)

val query : t -> start:int -> stop:int -> segment list
(** The segments overlapping [start, stop), clipped to it, in order.
    The result covers every element of the range. *)

val iter_range :
  t -> start:int -> stop:int -> (int -> int -> int -> unit) -> unit
(** [iter_range t ~start ~stop f] calls [f start stop owner] for each
    segment overlapping [start, stop), clipped to it, in order: {!query}
    without building the list, charging the same ops. *)

val segment_at : t -> int -> segment
(** The whole (unclipped) segment holding an element, for one op. *)

val owner_at : t -> int -> int
(** Owner of a single element. *)

val write : t -> start:int -> stop:int -> owner:int -> unit
(** Record that [owner] wrote [start, stop): existing segments are
    split or absorbed and equal-owner neighbours are merged.  A write
    inside one segment [owner] already holds leaves the segments as
    they are and charges the ops the split/merge sequence would have:
    [(s < start ? 3 : 1) + (stop < e ? 3 : 1) + 5 + (stop < len ? 1 : 0)]
    for that segment [\[s, e)]. *)

val coldest : t -> below:int -> segment option
(** The whole segment with the smallest owner in [\[1, below)], the
    lowest-starting one among equals; [None] when there is none.  One
    index descent.  Raises [Invalid_argument] on a tracker not made by
    {!create_indexed}. *)

val owned_by : t -> owner:int -> segment list
(** The segments [owner] holds, in order.  One owner per segment, so
    for a device id this is exactly what that device *exclusively*
    owns — the recovery metadata consulted when it is lost. *)

val owned_count : t -> owner:int -> int
(** Number of elements [owner] holds. *)

val segments : t -> segment list
(** All segments, in order. *)

val check_invariants : t -> unit
(** Verify full coverage, no overlap, sortedness and maximal merging,
    and for an indexed tracker that the index holds exactly one entry
    per segment, under that segment's (owner, start); raises [Failure]
    on violation.  Test support. *)

val pp : Format.formatter -> t -> unit
