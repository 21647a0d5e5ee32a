(** The segment tracker (paper §8.1): which device owns the most
    recently written copy of each element range of a virtual buffer.

    Segments are non-overlapping half-open intervals covering the whole
    index space, stored unboxed in a B-tree keyed by segment start
    ({!Btree}).  Lookups, walks and writes allocate nothing but the
    node a B-tree split makes; {!query}, {!owned_by} and {!segments}
    build records and lists for callers off the hot path.  One owner
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
(** The largest owner an indexed tracker can hold (2{^30} - 1).
    Test oracle window: test_runtime "tracker index limits". *)

val segment_count : t -> int
(** Test oracle window: test_runtime "tracker basic", "tracker
    spanning write", "tracker tracker hot path allocation", "vbuf
    h2d/d2h roundtrip" and "vbuf beta/gamma configs". *)

val ops : t -> int
(** Number of B-tree operations performed so far (cost accounting). *)

val version : t -> int
(** The tracker's current version.  Versions come from one
    process-wide counter, at creation and at every change to the
    segment map, so they are unique across trackers and never reused:
    equal versions mean the same tracker with the same segments.  A
    write that changes the segments takes one fresh version; queries
    and writes that leave the segments as they were (the in-segment
    fast path of {!write}) keep it. *)

val query : t -> start:int -> stop:int -> segment list
(** The segments overlapping [start, stop), clipped to it, in order.
    The result covers every element of the range. *)

val iter_range :
  t -> start:int -> stop:int -> (int -> int -> int -> unit) -> unit
(** [iter_range t ~start ~stop f] calls [f start stop owner] for each
    segment overlapping [start, stop), clipped to it, in order: {!query}
    without building the list, charging the same ops.  [f] must not
    write the tracker. *)

val seek : t -> int -> unit
(** [seek t idx] finds the whole (unclipped) segment holding element
    [idx], for one op, and leaves it for {!found_start}, {!found_stop}
    and {!found_owner} to read until the next other call on [t].
    Allocates nothing. *)

val found_start : t -> int
val found_stop : t -> int
val found_owner : t -> int

val owner_at : t -> int -> int
(** Owner of a single element: {!seek}, for one op.
    Test oracle window: test_runtime "tracker basic", "vbuf sync for
    read" and the other vbuf cases, test_mem "evict loop fault at the
    k-th victim". *)

val write : t -> start:int -> stop:int -> owner:int -> unit
(** Record that [owner] wrote [start, stop): existing segments are
    split or absorbed and equal-owner neighbours are merged.  A write
    inside one segment [owner] already holds leaves the segments as
    they are and charges the ops the split/merge sequence would have:
    [(s < start ? 3 : 1) + (stop < e ? 3 : 1) + 5 + (stop < len ? 1 : 0)]
    for that segment [\[s, e)]. *)

val coldest : t -> below:int -> bool
(** Find the whole segment with the smallest owner in [\[1, below)],
    the lowest-starting one among equals, and leave it for the
    [found_] readers as {!seek} does; [false] when there is none.  One
    index descent, charging no op, allocating nothing; the first
    {!found_stop} after it looks the stop up in the map.  Raises
    [Invalid_argument] on a tracker not made by {!create_indexed}. *)

val owned_by : t -> owner:int -> segment list
(** The segments [owner] holds, in order.  One owner per segment, so
    for a device id this is exactly what that device *exclusively*
    owns — the recovery metadata consulted when it is lost. *)

val segments : t -> segment list
(** All segments, in order. *)

val check_invariants : t -> unit
(** Verify full coverage, no overlap, sortedness and maximal merging,
    and for an indexed tracker that the index holds exactly one entry
    per segment with a positive owner, under that segment's (owner,
    start), and nothing else; raises [Failure] on violation.  Test
    support. *)
