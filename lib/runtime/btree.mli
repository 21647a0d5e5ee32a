(** The segment tracker's B-tree (paper §8.1: "a B-Tree map using the
    start of each segment as the key").

    A mutable B-tree over int keys whose entries carry two int
    payloads, [stop] and [owner], stored unboxed in the nodes.  Lookups
    leave the entry they found in the tree's cursor fields ({!t.key},
    {!t.stop}, {!t.owner}); descents, walks, insertions and removals
    allocate nothing but the node a split makes.  A lookup, insertion
    or removal near the last one works in that leaf without a
    descent. *)

type node

type t = private {
  mutable root : node;
  mutable size : int;  (** entries *)
  mutable key : int;  (** the cursor: the entry the last lookup found *)
  mutable stop : int;
  mutable owner : int;
  mutable seen : int;  (** internal: a walk's count so far *)
  mutable at : node;  (** internal: the finger *)
}

val create : unit -> t

val floor : t -> int -> bool
(** Put the entry with the largest key [<= k] into the cursor; [false]
    (cursor untouched) when there is none. *)

val ceil : t -> int -> bool
(** Put the entry with the smallest key [>= k] into the cursor; [false]
    (cursor untouched) when there is none. *)

val walk : t -> start:int -> stop:int -> (int -> int -> int -> unit) -> int
(** From the entry with the largest key [<= start] (the first entry if
    there is none), in key order, call [f (max k start) (min s stop) o]
    for each entry [(k, s, o)] with [k < stop].  Returns the number of
    entries looked at, the first one at or past [stop] included.  [f]
    must not change the tree; the walk moves the cursor. *)

val add : t -> int -> stop:int -> owner:int -> unit
(** Insert, or replace the payloads of an existing key. *)

val remove_first : t -> lo:int -> hi:int -> bool
(** Remove the entry with the smallest key in [\[lo, hi)], leaving it
    in the cursor; [false] when there is none. *)

val remove : t -> int -> unit
(** Remove a key if present. *)

val validate : t -> int
(** Check key order, node fill, balance and [size]; returns the depth.
    Raises [Failure] on violation.  Test support. *)
