(** Bounded ring buffer: keeps the newest [capacity] entries, drops the
    oldest on overflow and counts the drops. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val dropped : 'a t -> int
(** Entries evicted to make room since creation (or the last [clear]). *)

val push : 'a t -> 'a -> unit
val clear : 'a t -> unit

val to_list : 'a t -> 'a list
(** Surviving entries, oldest first. *)
