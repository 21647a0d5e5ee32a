(** Hierarchical spans recording wall-clock and (optionally) simulated
    time.

    Disabled by default: every instrumentation point costs one
    load-and-branch until {!set_enabled}[ true].  Completed spans land
    in a bounded ring buffer (oldest dropped, drops counted).  The
    span stack lives on the calling domain; instrument host-side
    orchestration only, never worker-domain code. *)

type record = {
  sp_id : int;
  sp_parent : int;  (** id of the enclosing span, or -1 for roots *)
  sp_depth : int;
  sp_name : string;
  sp_cat : string;
  sp_wall_start : float;
  sp_wall_stop : float;
  sp_sim_start : float;  (** nan when the span carried no sim sampler *)
  sp_sim_stop : float;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val set_clock : (unit -> float) -> unit
(** Install the wall clock (default [Sys.time]; entry points linking
    unix install [Unix.gettimeofday]). *)

val with_span : ?cat:string -> ?sim:(unit -> float) -> string -> (unit -> 'a) -> 'a
(** Run the thunk under a span.  [sim] is sampled at entry and exit
    (e.g. the simulated host clock).  No-op indirection when spans are
    disabled; the span is recorded even when the thunk raises. *)

val records : unit -> record list
(** Completed spans, in completion order (children before parents). *)

val dropped : unit -> int
val reset : unit -> unit

(** Aggregation per (category, name). *)
type summary = {
  su_cat : string;
  su_name : string;
  su_count : int;
  su_wall : float;  (** total wall seconds *)
  su_sim : float;  (** total simulated seconds (spans with samplers) *)
}

val summarize : record list -> summary list
(** Sorted by (category, name). *)
