(** Registry of named counters and gauges with labels.
    The engine counts into one registry per run through {!counter}
    handles; modules that keep a stats record snapshot it in here with
    a [publish_*] helper under stable names (DESIGN.md §14). *)

type t

val create : unit -> t

val default : t
(** Process-wide registry for points with nothing to thread through. *)

val reset : t -> unit

val incr : t -> ?labels:(string * string) list -> ?by:int -> string -> unit
(** Counter: cumulative. *)

type counter
(** A handle on one counter series. *)

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Register the series at zero (or find it) and return its handle. *)

val add : counter -> float -> unit
(** Add to a counter: a plain field update, no name lookup, so it is
    cheap enough for per-launch paths. *)

val total : counter -> float
(** The counter's cumulative value. *)

val set : t -> ?labels:(string * string) list -> string -> float -> unit
(** Gauge: most recent value wins. *)

val merge : into:t -> t -> unit
(** Fold every series of the second registry into [into]: counters
    add, gauges keep the maximum.
    Raises [Invalid_argument] if a name has different kinds in the
    two. *)

type kind = Counter | Gauge

type sample = {
  m_name : string;
  m_labels : (string * string) list;  (** sorted by key *)
  m_kind : kind;
  m_value : float;  (** cumulative sum for counters, last for gauges *)
}

val value : sample -> float
(** [m_value]. *)

val snapshot : t -> sample list
(** All series, sorted by (name, labels). *)

val get : t -> ?labels:(string * string) list -> string -> float
(** {!value} of the series, 0.0 when it does not exist. *)
