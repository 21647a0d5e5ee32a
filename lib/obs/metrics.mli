(** Registry of named counters, gauges and histograms with labels.
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

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** Histogram: tracks count/sum/min/max. *)

val merge : into:t -> t -> unit
(** Fold every series of the second registry into [into]: counters and
    histograms add (count, sum, min, max), gauges keep the maximum.
    Raises [Invalid_argument] if a name has different kinds in the
    two. *)

type kind = Counter | Gauge | Histogram

type sample = {
  m_name : string;
  m_labels : (string * string) list;  (** sorted by key *)
  m_kind : kind;
  m_count : int;
  m_sum : float;
  m_min : float;
  m_max : float;
  m_last : float;
}

val value : sample -> float
(** Headline value: cumulative sum for counters, last for gauges, sum
    for histograms. *)

val snapshot : t -> sample list
(** All series, sorted by (name, labels). *)

val find : t -> ?labels:(string * string) list -> string -> sample option

val get : t -> ?labels:(string * string) list -> string -> float
(** {!value} of the series, 0.0 when it does not exist. *)

val kind_name : kind -> string

val to_json : t -> Json.t
(** One object per series (name, kind, labels, value; histograms add
    count/min/max). *)
