(** Chrome trace-event JSON (loadable in Perfetto and
    chrome://tracing): complete/instant/metadata events over integer
    process and thread ids; timestamps in microseconds.  [validate] is
    the bundled checker enforcing what the exporters promise. *)

type event =
  | Complete of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;  (** microseconds *)
      dur : float;  (** microseconds *)
      args : (string * Json.t) list;
    }
  | Instant of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;
      args : (string * Json.t) list;
    }
  | Flow_start of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;
      id : int;  (** pairs a start with its finish *)
    }
  | Flow_finish of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : float;
      id : int;
    }
  | Process_name of { pid : int; name : string }
  | Thread_name of { pid : int; tid : int; name : string }

val to_json : event list -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val write : file:string -> event list -> unit

val validate : Json.t -> (unit, string) result
(** Structural check of a parsed trace: required fields with the right
    types on every event, non-negative durations, per-(pid, tid)-lane
    monotone timestamps, flow edges opened exactly once and finished
    exactly once with no edge pointing backwards in time, and lanes
    named "critical path" tiling contiguously (no gaps between
    segments).  Accepts both the object and bare-array forms. *)

val validate_file : file:string -> (unit, string) result

val lanes : Json.t -> (int * int) list
(** Distinct (pid, tid) lanes carrying timing events, sorted. *)
