(** A persistent pool of worker domains with chunked self-scheduling.

    Workers are spawned once and block between jobs, so submitting a
    job costs two mutex round-trips rather than a [Domain.spawn].  A
    job splits the index range [0, n) into chunks claimed from a
    shared atomic counter; the submitting domain participates.  Jobs
    are serial — [parallel_for] returns only after every participant
    retired — and must not nest (a job callback calling [parallel_for]
    on the same pool deadlocks). *)

type t

val max_domains : int
(** The most participants a pool may have: the OCaml 5.1 runtime's
    domain limit (128), the main domain included. *)

val create : ?domains:int -> unit -> t
(** Pool with [domains] total participants (the submitter plus
    [domains - 1] spawned workers); defaults to
    [Domain.recommended_domain_count ()] (at most {!max_domains}).
    Raises [Invalid_argument] with a one-line diagnostic, before any
    domain is spawned, when [domains] is not positive or exceeds
    {!max_domains}; with [domains:1] nothing is spawned and jobs run
    inline.  The engine runs on the global pool ({!get}).
    Test oracle window: test_exec's dpool cases run on pools of their
    own size (3 and 1 participants), and test_serve "dpool rejects
    non-positive domains" and "dpool rejects sizes over the domain
    limit" check the size validation. *)

val size : t -> int
(** Total participants, including the submitting domain. *)

val parallel_for : t -> n:int -> (int -> int -> unit) -> int
(** [parallel_for t ~n f] covers the half-open range [0, n) exactly
    once by calls [f lo hi] over disjoint chunks, possibly from
    several domains, and returns the number of domains allowed to
    take chunks: [min (size t) n], or 1 when [f] ran inline on the
    submitter (0 for an empty range).  If a chunk raises, the first
    exception is re-raised in the submitter after all chunks retire. *)

(** {2 The shared global pool}

    Engines use one process-wide pool so repeated runs don't re-spawn
    domains.  Its size is decided at first use: the
    [set_default_domains] override if set, else the [MEKONG_DOMAINS]
    environment variable, else [Domain.recommended_domain_count ()]. *)

val get : unit -> t
(** The global pool, created on first use and joined at process
    exit. *)

val default_domains : unit -> int
(** The size the global pool would be created with.  Raises
    [Invalid_argument] if [MEKONG_DOMAINS] is set but not a positive
    integer, or exceeds {!max_domains}. *)

val set_default_domains : int -> unit
(** Override the global pool size (CLI knob).  Takes effect only if
    called before the first [get].  Raises [Invalid_argument] with a
    one-line diagnostic when the value is not positive or exceeds
    {!max_domains}. *)
