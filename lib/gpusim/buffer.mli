(** Device memory buffers.  In functional mode a buffer carries real
    float data; in performance mode only the extents exist, so
    paper-sized problems never allocate tens of GiB. *)

type t

(** {1 Arenas}

    An arena keeps functional arrays that finished machines gave back,
    so that later machines of the same owner draw them instead of
    allocating.  A drawn array is refilled with [0.0], so it is bit
    for bit a fresh [Array.make len 0.0].  Of each length the arena
    keeps no more arrays than the most that one machine has given back
    of that length, so it holds at most one machine's footprint per
    length.

    An arena belongs to one domain: only the domain that creates
    machines and allocates their buffers may use it.  Kernel workers
    never allocate, so they never touch it. *)

type arena

val arena : unit -> arena

val arena_reused : arena -> int
(** Arrays drawn from the arena's free arrays so far. *)

val arena_fresh : arena -> int
(** Arrays freshly allocated so far because no free one had the
    length. *)

val arena_retained : arena -> (int * int) list
(** (length, free arrays) for every length the arena holds, ascending.
    Test oracle window: test_gpusim "arena retention bound". *)

val give_back : arena -> float array list -> unit
(** Return the arrays one machine drew.  Each must be drawn once and
    given back once; nothing may use it afterwards. *)

(** {1 Buffers} *)

val create :
  id:int -> device:int -> len:int -> charged_bytes:int -> functional:bool -> t

val create_in :
  arena -> id:int -> device:int -> len:int -> charged_bytes:int -> t
(** A functional buffer whose data is drawn from the arena. *)

val id : t -> int

val device : t -> int
(** Owning device id. *)

val charged_bytes : t -> int
(** Bytes charged against the owning device's capacity at creation; 0
    for virtual buffers accounted segment-wise by the runtime. *)

val data_exn : t -> float array
(** The backing data; raises [Invalid_argument] on performance-mode
    buffers. *)

val blit_from_host :
  src:float array -> src_off:int -> t -> dst_off:int -> len:int -> unit
(** Copy host data in; a no-op in performance mode. *)

val blit_to_host :
  t -> src_off:int -> dst:float array -> dst_off:int -> len:int -> unit

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Device-to-device copy; both buffers must be in the same mode. *)

val check_range : t -> off:int -> len:int -> what:string -> unit
(** Raise [Invalid_argument] when the range leaves the buffer. *)
