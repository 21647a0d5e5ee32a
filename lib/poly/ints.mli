(** Exact integer arithmetic helpers used throughout the polyhedral
    library.  Arithmetic during Fourier-Motzkin elimination must not wrap
    silently; the checked variants raise {!Overflow} instead. *)

exception Overflow

val add : int -> int -> int
(** Checked addition; raises {!Overflow} on wrap. *)

val sub : int -> int -> int
(** Checked subtraction; raises {!Overflow} on wrap. *)

val mul : int -> int -> int
(** Checked multiplication; raises {!Overflow} on wrap. *)

val neg : int -> int
(** Checked negation; raises {!Overflow} on [min_int]. *)

val gcd : int -> int -> int
(** Greatest common divisor of absolute values; [gcd 0 0 = 0].  Raises
    {!Overflow} if either argument is [min_int] (whose absolute value is
    not representable). *)

val fdiv : int -> int -> int
(** Floor division, rounding toward negative infinity. *)

val cdiv : int -> int -> int
(** Ceiling division, rounding toward positive infinity. *)
