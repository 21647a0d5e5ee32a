(** Runtime configuration switches for the overhead methodology of
    paper §9.2 (the alpha / beta / gamma measurement configurations). *)

type t = {
  transfers : bool;  (** issue inter-device transfers *)
  patterns : bool;  (** run enumerators, tracker queries and updates *)
}

val alpha : t
(** Regular execution. *)

val beta : t
(** Transfers disabled; dependency resolution and tracker updates still
    performed.  Performance-mode only. *)

val gamma : t
(** Dependency resolution and tracker updates disabled (which also
    disables the transfers they would generate).  Performance-mode
    only. *)

val is_valid : t -> bool
(** Transfers without patterns is not a meaningful configuration. *)
