(** A mutable B-tree map (CLRS-style).

    The paper's segment tracker stores its non-overlapping segment list
    in "a B-Tree map using the start of each segment as the key"
    (§8.1); this module is that map, over int keys. *)

module Int_map : sig
  type key = int

  type 'v tree
  (** A mutable map from [key] to ['v]. *)

  val create : unit -> 'v tree
  val size : 'v tree -> int
  val is_empty : 'v tree -> bool

  val add : 'v tree -> key -> 'v -> unit
  (** Insert or replace. *)

  val find_opt : 'v tree -> key -> 'v option
  val mem : 'v tree -> key -> bool

  val floor : 'v tree -> key -> (key * 'v) option
  (** Largest entry with key [<= k]. *)

  val floor_value : 'v tree -> key -> default:'v -> 'v
  (** The value of the largest entry with key [<= k], or [default]
      when there is none.  Allocates nothing. *)

  val ceil_value : 'v tree -> key -> default:'v -> 'v
  (** The value of the smallest entry with key [>= k], or [default]
      when there is none.  Allocates nothing. *)

  val min_binding : 'v tree -> (key * 'v) option
  val max_binding : 'v tree -> (key * 'v) option

  val iter : 'v tree -> (key -> 'v -> unit) -> unit
  (** In-order traversal. *)

  val iter_from : 'v tree -> key -> (key -> 'v -> bool) -> unit
  (** In-order visit of entries with key [>= k]; the callback returns
      [false] to stop. *)

  val to_list : 'v tree -> (key * 'v) list

  val remove : 'v tree -> key -> unit
  (** Delete a key if present. *)

  val validate : 'v tree -> int
  (** Check the B-tree invariants (key order, node fill, balance);
      returns the depth.  Raises [Failure] on violation. *)
end
