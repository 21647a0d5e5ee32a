(* A bounded ring buffer that drops the *oldest* entries on overflow
   and counts what it dropped.

   Every unbounded in-memory log in the tree (the machine's event
   trace, per-engine operation logs, the span store) sits on one of
   these so that enabling observability on a paper-scale sweep costs a
   fixed amount of memory: the newest [capacity] entries survive, and
   the report states how many fell off the front. *)

type 'a t = {
  slots : 'a option array;
  mutable head : int; (* index of the oldest live entry *)
  mutable length : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  { slots = Array.make capacity None; head = 0; length = 0; dropped = 0 }

let dropped t = t.dropped

let push t x =
  let cap = Array.length t.slots in
  if t.length = cap then begin
    (* Overwrite the oldest slot and advance the head. *)
    t.slots.(t.head) <- Some x;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.slots.((t.head + t.length) mod cap) <- Some x;
    t.length <- t.length + 1
  end

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.head <- 0;
  t.length <- 0;
  t.dropped <- 0

(* Oldest first. *)
let to_list t =
  let cap = Array.length t.slots in
  List.init t.length (fun i ->
      match t.slots.((t.head + i) mod cap) with
      | Some x -> x
      | None -> assert false)
