(* One contention lane of the fabric (the flat bus, an island link or
   an island uplink).  The timeline carries the busy accounting and the
   trace lane; the reservation map is the admission index.

   Links arbitrate by TIME, not by issue order: a transfer whose
   dependencies resolve early may start before a later-starting
   reservation that happened to be issued first (backfill).  Without
   that, an asynchronous pipeline that eagerly issues a download
   chained behind a still-running kernel would park a far-future
   reservation on the bus and serialize every transfer issued after
   it.

   Reservations are kept as a map from start to stop, disjoint, with
   touching intervals coalesced on insert.  Coalescing is exact: every
   occupancy is positive, so a transfer admitted at a zero-width gap
   between two touching reservations would overlap the second one; the
   union is all admission ever looks at.  Back-to-back traffic — the
   common case on a saturated bus — therefore stays one interval.

   Reservations wholly before the host clock can never constrain a
   future admission (a transfer's start is at least its host issue
   time, and the host clock is monotone), so the drained prefix is
   dropped as the clock passes it. *)

module Fmap = Map.Make (Float)

type t = {
  tl : Timeline.t;
  mutable busy : float Fmap.t; (* start -> stop; disjoint, coalesced *)
}

let create name = { tl = Timeline.create name; busy = Fmap.empty }
let timeline l = l.tl
let reservations l = Fmap.bindings l.busy

(* Drop every reservation that ended at or before [now].  Reservations
   are disjoint, so ordered by start they are ordered by stop too and
   the drained ones form a prefix. *)
let rec prune l ~now =
  match Fmap.min_binding_opt l.busy with
  | Some (s, e) when e <= now ->
    l.busy <- Fmap.remove s l.busy;
    prune l ~now
  | _ -> ()

(* Earliest time >= [from] at which the link is continuously free for
   [dur] seconds.  Reservations starting before the last one that
   starts at or before [from] also end before it, so the walk begins
   there instead of at the head. *)
let earliest_free l ~from ~dur =
  let first =
    match Fmap.find_last_opt (fun s -> s <= from) l.busy with
    | Some (s, _) -> s
    | None -> from
  in
  let rec go t seq =
    match seq () with
    | Seq.Nil -> t
    | Seq.Cons ((s, e), rest) ->
      if e <= t then go t rest
      else if s >= t +. dur then t
      else go (Float.max t e) rest
  in
  go from (Fmap.to_seq_from first l.busy)

(* Record [start, stop), merging with a reservation that ends exactly
   at [start] and one that starts exactly at [stop].  The caller
   guarantees the interval overlaps nothing (admission found it
   free). *)
let insert l ~start ~stop =
  let start =
    match Fmap.find_last_opt (fun s -> s < start) l.busy with
    | Some (s, e) when e = start ->
      l.busy <- Fmap.remove s l.busy;
      s
    | _ -> start
  in
  let stop =
    match Fmap.find_opt stop l.busy with
    | Some e ->
      l.busy <- Fmap.remove stop l.busy;
      e
    | None -> stop
  in
  l.busy <- Fmap.add start stop l.busy

(* The earliest time >= [start] at which every leg of a route is
   simultaneously free for its occupancy, then reserved on each leg:
   iterate every leg's earliest fit to a fixpoint.  [now] is the
   transfer's host issue time, a lower bound on every future
   admission. *)
let admit ~now ~start legs =
  match legs with
  | [] -> start
  | legs ->
    List.iter
      (fun (l, occupancy) ->
         if not (occupancy > 0.0) then
           invalid_arg "Link.admit: occupancy must be positive";
         prune l ~now)
      legs;
    let rec fix t =
      let t' =
        List.fold_left
          (fun acc (l, occupancy) ->
             Float.max acc (earliest_free l ~from:acc ~dur:occupancy))
          t legs
      in
      if t' > t then fix t' else t'
    in
    let s = fix start in
    List.iter
      (fun (l, occupancy) ->
         insert l ~start:s ~stop:(s +. occupancy);
         ignore
           (Timeline.schedule_at l.tl ~start:s ~duration:occupancy
              ~category:"bus"))
      legs;
    s
