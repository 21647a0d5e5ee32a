(* A registry of named counters and gauges with labels.

   The engine counts straight into a registry of its own per run,
   through counter handles; the simulator, the single-GPU executor and
   the serving layer keep their stats records and snapshot them in here
   with a [publish_*] function under stable metric names, so reports,
   the bench JSON and the CLI all read one schema.  Registries merge,
   so a campaign's totals are the merge of its runs.

   Names are dotted paths ("gpusim.h2d_bytes", "cache.plan_hits");
   labels are sorted (key, value) pairs, so two call sites naming the
   same labels in different orders update the same series. *)

type kind = Counter | Gauge

type series = {
  mutable v_count : int; (* updates observed *)
  mutable v_value : float; (* the sum for a counter, the last value for a gauge *)
}

type t = {
  table : (string * (string * string) list, kind * series) Hashtbl.t;
}

let create () = { table = Hashtbl.create 64 }

(* The process-wide default registry, for instrumentation points that
   have no registry to thread through. *)
let default = create ()

let reset t = Hashtbl.reset t.table

let normalize labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let series t ~kind ?(labels = []) name =
  let key = (name, normalize labels) in
  match Hashtbl.find_opt t.table key with
  | Some (k, s) ->
    if k <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %s registered with a different kind" name);
    s
  | None ->
    let s = { v_count = 0; v_value = 0.0 } in
    Hashtbl.add t.table key (kind, s);
    s

(* A counter handle is its series: adding is two field updates, no
   name is hashed. *)
type counter = series

let counter t ?labels name = series t ~kind:Counter ?labels name

let add (c : counter) v =
  c.v_count <- c.v_count + 1;
  c.v_value <- c.v_value +. v

let total (c : counter) = c.v_value

let incr t ?labels ?(by = 1) name =
  add (counter t ?labels name) (float_of_int by)

let set t ?labels name v =
  let s = series t ~kind:Gauge ?labels name in
  s.v_count <- s.v_count + 1;
  s.v_value <- v

(* Fold [src] into [into]: counters add up, gauges keep the larger
   value. *)
let merge ~into src =
  Hashtbl.iter
    (fun (name, labels) (kind, s) ->
       let d = series into ~kind ~labels name in
       if s.v_count > 0 then begin
         d.v_value <-
           (match kind with
            | Counter -> d.v_value +. s.v_value
            | Gauge -> if d.v_count > 0 then Float.max d.v_value s.v_value else s.v_value);
         d.v_count <- d.v_count + s.v_count
       end)
    src.table

(* --- Read-out ---------------------------------------------------------- *)

type sample = {
  m_name : string;
  m_labels : (string * string) list;
  m_kind : kind;
  m_value : float;
}

let value s = s.m_value

(* By name, then labels pair by pair, a prefix first: the order the
   polymorphic compare of (name, labels) gives, without its generic
   walk over the values. *)
let compare_label (k1, v1) (k2, v2) =
  let c = String.compare k1 k2 in
  if c <> 0 then c else String.compare v1 v2

let compare_sample a b =
  let c = String.compare a.m_name b.m_name in
  if c <> 0 then c else List.compare compare_label a.m_labels b.m_labels

let snapshot t =
  Hashtbl.fold
    (fun (m_name, m_labels) (m_kind, s) acc -> { m_name; m_labels; m_kind; m_value = s.v_value } :: acc)
    t.table []
  |> List.sort compare_sample

let get t ?(labels = []) name =
  match Hashtbl.find_opt t.table (name, normalize labels) with
  | Some (_, s) -> s.v_value
  | None -> 0.0
