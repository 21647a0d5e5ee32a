(* A registry of named counters, gauges and histograms with labels.

   The engine counts straight into a registry of its own per run,
   through counter handles; the simulator, the single-GPU executor and
   the serving layer keep their stats records and snapshot them in here
   with a [publish_*] function under stable metric names, so reports,
   the bench JSON and the CLI all read one schema.  Registries merge,
   so a campaign's totals are the merge of its runs.

   Names are dotted paths ("gpusim.h2d_bytes", "cache.plan_hits");
   labels are sorted (key, value) pairs, so two call sites naming the
   same labels in different orders update the same series. *)

type kind = Counter | Gauge | Histogram

type series = {
  mutable v_count : int; (* updates observed *)
  mutable v_sum : float;
  mutable v_min : float;
  mutable v_max : float;
  mutable v_last : float;
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
    let s =
      { v_count = 0; v_sum = 0.0; v_min = infinity; v_max = neg_infinity;
        v_last = 0.0 }
    in
    Hashtbl.add t.table key (kind, s);
    s

let update s v =
  s.v_count <- s.v_count + 1;
  s.v_sum <- s.v_sum +. v;
  if v < s.v_min then s.v_min <- v;
  if v > s.v_max then s.v_max <- v;
  s.v_last <- v

(* A counter handle is its series: adding is two field updates, no
   name is hashed. *)
type counter = series

let counter t ?labels name = series t ~kind:Counter ?labels name

let add (c : counter) v =
  c.v_count <- c.v_count + 1;
  c.v_sum <- c.v_sum +. v

let total (c : counter) = c.v_sum

let incr t ?labels ?(by = 1) name =
  add (counter t ?labels name) (float_of_int by)

let set t ?labels name v =
  let s = series t ~kind:Gauge ?labels name in
  update s v

let observe t ?labels name v =
  update (series t ~kind:Histogram ?labels name) v

(* Fold [src] into [into]: counters and histograms add up, gauges keep
   the larger value. *)
let merge ~into src =
  Hashtbl.iter
    (fun (name, labels) (kind, s) ->
       let d = series into ~kind ~labels name in
       if s.v_count > 0 then begin
         (match kind with
          | Gauge when d.v_count > 0 -> d.v_last <- Float.max d.v_last s.v_last
          | Counter | Gauge | Histogram -> d.v_last <- s.v_last);
         d.v_count <- d.v_count + s.v_count;
         d.v_sum <- d.v_sum +. s.v_sum;
         d.v_min <- Float.min d.v_min s.v_min;
         d.v_max <- Float.max d.v_max s.v_max
       end)
    src.table

(* --- Read-out ---------------------------------------------------------- *)

type sample = {
  m_name : string;
  m_labels : (string * string) list;
  m_kind : kind;
  m_count : int;
  m_sum : float;
  m_min : float;
  m_max : float;
  m_last : float;
}

(* The headline value of a series: cumulative for counters, most
   recent for gauges, the sum for histograms (count/min/max qualify
   it). *)
let value s =
  match s.m_kind with
  | Counter -> s.m_sum
  | Gauge -> s.m_last
  | Histogram -> s.m_sum

let snapshot t =
  Hashtbl.fold
    (fun (name, labels) (kind, s) acc ->
       {
         m_name = name;
         m_labels = labels;
         m_kind = kind;
         m_count = s.v_count;
         m_sum = s.v_sum;
         m_min = s.v_min;
         m_max = s.v_max;
         m_last = s.v_last;
       }
       :: acc)
    t.table []
  |> List.sort (fun a b -> compare (a.m_name, a.m_labels) (b.m_name, b.m_labels))

let find t ?(labels = []) name =
  let key = (name, normalize labels) in
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some (kind, s) ->
    Some
      {
        m_name = name;
        m_labels = normalize labels;
        m_kind = kind;
        m_count = s.v_count;
        m_sum = s.v_sum;
        m_min = s.v_min;
        m_max = s.v_max;
        m_last = s.v_last;
      }

let get t ?labels name =
  match find t ?labels name with Some s -> value s | None -> 0.0

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

(* One JSON object per series; histograms carry their distribution
   fields, counters and gauges just their value. *)
let to_json t =
  Json.List
    (List.map
       (fun s ->
          let base =
            [
              ("name", Json.Str s.m_name);
              ("kind", Json.Str (kind_name s.m_kind));
            ]
          in
          let labels =
            match s.m_labels with
            | [] -> []
            | l ->
              [ ("labels",
                 Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) l)) ]
          in
          let v = value s in
          let payload =
            if Float.is_integer v && Float.abs v < 1e15 then
              [ ("value", Json.Int (int_of_float v)) ]
            else [ ("value", Json.Float v) ]
          in
          let dist =
            match s.m_kind with
            | Histogram ->
              [
                ("count", Json.Int s.m_count);
                ("min", Json.Float s.m_min);
                ("max", Json.Float s.m_max);
              ]
            | Counter | Gauge -> []
          in
          Json.Obj (base @ labels @ payload @ dist))
       (snapshot t))
