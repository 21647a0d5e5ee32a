(* Causal DAG of one simulated run: every timeline operation becomes a
   node carrying its scheduling constraints — the causal predecessors
   (events, stream ordering, the host issue op) and the resources it
   occupied — recorded at the source as the simulator schedules it.

   The recording order is a valid topological order by construction:
   a dependency can only be expressed as a node id once the dependency
   has been recorded, and the simulator schedules an operation only
   after every constraint it waits on is known.  Two things follow:

   - the *critical path* is an exact backward walk: starting from the
     node with the latest finish, repeatedly step to the predecessor
     whose finish equals the node's constraint time.  Because every
     node records [ready] (the max over its predecessors' finishes)
     and [start >= ready] (the gap is contention wait), the emitted
     segments tile [0, makespan] exactly — per-category attribution
     telescopes to the makespan with no residual;

   - *what-if replay* is a single forward pass: rescale one category's
     durations (or link occupancies) and recompute every start as the
     max over the new predecessor finishes, per-resource ready times
     and per-link serial admission.  Links replay in recorded
     (admission) order, so backfill reordering is approximated — the
     replay of the identity transform can drift slightly from the
     recorded makespan on heavily backfilled schedules; [analysis]
     reports that drift so callers can judge the prediction.

   The builder is bounded: past [capacity] nodes it stops recording
   and counts the drops.  A truncated DAG would silently attribute
   nonsense, so the drop count travels with the DAG and every consumer
   is expected to warn loudly when it is non-zero. *)

type node = {
  n_id : int;
  n_label : string;  (* display name: "h2d", "kernel", job name, ... *)
  n_category : string;  (* attribution bucket: compute, h2d, p2p, ... *)
  n_phase : string;  (* engine phase active at record time, "" = none *)
  n_resources : string list;  (* engines held for [start, finish] *)
  n_ready : float;  (* max over predecessor finishes (constraint time) *)
  n_start : float;  (* actual start; start - ready = contention wait *)
  n_finish : float;
  n_fixed : float;  (* latency part of the duration: bandwidth-invariant *)
  n_legs : (string * float) list;  (* (link, occupancy seconds) held *)
  n_deps : int list;  (* causal predecessors (events, streams, issue) *)
  n_rpred : int list;  (* in-order predecessor per resource *)
  n_wait : string;  (* category of a [ready, start) stall, e.g. link_wait *)
}

type dag = { d_nodes : node array; d_dropped : int }

let nodes d = d.d_nodes

(* --- Builder ----------------------------------------------------------- *)

type builder = {
  mutable b_nodes : node list;  (* newest first *)
  mutable b_count : int;
  b_capacity : int;
  mutable b_dropped : int;
  b_last_res : (string, int) Hashtbl.t;  (* resource -> last node id *)
  b_by_finish : (float, int) Hashtbl.t;  (* finish time -> newest node id *)
}

let default_capacity = 1_048_576

let builder ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Causal.builder: capacity must be positive";
  {
    b_nodes = [];
    b_count = 0;
    b_capacity = capacity;
    b_dropped = 0;
    b_last_res = Hashtbl.create 32;
    b_by_finish = Hashtbl.create 4096;
  }

(* Resolve an event (a completion time) to the node that produced it;
   [None] for times no recorded node finishes at (e.g. an empty
   multi-segment copy returns the host clock).  When several nodes
   share a finish time the newest wins — they impose the same
   constraint on a successor's start. *)
let node_at b t = Hashtbl.find_opt b.b_by_finish t

let last_on b resource = Hashtbl.find_opt b.b_last_res resource

let add b ~label ~category ~phase ~resources ~ready ~start ~finish ~fixed
    ~legs ~deps ~wait =
  if b.b_count >= b.b_capacity then begin
    b.b_dropped <- b.b_dropped + 1;
    -1
  end
  else begin
    let id = b.b_count in
    let rpred =
      List.filter_map (fun r -> Hashtbl.find_opt b.b_last_res r) resources
      |> List.sort_uniq compare
    in
    let deps = List.sort_uniq compare (List.filter (fun d -> d >= 0) deps) in
    let n =
      {
        n_id = id;
        n_label = label;
        n_category = category;
        n_phase = phase;
        n_resources = resources;
        n_ready = ready;
        n_start = start;
        n_finish = finish;
        n_fixed = fixed;
        n_legs = legs;
        n_deps = deps;
        n_rpred = rpred;
        n_wait = (if wait = "" then "wait" else wait);
      }
    in
    b.b_nodes <- n :: b.b_nodes;
    b.b_count <- id + 1;
    List.iter (fun r -> Hashtbl.replace b.b_last_res r id) resources;
    Hashtbl.replace b.b_by_finish finish id;
    id
  end

let builder_dropped b = b.b_dropped

let dag b =
  { d_nodes = Array.of_list (List.rev b.b_nodes); d_dropped = b.b_dropped }

(* --- Critical path ----------------------------------------------------- *)

type segment = {
  sg_start : float;
  sg_finish : float;
  sg_category : string;
  sg_label : string;
  sg_node : int;  (* node id, or -1 for gap (wait / idle) segments *)
}

type analysis = {
  an_makespan : float;
  an_segments : segment list;  (* adjacent, earliest first, tile [0, T] *)
  an_by_category : (string * float) list;  (* sums exactly to makespan *)
  an_replay_drift : float;  (* |replay(id) - makespan| / makespan *)
  an_nodes : int;
  an_dropped : int;
}

let duration n = n.n_finish -. n.n_start

(* Forward replay of the recorded schedule under a transform.  [dur_of]
   gives each node's new duration, [leg_of] its new occupancy on one
   leg.  Nodes are processed in recorded order (a topological order);
   per-link admission is serial in that order — the backfill
   approximation documented above. *)
let replay d ~dur_of ~leg_of =
  let n = Array.length d.d_nodes in
  let finish = Array.make n 0.0 in
  let res_ready : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let link_ready : (string, float) Hashtbl.t = Hashtbl.create 16 in
  let makespan = ref 0.0 in
  Array.iter
    (fun nd ->
       let ready =
         List.fold_left
           (fun acc dep -> Float.max acc finish.(dep))
           0.0 nd.n_deps
       in
       let ready =
         List.fold_left
           (fun acc r ->
              match Hashtbl.find_opt res_ready r with
              | None -> acc
              | Some t -> Float.max acc t)
           ready nd.n_resources
       in
       let start =
         List.fold_left
           (fun acc (l, _) ->
              match Hashtbl.find_opt link_ready l with
              | None -> acc
              | Some t -> Float.max acc t)
           ready nd.n_legs
       in
       let fin = start +. dur_of nd in
       finish.(nd.n_id) <- fin;
       List.iter (fun r -> Hashtbl.replace res_ready r fin) nd.n_resources;
       List.iter
         (fun (l, occ) -> Hashtbl.replace link_ready l (start +. leg_of nd l occ))
         nd.n_legs;
       if fin > !makespan then makespan := fin)
    d.d_nodes;
  !makespan

let identity_replay d =
  replay d ~dur_of:duration ~leg_of:(fun _ _ occ -> occ)

let analyze d =
  if Array.length d.d_nodes = 0 then
    {
      an_makespan = 0.0;
      an_segments = [];
      an_by_category = [];
      an_replay_drift = 0.0;
      an_nodes = 0;
      an_dropped = d.d_dropped;
    }
  else begin
    let eps_of t = 1e-9 *. Float.max 1e-3 (Float.abs t) in
    (* Walk tail: the node with the latest finish (newest wins ties,
       matching [node_at]). *)
    let tail =
      Array.fold_left
        (fun acc n ->
           match acc with
           | None -> Some n
           | Some a -> if n.n_finish >= a.n_finish then Some n else acc)
        None d.d_nodes
      |> Option.get
    in
    let makespan = tail.n_finish in
    let segments = ref [] in
    let emit ~start ~finish ~category ~label ~node =
      if finish > start then
        segments :=
          {
            sg_start = start;
            sg_finish = finish;
            sg_category = category;
            sg_label = label;
            sg_node = node;
          }
          :: !segments
    in
    (* Backward walk.  [frontier] is the time everything later has
       already been attributed down to; each step attributes
       [cur.ready, frontier] and moves the frontier to [cur.ready].
       Predecessor ids are always smaller than the node's own id, so
       the walk terminates. *)
    let rec walk cur frontier =
      (* A predecessor can finish strictly before the frontier when the
         binding constraint was a time no node produced (an empty copy's
         event, the initial host clock): attribute the residue as idle
         rather than inventing causality. *)
      let frontier =
        if cur.n_finish < frontier -. eps_of frontier then begin
          emit ~start:cur.n_finish ~finish:frontier ~category:"idle"
            ~label:"idle" ~node:(-1);
          cur.n_finish
        end
        else frontier
      in
      emit ~start:cur.n_start ~finish:frontier ~category:cur.n_category
        ~label:cur.n_label ~node:cur.n_id;
      let frontier = Float.min frontier cur.n_start in
      let frontier =
        if cur.n_ready < frontier -. eps_of frontier then begin
          (* The op was admissible at [ready] but a contended resource
             (a fabric link, a device lease) delayed it to [start]. *)
          emit ~start:cur.n_ready ~finish:frontier ~category:cur.n_wait
            ~label:cur.n_wait ~node:cur.n_id;
          cur.n_ready
        end
        else Float.min frontier cur.n_ready
      in
      let pred =
        List.fold_left
          (fun acc id ->
             let p = d.d_nodes.(id) in
             match acc with
             | None -> Some p
             | Some a -> if p.n_finish > a.n_finish then Some p else acc)
          None
          (cur.n_deps @ cur.n_rpred)
      in
      match pred with
      | Some p when p.n_finish > eps_of makespan -> walk p frontier
      | _ -> emit ~start:0.0 ~finish:frontier ~category:"idle" ~label:"idle"
               ~node:(-1)
    in
    walk tail makespan;
    let by_cat : (string, float) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun s ->
         let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_cat s.sg_category) in
         Hashtbl.replace by_cat s.sg_category (prev +. (s.sg_finish -. s.sg_start)))
      !segments;
    let by_category =
      Hashtbl.fold (fun c t acc -> (c, t) :: acc) by_cat []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    let drift =
      if makespan > 0.0 then
        Float.abs (identity_replay d -. makespan) /. makespan
      else 0.0
    in
    {
      an_makespan = makespan;
      an_segments = !segments;
      an_by_category = by_category;
      an_replay_drift = drift;
      an_nodes = Array.length d.d_nodes;
      an_dropped = d.d_dropped;
    }
  end

let critical_path_length an =
  List.fold_left
    (fun acc (c, t) -> if c = "idle" then acc else acc +. t)
    0.0 an.an_by_category

(* --- What-if ------------------------------------------------------------ *)

(* Categories whose durations carry a bandwidth-variable part: the
   what-if rescales only [dur - fixed] (the wire time), never the
   latency, and rescales the link occupancies alongside. *)
let is_transfer c = c = "h2d" || c = "d2h" || c = "p2p" || c = "spill"

let what_if_categories =
  [ "compute"; "xfer"; "h2d"; "d2h"; "p2p"; "link"; "barrier"; "host" ]

(* Predicted makespan if [category]'s cost were multiplied by
   [factor] (0 = removed entirely).  Bandwidth-like categories scale
   the variable part of matching transfers plus their link
   occupancies; "link" scales only occupancies (contention), leaving
   wire time alone; everything else scales the full duration of
   matching nodes. *)
let what_if d ~category ~factor =
  let variable n f = n.n_fixed +. ((duration n -. n.n_fixed) *. f) in
  let dur_of n =
    let c = n.n_category in
    match category with
    | "compute" -> if c = "compute" then duration n *. factor else duration n
    | "xfer" -> if is_transfer c then variable n factor else duration n
    | "h2d" | "d2h" | "p2p" | "spill" ->
      if c = category then variable n factor else duration n
    | "link" -> duration n
    | "host" ->
      if c = "issue" || c = "pattern" then duration n *. factor
      else duration n
    | cat -> if c = cat then duration n *. factor else duration n
  in
  let leg_of n _ occ =
    match category with
    | "link" -> occ *. factor
    | "xfer" -> if is_transfer n.n_category then occ *. factor else occ
    | "h2d" | "d2h" | "p2p" | "spill" ->
      if n.n_category = category then occ *. factor else occ
    | _ -> occ
  in
  (* Ratio estimator: the replay's backfill approximation biases both
     the identity and the transformed replay the same way, so predict
     the *relative* change and apply it to the recorded makespan.  On
     a drift-free DAG this is the raw replay unchanged. *)
  let raw = replay d ~dur_of ~leg_of in
  let id = identity_replay d in
  let recorded =
    Array.fold_left (fun acc n -> Float.max acc n.n_finish) 0.0 d.d_nodes
  in
  if id > 0.0 && recorded > 0.0 then raw *. recorded /. id else raw

(* --- JSON round-trip ---------------------------------------------------- *)

let node_to_json n =
  Json.Obj
    [
      ("id", Json.Int n.n_id);
      ("label", Json.Str n.n_label);
      ("category", Json.Str n.n_category);
      ("phase", Json.Str n.n_phase);
      ("resources", Json.List (List.map (fun r -> Json.Str r) n.n_resources));
      ("ready", Json.Float n.n_ready);
      ("start", Json.Float n.n_start);
      ("finish", Json.Float n.n_finish);
      ("fixed", Json.Float n.n_fixed);
      ("legs",
       Json.List
         (List.map
            (fun (l, occ) ->
               Json.Obj [ ("link", Json.Str l); ("occupancy", Json.Float occ) ])
            n.n_legs));
      ("deps", Json.List (List.map (fun i -> Json.Int i) n.n_deps));
      ("rpred", Json.List (List.map (fun i -> Json.Int i) n.n_rpred));
      ("wait", Json.Str n.n_wait);
    ]

let to_json d =
  Json.Obj
    [
      ("causal_dag", Json.Int 1);
      ("dropped", Json.Int d.d_dropped);
      ("nodes", Json.List (Array.to_list (Array.map node_to_json d.d_nodes)));
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let err m = Error ("Causal.of_json: " ^ m) in
  let str k o =
    match Json.member k o with Some (Json.Str s) -> Ok s | _ -> err (k ^ " missing")
  in
  let num k o =
    match Option.bind (Json.member k o) Json.to_number with
    | Some f -> Ok f
    | None -> err (k ^ " missing")
  in
  let int k o =
    match Json.member k o with Some (Json.Int i) -> Ok i | _ -> err (k ^ " missing")
  in
  let ints k o =
    match Json.member k o with
    | Some (Json.List l) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Int i :: tl -> go (i :: acc) tl
        | _ -> err (k ^ " must hold integers")
      in
      go [] l
    | _ -> err (k ^ " missing")
  in
  let strs k o =
    match Json.member k o with
    | Some (Json.List l) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Str s :: tl -> go (s :: acc) tl
        | _ -> err (k ^ " must hold strings")
      in
      go [] l
    | _ -> err (k ^ " missing")
  in
  let node_of o =
    let* id = int "id" o in
    let* label = str "label" o in
    let* category = str "category" o in
    let* phase = str "phase" o in
    let* resources = strs "resources" o in
    let* ready = num "ready" o in
    let* start = num "start" o in
    let* finish = num "finish" o in
    let* fixed = num "fixed" o in
    let* legs =
      match Json.member "legs" o with
      | Some (Json.List l) ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | leg :: tl ->
            let* link = str "link" leg in
            let* occ = num "occupancy" leg in
            go ((link, occ) :: acc) tl
        in
        go [] l
      | _ -> err "legs missing"
    in
    let* deps = ints "deps" o in
    let* rpred = ints "rpred" o in
    let* wait = str "wait" o in
    Ok
      {
        n_id = id;
        n_label = label;
        n_category = category;
        n_phase = phase;
        n_resources = resources;
        n_ready = ready;
        n_start = start;
        n_finish = finish;
        n_fixed = fixed;
        n_legs = legs;
        n_deps = deps;
        n_rpred = rpred;
        n_wait = wait;
      }
  in
  match Json.member "nodes" j with
  | Some (Json.List nodes) ->
    let* dropped =
      match Json.member "dropped" j with
      | Some (Json.Int i) -> Ok i
      | _ -> Ok 0
    in
    let rec go acc i = function
      | [] -> Ok (List.rev acc)
      | o :: tl ->
        let* n = node_of o in
        if n.n_id <> i then err (Printf.sprintf "node %d out of order" n.n_id)
        else go (n :: acc) (i + 1) tl
    in
    let* nodes = go [] 0 nodes in
    List.iter
      (fun n ->
         List.iter
           (fun dep ->
              if dep < 0 || dep >= n.n_id then
                failwith
                  (Printf.sprintf
                     "Causal.of_json: node %d depends on %d (not an earlier \
                      node)"
                     n.n_id dep))
           (n.n_deps @ n.n_rpred))
      nodes;
    Ok { d_nodes = Array.of_list nodes; d_dropped = dropped }
  | _ -> err "missing nodes array"

let of_json j = try of_json j with Failure m -> Error m
