(* Hierarchical spans over the host's execution.

   A span brackets one phase of work (parse, analyze, plan-build,
   sync-read-sets, launch, ...) and records wall-clock time always and
   *simulated* time when the caller supplies a sampler for it — the
   engine passes the machine's host clock, so a span can say both "this
   took 40 us of harness time" and "this covered 1.3 ms of simulated
   time".

   Spans are OFF by default and every instrumentation point is guarded
   by a single flag test, so the hot path pays one load-and-branch when
   observability is disabled.  Completed spans land in a bounded ring
   buffer (oldest dropped, drops counted); nesting is tracked with an
   explicit stack on the *calling* domain — instrumentation points live
   in host-side orchestration code only, never inside worker domains. *)

type record = {
  sp_id : int;
  sp_parent : int; (* id of the enclosing span, or -1 for roots *)
  sp_depth : int;
  sp_name : string;
  sp_cat : string;
  sp_wall_start : float;
  sp_wall_stop : float;
  sp_sim_start : float; (* nan when the span carried no sim sampler *)
  sp_sim_stop : float;
}

let enabled_flag = ref false
let enabled () = !enabled_flag

(* The wall clock is injectable so this library needs no [unix]
   dependency: [Sys.time] (CPU seconds) is the stdlib-only default and
   entry points that link unix install [Unix.gettimeofday]. *)
let clock = ref Sys.time
let set_clock f = clock := f

let default_capacity = 65536
let store = Ring.create ~capacity:default_capacity
let next_id = ref 0
let stack : (int * int) list ref = ref [] (* (id, depth), innermost first *)

let set_enabled b = enabled_flag := b

let reset () =
  Ring.clear store;
  next_id := 0;
  stack := []

let records () = Ring.to_list store
let dropped () = Ring.dropped store

let with_span ?(cat = "") ?sim name f =
  if not !enabled_flag then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, depth =
      match !stack with [] -> (-1, 0) | (p, d) :: _ -> (p, d + 1)
    in
    stack := (id, depth) :: !stack;
    let wall_start = !clock () in
    let sim_start = match sim with Some s -> s () | None -> nan in
    Fun.protect
      ~finally:(fun () ->
          let wall_stop = !clock () in
          let sim_stop = match sim with Some s -> s () | None -> nan in
          (match !stack with
           | (top, _) :: rest when top = id -> stack := rest
           | _ -> stack := []);
          Ring.push store
            {
              sp_id = id;
              sp_parent = parent;
              sp_depth = depth;
              sp_name = name;
              sp_cat = cat;
              sp_wall_start = wall_start;
              sp_wall_stop = wall_stop;
              sp_sim_start = sim_start;
              sp_sim_stop = sim_stop;
            })
      f
  end

(* Aggregate completed spans per (category, name): count, total wall
   seconds, total simulated seconds (only spans that carried sim
   times contribute to the latter). *)
type summary = {
  su_cat : string;
  su_name : string;
  su_count : int;
  su_wall : float;
  su_sim : float;
}

let summarize recs =
  let tbl : (string * string, summary ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
       let key = (r.sp_cat, r.sp_name) in
       let sim =
         if Float.is_nan r.sp_sim_start then 0.0
         else r.sp_sim_stop -. r.sp_sim_start
       in
       let wall = r.sp_wall_stop -. r.sp_wall_start in
       match Hashtbl.find_opt tbl key with
       | Some s ->
         s :=
           {
             !s with
             su_count = !s.su_count + 1;
             su_wall = !s.su_wall +. wall;
             su_sim = !s.su_sim +. sim;
           }
       | None ->
         Hashtbl.add tbl key
           (ref
              {
                su_cat = r.sp_cat;
                su_name = r.sp_name;
                su_count = 1;
                su_wall = wall;
                su_sim = sim;
              }))
    recs;
  Hashtbl.fold (fun _ s acc -> !s :: acc) tbl []
  |> List.sort (fun a b -> compare (a.su_cat, a.su_name) (b.su_cat, b.su_name))
