(* The measurement core of the benchmark suite: one workload per
   process, timed from outside the layers it exercises.

   A workload is prepared once (inputs and oracle outputs, untimed),
   set up once and warmed up by one untimed pass, then measured by
   whole timed passes over a fixed list of operations until the run's
   window is spent; the passes are preceded by at least three timed
   set-ups.  The fastest set-up and each operation's fastest timed run
   are what the run reports.  Every operation checks its own output against an oracle
   that does not depend on the compiler and publishes its counters
   into a fresh [Obs.Metrics] registry through the owning modules'
   [publish_metrics]; the registries are folded by name, so no counter
   is ever added up by hand.

   A traced run records spans: the bench's own around each layer's
   public calls, plus the ones already inside the library.  Each
   operation is a root span; after every operation the span ring is
   folded into per-layer self time and reset, so the ring never
   overflows across a pass.  Self times telescope: summed over all
   layers (the harness's own remainder included as [bench]) they equal
   the measured pass wall, unless a span was dropped or mis-parented —
   both of which fail the run. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks (p in [0, 100]). *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
    let frac = rank -. floor rank in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

let median xs = percentile xs 50.0

(* Quartiles by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so spreads printed here match
   the ones computed over a set of runs' JSON lines. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)
  end

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
       /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

(* The host layers a traced run splits wall time into, in pipeline
   order.  [bench] is the harness itself: its own spans and the part of
   each pass no span covers. *)
let layer_names =
  [ "frontend"; "analyze"; "link"; "launch_cache"; "runtime"; "kcompile";
    "exec"; "engine"; "serve"; "obs"; "bench" ]

(* Library spans are attributed by (category, name); the bench's own
   spans carry their layer as category.  Host time the simulator spends
   inside an engine phase is charged to that phase: [lib/gpusim] has no
   spans of its own. *)
let layer_of (r : Obs.Span.record) =
  match (r.Obs.Span.sp_cat, r.Obs.Span.sp_name) with
  | "toolchain", "frontend" -> "frontend"
  | "toolchain", "analyze" -> "analyze"
  | "toolchain", _ -> "link"
  | "launch_cache", name when String.starts_with ~prefix:"plan:" name ->
    "launch_cache"
  | ("launch_cache" | "kcompile"), _ -> "kcompile"
  | "dpool", _ -> "exec"
  | "engine", ("launch" | "chunked_launch" | "reduce_merge" | "shadow") ->
    "exec"
  | "engine", "barrier" -> "engine"
  | "engine", _ -> "runtime"
  | cat, _ -> cat

(* A bench-side span around one layer's public call. *)
let span layer name f = Obs.Span.with_span ~cat:layer name f

type layer_acc = { mutable self_s : float; mutable spans : int }

let acc_of tbl layer =
  match Hashtbl.find_opt tbl layer with
  | Some a -> a
  | None ->
    let a = { self_s = 0.0; spans = 0 } in
    Hashtbl.replace tbl layer a;
    a

let duration (r : Obs.Span.record) =
  r.Obs.Span.sp_wall_stop -. r.Obs.Span.sp_wall_start

(* Fold completed spans into per-layer self time (a span's duration
   minus its direct children's); returns the summed duration of the
   root spans. *)
let fold_spans tbl (recs : Obs.Span.record list) =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (r : Obs.Span.record) ->
       if r.Obs.Span.sp_parent >= 0 then
         Hashtbl.replace children r.Obs.Span.sp_parent
           (duration r
            +. Option.value ~default:0.0
              (Hashtbl.find_opt children r.Obs.Span.sp_parent)))
    recs;
  List.fold_left
    (fun roots (r : Obs.Span.record) ->
       let a = acc_of tbl (layer_of r) in
       a.self_s <-
         a.self_s +. duration r
         -. Option.value ~default:0.0 (Hashtbl.find_opt children r.Obs.Span.sp_id);
       a.spans <- a.spans + 1;
       if r.Obs.Span.sp_parent < 0 then roots +. duration r else roots)
    0.0 recs

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Sum every series of a registry into [into] by name (labels summed
   away), counting how many series contributed so gauges can be
   averaged. *)
let fold_registry into reg =
  List.iter
    (fun (s : Obs.Metrics.sample) ->
       let name = s.Obs.Metrics.m_name in
       let sum, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt into name) in
       Hashtbl.replace into name (sum +. Obs.Metrics.value s, n + 1))
    (Obs.Metrics.snapshot reg)

let total counters name =
  match Hashtbl.find_opt counters name with Some (s, _) -> s | None -> 0.0

let mean counters name =
  match Hashtbl.find_opt counters name with
  | Some (s, n) when n > 0 -> s /. float_of_int n
  | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type op = {
  op_name : string;
  op_run : Obs.Metrics.t -> bool;
      (** run one operation, publish its counters into the registry and
          return whether its output matched the oracle *)
}

type instance = {
  ops : op list;  (** one pass, in order *)
  exact : (string -> float) -> (string * float) list;
      (** the deterministic metrics of the pass just run, given its
          folded counter totals by name *)
}

type workload = {
  w_name : string;
  w_prepare : seed:int -> unit -> instance;
      (** generate inputs and oracle outputs (untimed), returning the
          set-up step (timed) *)
}

type run = {
  r_workload : string;
  r_seed : int;
  r_traced : bool;
  r_domains : int;
  r_setup : float list;  (** seconds per setup *)
  r_walls : float list;  (** seconds per timed pass *)
  r_fastest : float list;
      (** per operation, in pass order: its fastest timed run, in
          milliseconds *)
  r_attempted : int;
  r_failed : int;
  r_exact : (string * float) list;  (** of the last pass *)
  r_exact_stable : bool;  (** identical in every pass, warm-up included *)
  r_counters : (string, float * int) Hashtbl.t;  (** of the last pass *)
  r_layers : (string * layer_acc) list;  (** traced runs, all timed passes *)
  r_dropped : int;
  r_heap_mb : float;
}

let setups = 3

(* Failures are reported once per operation, on standard error. *)
let reported = Hashtbl.create 8

let guarded op reg =
  let ok, why =
    try (op.op_run reg, "output differs from its oracle")
    with e -> (false, "raised " ^ Printexc.to_string e)
  in
  if (not ok) && not (Hashtbl.mem reported op.op_name) then begin
    Hashtbl.replace reported op.op_name ();
    Printf.eprintf "suite: %s failed: %s\n%!" op.op_name why
  end;
  ok

let run_pass ~traced ~tbl inst ~on_op =
  let counters = Hashtbl.create 64 in
  let dropped = ref 0 in
  let roots = ref 0.0 in
  let t0 = now () in
  List.iteri
    (fun i op ->
       let reg = Obs.Metrics.create () in
       let t = now () in
       let ok =
         if traced then begin
           Obs.Span.reset ();
           let ok = span "bench" op.op_name (fun () -> guarded op reg) in
           dropped := !dropped + Obs.Span.dropped ();
           roots := !roots +. fold_spans tbl (Obs.Span.records ());
           Obs.Span.reset ();
           ok
         end
         else guarded op reg
       in
       let ms = (now () -. t) *. 1e3 in
       fold_registry counters reg;
       on_op i ok ms)
    inst.ops;
  let wall = now () -. t0 in
  if traced then begin
    let a = acc_of tbl "bench" in
    a.self_s <- a.self_s +. (wall -. !roots)
  end;
  (wall, counters, !dropped)

let run ?(log = prerr_endline) ~traced ~seed ~seconds (w : workload) =
  let setup = w.w_prepare ~seed in
  let first = setup () in
  Obs.Span.set_clock now;
  let tbl = Hashtbl.create 16 in
  let attempted = ref 0 and failed = ref 0 and dropped = ref 0 in
  let exact = ref None and stable = ref true in
  let fastest = Array.make (List.length first.ops) infinity in
  let pass ~timed inst =
    (* Every pass starts from a compacted heap, so neither its time nor
       the heap's high-water mark depends on how many passes ran before. *)
    Gc.compact ();
    Obs.Span.set_enabled traced;
    let wall, counters, d =
      run_pass ~traced ~tbl inst ~on_op:(fun i ok ms ->
          incr attempted;
          if not ok then incr failed;
          if timed then fastest.(i) <- Float.min fastest.(i) ms)
    in
    Obs.Span.set_enabled false;
    dropped := !dropped + d;
    let e = inst.exact (total counters) in
    (match !exact with
     | Some prev when prev <> e -> stable := false
     | _ -> ());
    exact := Some e;
    (wall, counters)
  in
  let warm, _ = pass ~timed:false first in
  Hashtbl.reset tbl;
  (* Whole passes until the window is spent, at least [setups].  Timed
     set-ups precede the passes, spread over the run after the warm-up:
     at least [setups] of them, and more while they have taken under a
     tenth of the window.  A set-up of 15 ms read 50% slow at random in
     a fresh process or during a slow spell of a shared host; the
     fastest of many spread ones does not. *)
  let setup_times = ref [] and inst = ref first in
  let walls = ref [] and last = ref (Hashtbl.create 1) in
  let t0 = now () in
  while List.length !walls < setups || now () -. t0 < seconds do
    if
      List.length !setup_times < setups
      || List.fold_left ( +. ) 0.0 !setup_times < seconds /. 10.0
    then begin
      let t = now () in
      inst := setup ();
      setup_times := (now () -. t) :: !setup_times
    end;
    let wall, counters = pass ~timed:true !inst in
    walls := wall :: !walls;
    last := counters
  done;
  log
    (Printf.sprintf "suite: %s warm-up %.3fs, %d timed passes in %.3fs" w.w_name warm
       (List.length !walls) (now () -. t0));
  let st = Gc.quick_stat () in
  {
    r_workload = w.w_name;
    r_seed = seed;
    r_traced = traced;
    r_domains = Gpu_runtime.Dpool.default_domains ();
    r_setup = List.rev !setup_times;
    r_walls = List.rev !walls;
    r_fastest = Array.to_list fastest;
    r_attempted = !attempted;
    r_failed = !failed;
    r_exact = Option.value ~default:[] !exact;
    r_exact_stable = !stable;
    r_counters = !last;
    r_layers =
      List.map (fun l -> (l, acc_of tbl l)) layer_names
      @ List.filter
        (fun (l, _) -> not (List.mem l layer_names))
        (List.of_seq (Hashtbl.to_seq tbl));
    r_dropped = !dropped;
    r_heap_mb =
      float_of_int st.Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
      /. 1e6;
  }
