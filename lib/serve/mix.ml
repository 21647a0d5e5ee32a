(* Deterministic synthetic job mixes for the serving campaigns. *)

type built = {
  b_spec : Job.spec;
  b_key : string;
  b_output : float array;
  b_solo : unit -> Mekong.Multi_gpu.exe * float array;
  b_poison : bool;
}

(* Small functional instances: inputs are pure functions of the index,
   so two builds of one key are bit-identical. *)
let menu : (string * (unit -> Host_ir.t * float array)) list =
  let third (p, o, _) = (p, o) in
  [
    ("vecadd-1024", fun () -> third (Apps.Workloads.functional_vecadd ~n:1024));
    ("vecadd-4096", fun () -> third (Apps.Workloads.functional_vecadd ~n:4096));
    ("matmul-24", fun () -> third (Apps.Workloads.functional_matmul ~n:24));
    ("matmul-32", fun () -> third (Apps.Workloads.functional_matmul ~n:32));
    ( "hotspot-32",
      fun () -> third (Apps.Workloads.functional_hotspot ~n:32 ~iterations:2) );
    ( "hotspot-48",
      fun () -> third (Apps.Workloads.functional_hotspot ~n:48 ~iterations:2) );
    ( "nbody-64",
      fun () -> third (Apps.Workloads.functional_nbody ~n:64 ~iterations:1) );
    ( "nbody-96",
      fun () -> third (Apps.Workloads.functional_nbody ~n:96 ~iterations:2) );
  ]

(* Polyhedral analysis depends only on kernel structure and scalar
   arguments — identical across instances of one key — so pass 1 runs
   once per key and pass 2 links each instance against the cached
   model. *)
let model_cache : (string, Mekong.Model.t) Hashtbl.t = Hashtbl.create 8

let link key (prog : Host_ir.t) =
  let model =
    match Hashtbl.find_opt model_cache key with
    | Some m -> m
    | None -> (
        match Mekong.Toolchain.pass1 prog with
        | Ok (m, _) ->
          Hashtbl.add model_cache key m;
          m
        | Error e -> failwith (Mekong.Toolchain.error_message e))
  in
  Mekong.Toolchain.pass2 model prog

let build key =
  let prog, out = (List.assoc key menu) () in
  (prog, out)

(* Kernels always fault transiently (rate 1.0, no forced-success cap):
   the engine's backoff budget deterministically exhausts, so every
   attempt fails — a poison job. *)
let poison_faults seed =
  {
    Gpusim.Faults.seed;
    kernel_fault_rate = 1.0;
    transfer_fault_rate = 0.0;
    loss_rate = 0.0;
    scheduled_losses = [];
    max_consecutive = max_int;
  }

let generate ?(seed = 1) ?(tenants = 3) ?(poison = 0) ?deadline
    ?(mean_gap = 2e-4) ~jobs () =
  if jobs < 1 then invalid_arg "Mix.generate: jobs must be positive";
  if tenants < 1 then invalid_arg "Mix.generate: tenants must be positive";
  if poison < 0 || poison > jobs then
    invalid_arg "Mix.generate: poison must be in [0, jobs]";
  let rng = Gpusim.Faults.create { Gpusim.Faults.null_spec with seed } in
  let u () = Gpusim.Faults.uniform rng in
  let draw n = min (n - 1) (int_of_float (u () *. float_of_int n)) in
  let menu_arr = Array.of_list menu in
  (* Poison jobs spread evenly through the stream, never at index 0 (a
     cold scheduler start should see a healthy job first). *)
  let poison_at =
    List.init poison (fun k -> ((2 * k) + 1) * jobs / (2 * poison))
    |> List.map (fun i -> max 1 (min (jobs - 1) i))
  in
  let t = ref 0.0 in
  List.init jobs (fun i ->
      t := !t +. (2.0 *. mean_gap *. u ());
      let arrival = !t in
      let tenant = Printf.sprintf "tenant-%d" (draw tenants) in
      let priority = draw 3 in
      let devices = [| 1; 2; 4 |].(draw 3) in
      let is_poison = List.mem i poison_at in
      let key =
        if is_poison then "vecadd-1024" else fst menu_arr.(draw (Array.length menu_arr))
      in
      let prog, out = build key in
      let exe = link key prog in
      let name =
        if is_poison then Printf.sprintf "j%03d-poison" i
        else Printf.sprintf "j%03d-%s" i key
      in
      let faults = if is_poison then Some (poison_faults (seed + i)) else None in
      {
        b_spec =
          Job.make ~exe ~priority ~arrival ?deadline ~devices ?faults ~name
            ~tenant prog;
        b_key = key;
        b_output = out;
        b_solo =
          (fun () ->
            let prog', out' = build key in
            (link key prog', out'));
        b_poison = is_poison;
      })
