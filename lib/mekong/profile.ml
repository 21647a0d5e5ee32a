(* Per-run profile collection: the glue between the simulator/engine
   state and the plain-data [Obs.Report.t].

   The byte matrix comes straight from [Machine.byte_matrix], which is
   charged at exactly the sites that charge [Machine.stats] — the
   report's matrix totals therefore reconcile exactly with the h2d /
   d2h / p2p byte counters, and [Report.matrix_totals] is the check.

   Counters are published into a *fresh* registry here (never the
   process-wide default), so a profile never mixes two runs: the
   engine series are the run's own registry, merged in. *)

let collect ?result ?(spans = true) (m : Gpusim.Machine.t) : Obs.Report.t =
  let elapsed = Gpusim.Machine.elapsed m in
  let devices =
    List.init (Gpusim.Machine.n_devices m) (fun d ->
        let compute, copy_in, copy_out = Gpusim.Machine.device_timelines m d in
        let busy tl = Gpusim.Timeline.total_busy tl in
        {
          Obs.Report.dr_device = d;
          dr_compute = busy compute;
          dr_copy_in = busy copy_in;
          dr_copy_out = busy copy_out;
          (* Device idle/utilization are judged against the compute
             engine: the copy engines overlap it by design, so summing
             the three lanes would overcount. *)
          dr_idle = Gpusim.Timeline.idle_in compute ~span:elapsed;
          dr_util = Gpusim.Timeline.utilization compute ~span:elapsed;
          dr_lost = Gpusim.Machine.device_lost m d;
        })
  in
  let host = Gpusim.Machine.host_timeline m in
  let host_busy =
    List.map
      (fun c -> (c, Gpusim.Timeline.busy_in host c))
      (List.sort compare (Gpusim.Timeline.categories host))
  in
  let reg = Obs.Metrics.create () in
  Gpusim.Machine.publish_metrics ~into:reg m;
  (match result with
   | Some r -> Multi_gpu.publish_metrics ~into:reg r
   | None -> ());
  (* Causal critical path, when the machine recorded one: the
     per-category attribution sums exactly to the makespan, so these
     counters reconcile with rp_elapsed by construction. *)
  (match Gpusim.Machine.causal_dag m with
   | None -> ()
   | Some dag ->
     let an = Obs.Causal.analyze dag in
     Obs.Metrics.set reg "critpath.makespan" an.Obs.Causal.an_makespan;
     Obs.Metrics.set reg "critpath.length"
       (Obs.Causal.critical_path_length an);
     Obs.Metrics.set reg "critpath.nodes" (float_of_int an.Obs.Causal.an_nodes);
     Obs.Metrics.set reg "critpath.replay_drift" an.Obs.Causal.an_replay_drift;
     List.iter
       (fun (cat, s) -> Obs.Metrics.set reg ("critpath." ^ cat) s)
       an.Obs.Causal.an_by_category);
  let counters =
    List.filter_map
      (fun (s : Obs.Metrics.sample) ->
         (* The per-pair series duplicate the matrix; keep the scalars. *)
         if s.Obs.Metrics.m_labels = [] then
           Some (s.Obs.Metrics.m_name, Obs.Metrics.value s)
         else None)
      (Obs.Metrics.snapshot reg)
  in
  {
    Obs.Report.rp_elapsed = elapsed;
    rp_devices = devices;
    rp_host_busy = host_busy;
    rp_fabric_busy =
      List.fold_left
        (fun acc (_, tl) -> acc +. Gpusim.Timeline.total_busy tl)
        0.0
        (Gpusim.Machine.link_timelines m);
    rp_matrix = Gpusim.Machine.byte_matrix m;
    rp_counters = counters;
    rp_spans =
      (if spans then Obs.Span.summarize (Obs.Span.records ()) else []);
  }
