(** The two-pass compilation pipeline (paper §3, Fig. 2): pass 1 runs
    the front-end and the polyhedral analysis and persists the
    application model; the rewriter retargets the host source; pass 2
    compiles again, generating partitioned kernels and enumerators and
    linking against the runtime. *)

type artifacts = {
  model : Model.t;
  exe : Multi_gpu.exe;
  original_source : string;
  rewritten_source : string;
  model_file : string option;
}

type error = { kernel : string; reason : Access.error }

val error_message : error -> string

val pass1 :
  ?assume:((int * string) list * int) list ->
  ?instrument_writes:bool ->
  Host_ir.t ->
  (Model.t * string, error) result
(** Analysis pass; everything but the model (and the rendered source)
    is discarded.  [instrument_writes] enables the §11 fallback:
    kernels with unanalyzable writes are accepted and their write sets
    collected at run time. *)

val pass2 : Model.t -> Host_ir.t -> Multi_gpu.exe

val compile :
  ?assume:((int * string) list * int) list ->
  ?instrument_writes:bool ->
  ?model_file:string ->
  Host_ir.t ->
  (artifacts, error) result
(** The full pipeline.  With [model_file] the model is persisted and
    reloaded between the passes, as the two gpucc invocations
    communicate through the file system. *)

val explain_plans : cfg:Gpusim.Config.t -> artifacts -> Autotune.choice list
(** Re-derive the autotuner's candidate search ({!Autotune.choose}) for
    every distinct launch of the compiled program, statically: buffer
    lengths come from the [Malloc]s, double-buffer aliases from the
    [Swap]s, iteration context from the enclosing [Repeat] products,
    and the live set is the full fleet of [cfg].  On ideal hardware
    this matches what an autotuned engine run computes when it first
    builds each plan.  Backs [mekongc plan] and [run --explain-plan]. *)

val launch_steps :
  ?overlap:bool ->
  ?autotune:bool ->
  cfg:Gpusim.Config.t ->
  artifacts ->
  (Autotune.choice * Plan.t) list
(** Per distinct launch, in {!explain_plans} order: the autotuner's
    choice and the steps ({!Plan.of_launch}) an engine on [cfg]'s fleet
    runs for it — with the choice's winner when [autotune] (default
    true), else with the model's fixed axis; [overlap] (default false)
    as the engine option.  A launch whose stencil loop runs halo-tiled
    shows the steps of its first temporal block ({!Plan.halo}).  Backs
    [mekongc plan]. *)

val compile_time_ratio : ?repeat:int -> Host_ir.t -> float * float * float
(** (single-pass seconds, two-pass seconds, ratio) — experiment E6.
    Each stage's time is the median of [repeat] (default 21, must be
    positive) timed runs after one untimed warm-up run. *)

type profile = {
  p_frontend : float;
  p_analysis : float;
  p_rewrite : float;
  p_link : float;
}

val compile_profile : Host_ir.t -> profile
(** Per-stage wall times of one pipeline execution. *)
