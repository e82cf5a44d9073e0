(** Training-data collection (paper Sec. 3.3).

    For each training input and each phase, the sampler exhaustively
    sweeps every AB's AL range while the other ABs run exactly (the data
    behind the {e local} models), then draws sparse random joint
    configurations to capture multi-AB interaction (the data behind the
    {e overall} models).  Every run is scored against the input's exact
    execution: whole-run speedup, whole-run QoS degradation, and the
    outer-loop iteration count. *)

type sample = {
  input : float array;  (** the input-parameter vector *)
  phase : int;  (** phase that was approximated (others exact) *)
  levels : int array;  (** AL vector active during that phase *)
  speedup : float;
  qos : float;  (** percent degradation *)
  iters_ratio : float;  (** approximate iterations / exact iterations *)
  trace_class : int;  (** control-flow class id (see {!Cfmodel}) *)
}

type t = {
  app : Opprox_sim.App.t;
  n_phases : int;
  samples : sample array;
  classes : Cfmodel.t;
}

type config = {
  joint_samples_per_phase : int;  (** sparse random joint samples; default 12 *)
  inputs : float array array option;
      (** override the app's training inputs (e.g. to subsample) *)
  seed : int;
}

val default_config : config

val collect : ?config:config -> ?pool:Opprox_util.Pool.t -> Opprox_sim.App.t -> n_phases:int -> t
(** Run the instrumented application over the sampling plan.  The exact
    baseline is executed {e once per input}, up front, into a
    {!Opprox_sim.Driver.memo} that lives for this call only; every sample in the plan is then evaluated
    against that baseline, fanned out over [?pool] (default:
    {!Opprox_util.Pool.default}).  The plan visits phases in ascending
    order per input, which is exactly the checkpoint-friendly order: each
    sample's exact phase prefix is restored from the driver's boundary
    checkpoints instead of being re-simulated (each prefix is executed at
    most once per (input, n_phases) at [--jobs 1]).  The plan itself —
    including every random joint configuration — is drawn sequentially
    from [config.seed] before any parallel execution starts, so the
    collected dataset is bit-identical whatever the domain count. *)

val samples_of_phase : t -> int -> sample array

val local_samples : t -> ab:int -> phase:int -> sample array
(** Samples in which only [ab] was approximated (the local-model data). *)

val n_runs : t -> int
(** Number of approximate executions the collection performed. *)

val sample_to_sexp : sample -> Opprox_util.Sexp.t
val sample_of_sexp : Opprox_util.Sexp.t -> sample

val to_sexp : t -> Opprox_util.Sexp.t
(** Serialize the collected dataset (the application itself is stored by
    name; {!of_sexp} re-resolves it through the caller). *)

val of_sexp : resolve:(string -> Opprox_sim.App.t) -> Opprox_util.Sexp.t -> t
(** [resolve] maps the stored application name back to its descriptor
    (e.g. [Opprox_apps.Registry.find]). *)
