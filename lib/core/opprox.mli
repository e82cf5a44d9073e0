(** OPPROX: phase-aware optimization of approximate programs.

    Reproduction of Mitra, Gupta, Misailovic & Bagchi, {e Phase-Aware
    Optimization in Approximate Computing} (CGO 2017).

    The end-to-end pipeline ({!train} then {!optimize}) mirrors the
    paper's four conceptual steps:

    + identify the computation phases ({!Phases}, Algorithm 1),
    + model speedup and QoS degradation per phase from profiling runs on
      representative inputs ({!Training}, {!Models}),
    + split the user's error budget into phase sub-budgets in proportion
      to each phase's return on investment ({!Roi}),
    + solve a per-phase discrete optimization for the most profitable
      approximation-level settings ({!Optimizer}, Algorithm 2); a phase
      space too large to enumerate is searched by multi-chain MCMC
      ({!Search} over {!Cost}, {!Mutate} and {!Mcmc}).

    The phase-agnostic exhaustive baseline of prior work is {!Oracle}.

    {2 Quickstart}

    {[
      let app = Opprox_apps.Pso.app in
      let trained = Opprox.train app in
      let plan = Opprox.optimize trained ~budget:10.0 in
      let outcome = Opprox.apply trained plan in
      Printf.printf "speedup %.2f at %.1f%% QoS degradation\n"
        outcome.speedup outcome.qos_degradation
    ]} *)

module Training = Training
module Models = Models
module Roi = Roi
module Cost = Cost
module Mutate = Mutate
module Mcmc = Mcmc
module Search = Search
module Optimizer = Optimizer
module Oracle = Oracle
module Phases = Phases
module Cfmodel = Cfmodel
module Runtime = Runtime
module Controller = Controller

type trained = {
  app : Opprox_sim.App.t;
  training : Training.t;
  models : Models.t;
  roi : float array;
  phase_probes : Phases.probe_result list;  (** empty when [n_phases] was forced *)
}

type train_config = {
  n_phases : int option;
      (** force a phase count instead of running Algorithm 1 *)
  phase_threshold : float;  (** Algorithm 1 sensitivity threshold *)
  max_phases : int;
  training : Training.config;
  model : Models.config;
}

val default_train_config : train_config

val train : ?config:train_config -> Opprox_sim.App.t -> trained
(** Offline stage: phase search, profiling runs, model fitting, ROI. *)

val optimize : ?input:float array -> trained -> budget:float -> Optimizer.plan
(** Pre-run stage: find phase-specific AL settings for a QoS budget
    (percent degradation).  [input] defaults to the app's default input. *)

val apply : ?input:float array -> trained -> Optimizer.plan -> Opprox_sim.Driver.evaluation
(** Execute the application under a plan's schedule and measure the real
    speedup and QoS degradation.  The plan is first audited against the
    trained models ({!Optimizer.lint}); a plan whose schedule does not
    fit the application — out-of-range level, wrong AB count — raises
    {!Opprox_analysis.Diagnostic.Lint_error} instead of misbehaving
    mid-run. *)

val run_controlled :
  ?config:Controller.config ->
  ?replan:Controller.replanner ->
  ?input:float array ->
  trained ->
  Optimizer.plan ->
  Controller.outcome
(** Execute a plan under the online {!Controller}: phase-by-phase, with
    drift checks at each boundary and suffix replans against the
    remaining budget when observations diverge from the plan's
    predictions.  Requires an iterative application.  [input] defaults to
    the app's default input — running a plan solved for one input on a
    {e different} (perturbed) input is the whole point. *)

val run_oracle : ?input:float array -> Opprox_sim.App.t -> budget:float -> Oracle.result
(** The phase-agnostic exhaustive baseline on the same protocol. *)

val save : string -> trained -> unit
(** Persist a trained pipeline (dataset, models, ROI) to a file — the
    equivalent of the paper's pickled-model store between the offline
    training stage and job submission.  The application is stored by
    name. *)

val submit : resolve:(string -> Opprox_sim.App.t) -> Runtime.job -> Runtime.submission
(** The paper's runtime step end to end: load the trained pipeline named
    by the job's config, optimize for its budget, encode the settings as
    environment variables, and execute.  Fails when the stored models were
    trained for a different application than the job names. *)

val load : ?strict:bool -> resolve:(string -> Opprox_sim.App.t) -> string -> trained
(** Load a pipeline saved by {!save}.  [resolve] maps the stored
    application name back to its descriptor — pass
    [Opprox_apps.Registry.find] for the bundled benchmarks, or your own
    lookup for custom applications.  The loaded models are audited by
    {!Models.of_sexp}'s lint pass: diagnostics are logged, and
    Error-severity findings raise under [strict] (default
    [OPPROX_STRICT=1]). *)
