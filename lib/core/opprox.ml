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
module App = Opprox_sim.App
module Driver = Opprox_sim.Driver

type trained = {
  app : App.t;
  training : Training.t;
  models : Models.t;
  roi : float array;
  phase_probes : Phases.probe_result list;
}

type train_config = {
  n_phases : int option;
  phase_threshold : float;
  max_phases : int;
  training : Training.config;
  model : Models.config;
}

let default_train_config =
  {
    n_phases = None;
    phase_threshold = 1.0;
    max_phases = 4;
    training = Training.default_config;
    model = Models.default_config;
  }

let train ?(config = default_train_config) app =
  let n_phases, phase_probes =
    match config.n_phases with
    | Some n -> (n, [])
    | None -> Phases.search ~threshold:config.phase_threshold ~max_phases:config.max_phases app
  in
  let training = Training.collect ~config:config.training app ~n_phases in
  let models = Models.build ~config:config.model training in
  let roi = Roi.of_training training in
  { app; training; models; roi; phase_probes }

let optimize ?input trained ~budget =
  let input = match input with Some i -> i | None -> trained.app.App.default_input in
  Optimizer.optimize ~models:trained.models ~roi:trained.roi ~input ~budget ()

let apply ?input trained (plan : Optimizer.plan) =
  let input = match input with Some i -> i | None -> trained.app.App.default_input in
  (* Plans can arrive from outside the optimizer (deserialized, edited by
     hand, or built for different models); re-audit before running one. *)
  Opprox_analysis.Diagnostic.raise_errors ~strict:false
    (Optimizer.lint ~models:trained.models plan);
  Driver.evaluate trained.app plan.Optimizer.schedule input

let run_controlled ?config ?replan ?input trained (plan : Optimizer.plan) =
  let input = match input with Some i -> i | None -> trained.app.App.default_input in
  Controller.run ?config ?replan ~models:trained.models ~roi:trained.roi ~input plan

let run_oracle ?input app ~budget =
  let input = match input with Some i -> i | None -> app.App.default_input in
  Oracle.search app ~input ~budget

(* -------------------------------------------------------- serialization *)

module Sexp = Opprox_util.Sexp

let to_sexp trained =
  Sexp.record
    [
      ("app", Sexp.string trained.app.App.name);
      ("roi", Sexp.float_array trained.roi);
      ("training", Training.to_sexp trained.training);
      ("models", Models.to_sexp trained.models);
    ]

let of_sexp ?strict ~resolve sexp =
  {
    app = resolve (Sexp.to_string_atom (Sexp.field sexp "app"));
    roi = Sexp.to_float_array (Sexp.field sexp "roi");
    training = Training.of_sexp ~resolve (Sexp.field sexp "training");
    models = Models.of_sexp ?strict ~resolve (Sexp.field sexp "models");
    phase_probes = [];
  }

let save path trained = Sexp.save path (to_sexp trained)

let load ?strict ~resolve path = of_sexp ?strict ~resolve (Sexp.load path)

let submit ~resolve (job : Runtime.job) =
  let trained = load ~resolve job.Runtime.model_path in
  let app = trained.app in
  if app.App.name <> job.Runtime.app_name then
    failwith
      (Printf.sprintf "Opprox.submit: models were trained for %s, job says %s" app.App.name
         job.Runtime.app_name);
  let input = match job.Runtime.input with Some i -> i | None -> app.App.default_input in
  let plan = optimize ~input trained ~budget:job.Runtime.budget in
  let env = Runtime.plan_env_vars ~app plan in
  let outcome = apply ~input trained plan in
  { Runtime.job; plan; env; outcome }
