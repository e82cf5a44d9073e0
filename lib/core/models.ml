module App = Opprox_sim.App
module Polyreg = Opprox_ml.Polyreg
module Confidence = Opprox_ml.Confidence
module Stats = Opprox_util.Stats
module Rng = Opprox_util.Rng
module Diagnostic = Opprox_analysis.Diagnostic
module Lint_models = Opprox_analysis.Lint_models

let log_src = Logs.Src.create "opprox.models" ~doc:"OPPROX model fitting"

module Log = (val Logs.src_log log_src : Logs.LOG)

type prediction = {
  speedup : float;
  qos : float;
  speedup_lo : float;
  qos_hi : float;
  iters_ratio : float;
}

type config = {
  regression : Polyreg.config;
  ci_p : float;
  min_class_samples : int;
  seed : int;
}

let default_config =
  { regression = Polyreg.default_config; ci_p = 0.95; min_class_samples = 40; seed = 0x40DE1 }

type phase_models = {
  iter_model : Polyreg.t;
  local_speedup : Polyreg.t array; (* indexed by AB *)
  local_qos : Polyreg.t array;
  overall_speedup : Polyreg.t;
  overall_qos : Polyreg.t;
  speedup_ci : Confidence.t;
  qos_ci : Confidence.t;
}

type t = {
  app : App.t;
  n_phases : int;
  config : config;
  classes : Cfmodel.t;
  (* class id -> per-phase models; class 0 doubles as the fallback trained
     on every sample. *)
  per_class : phase_models array array;
  (* (class id, training-sample count) at build time; [] for model files
     saved before the counts were recorded.  Kept for the static checker's
     thin-class audit (MODEL004). *)
  class_samples : (int * int) list;
}

let iter_features (s : Training.sample) =
  Array.append (Array.map float_of_int s.levels) s.input

(* QoS degradations are heavy-tailed (an unstable corner of the AL space
   can produce errors orders of magnitude above the useful operating
   region), so QoS models are fit on log(1 + qos): regression error in the
   tail no longer wrecks the fit near the budgets the optimizer cares
   about, and the confidence interval becomes multiplicative. *)
let log_qos q = Float.log1p (Float.max 0.0 q)
let unlog_qos l = Float.max 0.0 (Float.expm1 l)

let local_features (s : Training.sample) ~ab = Array.append [| float_of_int s.levels.(ab) |] s.input

(* Overall-model features: the local models' predictions for each AB's
   level in this sample, plus the estimated iteration ratio (paper: "we
   explicitly use the estimated value as an input feature"). *)
let overall_features pm (s : Training.sample) =
  let n_abs = Array.length pm.local_speedup in
  let iters_est = Polyreg.predict pm.iter_model (iter_features s) in
  Array.init (n_abs + 1) (fun i ->
      if i = n_abs then iters_est else Polyreg.predict pm.local_speedup.(i) (local_features s ~ab:i))

let overall_qos_features pm (s : Training.sample) =
  let n_abs = Array.length pm.local_qos in
  let iters_est = Polyreg.predict pm.iter_model (iter_features s) in
  Array.init (n_abs + 1) (fun i ->
      if i = n_abs then iters_est else Polyreg.predict pm.local_qos.(i) (local_features s ~ab:i))

let fit_phase ~config ~rng ~app samples =
  let n_abs = App.n_abs app in
  let all_rows f = Array.map f samples in
  let iter_model =
    Polyreg.fit ~config:config.regression ~rng (all_rows iter_features)
      (Array.map (fun (s : Training.sample) -> s.iters_ratio) samples)
  in
  let fit_local target_of ab =
    (* Local sweeps have every other AB at level 0; joint samples would
       contaminate the local relationship, so filter to locals — but fall
       back to every sample when an AB has no dedicated sweep data. *)
    let locals =
      Array.of_seq
        (Seq.filter
           (fun (s : Training.sample) ->
             Array.for_all Fun.id (Array.mapi (fun i l -> i = ab || l = 0) s.levels))
           (Array.to_seq samples))
    in
    let data = if Array.length locals >= 4 then locals else samples in
    Polyreg.fit ~config:config.regression ~rng
      (Array.map (fun s -> local_features s ~ab) data)
      (Array.map target_of data)
  in
  let local_speedup = Array.init n_abs (fit_local (fun s -> s.speedup)) in
  let local_qos = Array.init n_abs (fit_local (fun (s : Training.sample) -> log_qos s.qos)) in
  let partial =
    {
      iter_model;
      local_speedup;
      local_qos;
      overall_speedup = iter_model (* placeholder, replaced below *);
      overall_qos = iter_model;
      speedup_ci = Confidence.of_residuals [||];
      qos_ci = Confidence.of_residuals [||];
    }
  in
  let overall_speedup =
    Polyreg.fit ~config:config.regression ~rng
      (Array.map (overall_features partial) samples)
      (Array.map (fun (s : Training.sample) -> s.speedup) samples)
  in
  let overall_qos =
    Polyreg.fit ~config:config.regression ~rng
      (Array.map (overall_qos_features partial) samples)
      (Array.map (fun (s : Training.sample) -> log_qos s.qos) samples)
  in
  {
    partial with
    overall_speedup;
    overall_qos;
    speedup_ci = Confidence.of_model ~p:config.ci_p overall_speedup;
    qos_ci = Confidence.of_model ~p:config.ci_p overall_qos;
  }


let models_for t input =
  let cls = Cfmodel.classify t.classes input in
  if cls >= 0 && cls < Array.length t.per_class then t.per_class.(cls) else t.per_class.(0)

let predict t ~input ~phase ~levels =
  if phase < 0 || phase >= t.n_phases then invalid_arg "Models.predict: bad phase";
  if Array.length levels <> App.n_abs t.app then invalid_arg "Models.predict: bad levels arity";
  if Array.for_all (fun l -> l = 0) levels then
    (* Exact execution needs no model: speedup 1, no degradation. *)
    { speedup = 1.0; qos = 0.0; speedup_lo = 1.0; qos_hi = 0.0; iters_ratio = 1.0 }
  else
  let pm = (models_for t input).(phase) in
  let pseudo : Training.sample =
    {
      input;
      phase;
      levels;
      speedup = 0.0;
      qos = 0.0;
      iters_ratio = 0.0;
      trace_class = 0;
    }
  in
  let iters_ratio = Polyreg.predict pm.iter_model (iter_features pseudo) in
  let speedup = Polyreg.predict pm.overall_speedup (overall_features pm pseudo) in
  let log_q = Polyreg.predict pm.overall_qos (overall_qos_features pm pseudo) in
  let speedup = Float.max 0.01 speedup in
  {
    speedup;
    qos = unlog_qos log_q;
    speedup_lo = Float.max 0.01 (Confidence.lower pm.speedup_ci speedup);
    qos_hi = unlog_qos (Confidence.upper pm.qos_ci log_q);
    iters_ratio;
  }

(* Compiled per-input predictor: classification, model selection, and
   regression-model compilation happen once; each call reuses the scratch
   feature buffers below.  The arithmetic mirrors [predict] exactly, with
   one redundancy removed: [predict] evaluates the iteration model three
   times per query (once directly, once inside each overall feature
   vector) — here it is evaluated once and the identical float reused. *)
let predictor t ~input =
  let n_abs = App.n_abs t.app in
  let n_input = Array.length input in
  let compiled =
    Array.map
      (fun pm ->
        ( pm,
          Polyreg.predictor pm.iter_model,
          Array.map Polyreg.predictor pm.local_speedup,
          Array.map Polyreg.predictor pm.local_qos,
          Polyreg.predictor pm.overall_speedup,
          Polyreg.predictor pm.overall_qos ))
      (models_for t input)
  in
  (* Feature layouts match [iter_features] / [local_features] /
     [overall_features]: levels (or one level) first, then the input
     vector, which never changes and is blitted once. *)
  let iter_feat = Array.make (n_abs + n_input) 0.0 in
  Array.blit input 0 iter_feat n_abs n_input;
  let local_feat = Array.make (1 + n_input) 0.0 in
  Array.blit input 0 local_feat 1 n_input;
  let overall_feat = Array.make (n_abs + 1) 0.0 in
  fun ~phase ~levels ->
    if phase < 0 || phase >= t.n_phases then invalid_arg "Models.predictor: bad phase";
    if Array.length levels <> n_abs then invalid_arg "Models.predictor: bad levels arity";
    if Array.for_all (fun l -> l = 0) levels then
      { speedup = 1.0; qos = 0.0; speedup_lo = 1.0; qos_hi = 0.0; iters_ratio = 1.0 }
    else begin
      let pm, iter_p, local_speedup_p, local_qos_p, overall_speedup_p, overall_qos_p =
        compiled.(phase)
      in
      for i = 0 to n_abs - 1 do
        iter_feat.(i) <- float_of_int levels.(i)
      done;
      let iters_ratio = iter_p iter_feat in
      for ab = 0 to n_abs - 1 do
        local_feat.(0) <- float_of_int levels.(ab);
        overall_feat.(ab) <- local_speedup_p.(ab) local_feat
      done;
      overall_feat.(n_abs) <- iters_ratio;
      let speedup = overall_speedup_p overall_feat in
      for ab = 0 to n_abs - 1 do
        local_feat.(0) <- float_of_int levels.(ab);
        overall_feat.(ab) <- local_qos_p.(ab) local_feat
      done;
      overall_feat.(n_abs) <- iters_ratio;
      let log_q = overall_qos_p overall_feat in
      let speedup = Float.max 0.01 speedup in
      {
        speedup;
        qos = unlog_qos log_q;
        speedup_lo = Float.max 0.01 (Confidence.lower pm.speedup_ci speedup);
        qos_hi = unlog_qos (Confidence.upper pm.qos_ci log_q);
        iters_ratio;
      }
    end

(* ------------------------------------------------------- static checking *)

let regression_views pm =
  let reg role m = { Lint_models.role; pieces = Polyreg.pieces m } in
  (reg "iter_model" pm.iter_model :: reg "overall_speedup" pm.overall_speedup
  :: reg "overall_qos" pm.overall_qos
  :: Array.to_list
       (Array.mapi (fun i m -> reg (Printf.sprintf "local_speedup[%d]" i) m) pm.local_speedup)
  )
  @ Array.to_list
      (Array.mapi (fun i m -> reg (Printf.sprintf "local_qos[%d]" i) m) pm.local_qos)

let view t =
  {
    Lint_models.app_name = t.app.App.name;
    abs = t.app.App.abs;
    n_phases = t.n_phases;
    min_class_samples = t.config.min_class_samples;
    class_samples = t.class_samples;
    per_class =
      Array.map
        (Array.map (fun pm ->
             {
               Lint_models.regressions = regression_views pm;
               speedup_ci = Confidence.half_width pm.speedup_ci;
               qos_ci = Confidence.half_width pm.qos_ci;
             }))
        t.per_class;
    predict =
      (let compiled = lazy (predictor t ~input:t.app.App.default_input) in
       fun ~phase ~levels ->
        let p = Lazy.force compiled ~phase ~levels in
        {
          Lint_models.speedup = p.speedup;
          speedup_lo = p.speedup_lo;
          qos = p.qos;
          qos_hi = p.qos_hi;
          iters_ratio = p.iters_ratio;
        });
  }

let lint t = Lint_models.check (view t)

let audit ?(strict = Diagnostic.strict_env ()) t =
  let diags = lint t in
  List.iter
    (fun (d : Diagnostic.t) ->
      let level =
        match d.severity with
        | Diagnostic.Error -> Logs.Error
        | Diagnostic.Warning -> Logs.Warning
        | Diagnostic.Info -> Logs.Info
      in
      Log.msg level (fun m -> m "%a" Diagnostic.pp d))
    diags;
  (* Warnings stay logged in every mode; strict turns Error-severity model
     defects into a raised {!Diagnostic.Lint_error} (the CLI's [--strict]
     additionally promotes warnings, but only for its exit code). *)
  if strict then Diagnostic.raise_errors ~strict:false diags;
  t

let build ?(config = default_config) ?strict (training : Training.t) =
  let rng = Rng.create config.seed in
  let app = training.app in
  let n_phases = training.n_phases in
  let fit_class samples =
    Array.init n_phases (fun phase ->
        let phase_samples =
          Array.of_seq
            (Seq.filter (fun (s : Training.sample) -> s.phase = phase) (Array.to_seq samples))
        in
        fit_phase ~config ~rng ~app phase_samples)
  in
  let fallback = fit_class training.samples in
  let n_classes = Cfmodel.n_classes training.classes in
  let per_class =
    Array.init n_classes (fun cls ->
        if cls = 0 then fallback
        else
          let class_samples =
            Array.of_seq
              (Seq.filter
                 (fun (s : Training.sample) -> s.trace_class = cls)
                 (Array.to_seq training.samples))
          in
          if Array.length class_samples < config.min_class_samples * n_phases then fallback
          else fit_class class_samples)
  in
  let class_samples =
    List.init n_classes (fun cls ->
        ( cls,
          Array.fold_left
            (fun acc (s : Training.sample) -> if s.trace_class = cls then acc + 1 else acc)
            0 training.samples ))
  in
  let t = { app; n_phases; config; classes = training.classes; per_class; class_samples } in
  Log.info (fun m ->
      let mean f = Stats.mean (Array.map f t.per_class.(0)) in
      m "fitted models for %s: %d classes x %d phases (qos R2 %.3f, speedup R2 %.3f)"
        app.App.name n_classes n_phases
        (mean (fun pm -> Polyreg.cv_r2 pm.overall_qos))
        (mean (fun pm -> Polyreg.cv_r2 pm.overall_speedup)));
  audit ?strict t

let compose_speedup speedups =
  let savings =
    List.fold_left (fun acc s -> acc +. (1.0 -. (1.0 /. Float.max 0.01 s))) 0.0 speedups
  in
  1.0 /. Float.max 0.05 (1.0 -. savings)

let n_phases t = t.n_phases
let app t = t.app

let mean_over_phases t f =
  Stats.mean (Array.map f t.per_class.(0))

let qos_r2 t = mean_over_phases t (fun pm -> Polyreg.cv_r2 pm.overall_qos)
let speedup_r2 t = mean_over_phases t (fun pm -> Polyreg.cv_r2 pm.overall_speedup)
let iter_r2 t = mean_over_phases t (fun pm -> Polyreg.cv_r2 pm.iter_model)

let max_polynomial_degree t =
  Array.fold_left
    (fun acc phases ->
      Array.fold_left
        (fun acc pm ->
          List.fold_left Stdlib.max acc
            [
              Polyreg.degree pm.iter_model;
              Polyreg.degree pm.overall_speedup;
              Polyreg.degree pm.overall_qos;
            ])
        acc phases)
    0 t.per_class

(* -------------------------------------------------------- serialization *)

module Sexp = Opprox_util.Sexp

let phase_models_to_sexp pm =
  Sexp.record
    [
      ("iter_model", Polyreg.to_sexp pm.iter_model);
      ("local_speedup", Sexp.list (Array.to_list (Array.map Polyreg.to_sexp pm.local_speedup)));
      ("local_qos", Sexp.list (Array.to_list (Array.map Polyreg.to_sexp pm.local_qos)));
      ("overall_speedup", Polyreg.to_sexp pm.overall_speedup);
      ("overall_qos", Polyreg.to_sexp pm.overall_qos);
      ("speedup_ci", Confidence.to_sexp pm.speedup_ci);
      ("qos_ci", Confidence.to_sexp pm.qos_ci);
    ]

let phase_models_of_sexp sexp =
  let polyregs name =
    Array.of_list (List.map Polyreg.of_sexp (Sexp.to_list (Sexp.field sexp name)))
  in
  {
    iter_model = Polyreg.of_sexp (Sexp.field sexp "iter_model");
    local_speedup = polyregs "local_speedup";
    local_qos = polyregs "local_qos";
    overall_speedup = Polyreg.of_sexp (Sexp.field sexp "overall_speedup");
    overall_qos = Polyreg.of_sexp (Sexp.field sexp "overall_qos");
    speedup_ci = Confidence.of_sexp (Sexp.field sexp "speedup_ci");
    qos_ci = Confidence.of_sexp (Sexp.field sexp "qos_ci");
  }

let config_to_sexp (c : config) =
  Sexp.record
    [
      ("ci_p", Sexp.float c.ci_p);
      ("min_class_samples", Sexp.int c.min_class_samples);
      ("seed", Sexp.int c.seed);
    ]

let config_of_sexp sexp =
  {
    default_config with
    ci_p = Sexp.to_float (Sexp.field sexp "ci_p");
    min_class_samples = Sexp.to_int (Sexp.field sexp "min_class_samples");
    seed = Sexp.to_int (Sexp.field sexp "seed");
  }

let to_sexp t =
  Sexp.record
    [
      ("app", Sexp.string t.app.App.name);
      ("n_phases", Sexp.int t.n_phases);
      ("config", config_to_sexp t.config);
      ("classes", Cfmodel.to_sexp t.classes);
      ( "class_samples",
        Sexp.list
          (List.map (fun (c, n) -> Sexp.list [ Sexp.int c; Sexp.int n ]) t.class_samples) );
      ( "per_class",
        Sexp.list
          (Array.to_list
             (Array.map
                (fun phases ->
                  Sexp.list (Array.to_list (Array.map phase_models_to_sexp phases)))
                t.per_class)) );
    ]

let of_sexp ?strict ~resolve sexp =
  let t =
    {
      app = resolve (Sexp.to_string_atom (Sexp.field sexp "app"));
      n_phases = Sexp.to_int (Sexp.field sexp "n_phases");
      config = config_of_sexp (Sexp.field sexp "config");
      classes = Cfmodel.of_sexp (Sexp.field sexp "classes");
      (* Absent in files saved before the counts were recorded. *)
      class_samples =
        (match Sexp.field_opt sexp "class_samples" with
        | None -> []
        | Some s ->
            List.map
              (fun pair ->
                match Sexp.to_list pair with
                | [ c; n ] -> (Sexp.to_int c, Sexp.to_int n)
                | _ -> failwith "Models.of_sexp: malformed class_samples")
              (Sexp.to_list s));
      per_class =
        Array.of_list
          (List.map
             (fun phases ->
               Array.of_list (List.map phase_models_of_sexp (Sexp.to_list phases)))
             (Sexp.to_list (Sexp.field sexp "per_class")));
    }
  in
  audit ?strict t
