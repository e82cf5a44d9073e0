(** Performance and error models (paper Secs. 3.6–3.7).

    For each control-flow class and each phase, OPPROX fits:

    + an {b iteration-count estimator} — polynomial regression from
      (AL vector, input parameters) to the ratio of approximate to exact
      outer-loop iterations;
    + {b local models} — per AB, regressions from (that AB's AL, input
      parameters) to whole-run speedup / QoS degradation when only that
      AB is approximated in that phase;
    + {b overall models} — regressions from (the local models'
      predictions, the estimated iteration ratio) to whole-run speedup /
      QoS degradation under joint approximation.

    Confidence intervals come from training-residual quantiles
    ({!Opprox_ml.Confidence}); the optimizer consumes the conservative
    bounds (upper QoS, lower speedup). *)

type prediction = {
  speedup : float;
  qos : float;
  speedup_lo : float;  (** lower confidence bound (conservative) *)
  qos_hi : float;  (** upper confidence bound (conservative) *)
  iters_ratio : float;
}

type t

type config = {
  regression : Opprox_ml.Polyreg.config;
  ci_p : float;  (** confidence level for the intervals; default 0.99 *)
  min_class_samples : int;
      (** classes with fewer samples reuse the all-class models; default 40 *)
  seed : int;
}

val default_config : config

val build : ?config:config -> ?strict:bool -> Training.t -> t
(** Fit all models from a collected training set.  The result is audited
    by {!Opprox_analysis.Lint_models} before it is returned: every
    diagnostic is logged at its severity, and — when [strict] (default
    {!Opprox_analysis.Diagnostic.strict_env}, i.e. [OPPROX_STRICT=1]) —
    Error-severity findings raise {!Opprox_analysis.Diagnostic.Lint_error}
    instead of handing a defective model set to the optimizer. *)

val predict : t -> input:float array -> phase:int -> levels:int array -> prediction
(** Predict the whole-run effect of approximating one phase with the
    given AL vector.  Speedup predictions are floored at a small positive
    value and QoS at 0. *)

val predictor : t -> input:float array -> phase:int -> levels:int array -> prediction
(** [predictor t ~input] hoists everything that does not depend on
    [(phase, levels)] out of the prediction loop: the control-flow
    classification of [input], model selection, the compiled regression
    closures ({!Opprox_ml.Polyreg.predictor}), and the feature scratch
    buffers.  The returned closure is bit-identical to {!predict} on
    every query but allocation-free, which is what the optimizer's
    per-phase enumeration (≤ thousands of configs × phases × sweeps)
    wants.  The closure owns mutable scratch: do not share one closure
    between domains. *)

val compose_speedup : float list -> float
(** Combine per-phase whole-run speedups: each phase contributes work
    savings [1 - 1/s]; savings add, so the composed speedup is
    [1 / (1 - sum savings)] (capped to keep the result finite). *)

val n_phases : t -> int

val app : t -> Opprox_sim.App.t
(** The application the models were trained on. *)

val qos_r2 : t -> float
(** Mean cross-validated R2 of the overall QoS models across phases. *)

val speedup_r2 : t -> float

val iter_r2 : t -> float

val max_polynomial_degree : t -> int
(** Highest degree escalation reached by any model (paper: 2–6). *)

val view : t -> Opprox_analysis.Lint_models.view
(** The neutral audit surface {!Opprox_analysis.Lint_models} checks:
    regression coefficients and R-factor diagonals per (class, phase,
    role), confidence half-widths, build-time class sample counts, and a
    prediction closure over the app's default input. *)

val lint : t -> Opprox_analysis.Diagnostic.t list
(** [Lint_models.check (view t)]. *)

val to_sexp : t -> Opprox_util.Sexp.t
(** Serialize the full model set (per control-flow class, per phase).
    The application is stored by name. *)

val of_sexp :
  ?strict:bool -> resolve:(string -> Opprox_sim.App.t) -> Opprox_util.Sexp.t -> t
(** Inverse of {!to_sexp}.  Like {!build}, the loaded set is audited:
    diagnostics are logged, and errors raise under [strict] — a model
    file corrupted on disk (NaN coefficient, inverted interval) is
    caught at load time, not mid-optimization. *)
