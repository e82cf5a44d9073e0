(** Phase-specific trade-off optimization (paper Sec. 3.8, Algorithm 2).

    Given the per-phase models, a QoS degradation budget and an input,
    the optimizer visits phases in decreasing-ROI order, allocates each
    phase a sub-budget proportional to its normalized ROI over the budget
    still unspent, and solves

    {v maximize   S(A)   subject to  qos_hi(A) <= sub-budget v}

    over the discrete AL-vector space of the phase, using the models'
    conservative bounds (upper-CI QoS, lower-CI speedup).  Whatever a
    phase does not consume flows to the phases visited after it.

    A phase space of at most 20000 points is enumerated exactly.  A larger one (the transformer's 9^13) is handed whole to
    the multi-chain MCMC search ({!Search.solve_levels}), which walks the
    joint per-phase schedule under the total budget. *)

type phase_choice = {
  phase : int;
  levels : int array;
  predicted : Models.prediction;
  sub_budget : float;
}

type plan = {
  schedule : Opprox_sim.Schedule.t;
  choices : phase_choice list;
      (** one choice per phase, in phase (execution) order — audited by
          {!Opprox_analysis.Lint_plan} as PLAN008 *)
  predicted_speedup : float;  (** composed whole-run speedup estimate *)
  predicted_qos : float;  (** sum of per-phase conservative QoS estimates *)
  budget : float;
}

val stochastic_available : unit -> bool
(** Always [true]: the stochastic search is part of this library.  Kept
    only because [bench/e2e/offline.ml] still asserts it. *)

val optimize :
  models:Models.t ->
  roi:float array ->
  input:float array ->
  budget:float ->
  unit ->
  plan
(** Run Algorithm 2.  When the per-phase space exceeds 20000 points the
    solve falls back to {!Search.solve_levels} at
    {!Search.default_config} — visibly: a Warning-severity [PLAN010]
    diagnostic is logged and the [optimizer.fallbacks] counter bumped,
    once per {!solver}.  That plan is bit-identical to
    [Opprox_search.Search.solve] at the same budget.  The returned
    schedule always satisfies the models' conservative per-phase
    constraints; the all-exact schedule is the fallback when no setting
    fits a sub-budget.

    Inputs are validated through {!Opprox_analysis.Lint_plan.check_inputs}
    before any search runs — a negative or non-finite budget, an ROI
    vector of the wrong arity, or a malformed input vector raises
    {!Opprox_analysis.Diagnostic.Lint_error} carrying [PLAN***]
    diagnostics (instead of the ad-hoc [Invalid_argument] of earlier
    revisions).  The constructed plan is audited the same way
    ({!Opprox_analysis.Lint_plan.check_plan}) before it is returned.

    Observability: each solve runs at most five Algorithm-2 sweeps and
    accounts for itself in the {!Opprox_obs.Metrics} registry —
    [optimizer.solves], [optimizer.sweeps] (sweeps actually executed),
    [optimizer.predict.hit]/[optimizer.predict.miss] (the solver's
    prediction memo: a point's first visit is a miss, every later one a
    hit) and [optimizer.phase.reopt] (choices replaced by a
    later sweep) — and emits one {!Opprox_obs.Trace} span per solve and
    per sweep. *)

val solver :
  models:Models.t ->
  roi:float array ->
  input:float array ->
  unit ->
  ?first_phase:int ->
  budget:float ->
  unit ->
  plan
(** Partially-applied {!optimize}: compile the prediction pipeline (input
    classification, model selection, regression scratch) and the
    (phase, levels) prediction memo {e once}, then solve any number of
    budgets against them.  The memo is one dense table per phase over
    the phase's AL space, in {!Opprox_sim.Config_space.all} order, built
    on the phase's first visit, so a suffix solve fills only the
    phases it prices.  Predictions do not depend on the budget — only
    admissibility does — so a budget-grid sweep (the corpus precompute)
    pays the model-compilation cost once per (app, input) instead of once
    per cell.  [optimize ~budget ()] is [solver () ~budget ()].

    [first_phase] (default 0) restricts the solve to the plan {e suffix}:
    phases before it are treated as already executed — they receive no
    allocation, keep all-exact levels in the emitted schedule, and report
    a zero sub-budget — while the remaining phases compete for the whole
    [budget] in descending-ROI order.  This is what the runtime
    {!Controller} calls at a phase boundary to re-solve only the work
    still ahead against the budget still unspent; a caller merges the
    suffix into the executed prefix itself.  Raises [Invalid_argument]
    when [first_phase] is outside [0..n_phases]. *)

val plan_of_levels :
  models:Models.t -> input:float array -> budget:float -> int array array -> plan
(** Build a plan directly from an [n_phases x n_abs] levels matrix: each
    phase is priced through the models' hoisted predictor, its sub-budget
    set to its own predicted conservative consumption, and the whole plan
    audited through {!lint} ([Lint_error] on failures) before it is
    returned.  This is how the stochastic search materializes its
    best-of-chains schedule; it works for any externally-produced
    schedule.  Raises [Invalid_argument] on a shape mismatch. *)

val lint : models:Models.t -> plan -> Opprox_analysis.Diagnostic.t list
(** Audit any plan — including one doctored or deserialized outside the
    optimizer — against the models it is meant to run under: budget
    split, level admissibility, schedule shape. *)

val plan_to_sexp : plan -> Opprox_util.Sexp.t
(** Serialize a plan — schedule, per-phase choices with their predictions,
    composed estimates, budget.  This is the payload of the plan-serving
    daemon's reply and round-trips bit-exactly. *)

val plan_of_sexp : Opprox_util.Sexp.t -> plan
(** Inverse of {!plan_to_sexp}.  Raises [Failure] on malformed input and
    [Invalid_argument] (via {!Opprox_sim.Schedule.make}) on a stored
    schedule violating the shape invariants.  A deserialized plan is
    untrusted: run it through {!lint} (or let {!Opprox.apply} do so)
    before executing it. *)
