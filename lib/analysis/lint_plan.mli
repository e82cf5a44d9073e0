(** Optimizer input/output rules (codes [PLAN***]).

    [Optimizer.optimize] routes its pre-flight validation through
    {!check_inputs} (replacing the ad-hoc [invalid_arg] checks it used to
    carry) and audits the plan it constructed — and any plan it is asked
    to execute — through {!check_plan}, so a schedule whose levels fall
    outside an AB's range is rejected up front instead of failing (or
    silently misbehaving) mid-run. *)

type inputs = {
  app_name : string;
  abs : Opprox_sim.Ab.t array;
  n_phases : int;
  param_arity : int;
  roi : float array;
  budget : float;
  input : float array;
}

val check_inputs : inputs -> Diagnostic.t list
(** [PLAN001] (negative / non-finite budget), [PLAN002] (ROI arity),
    [PLAN003] (non-finite or negative ROI entries; non-finite or
    wrong-arity input vector). *)

type choice = { phase : int; levels : int array; sub_budget : float; qos_hi : float }

type plan_view = {
  app_name : string;
  abs : Opprox_sim.Ab.t array;
  n_phases : int;
  budget : float;
  choices : choice list;
  schedule : Opprox_sim.Schedule.t;
}

val check_plan : plan_view -> Diagnostic.t list
(** Budget feasibility and admissibility of a constructed plan:
    [PLAN004] (negative sub-budget, or the ROI split summing past the
    budget [e_b]), [PLAN005] (chosen levels outside an AB's range or of
    the wrong arity), [PLAN006] (a choice's conservative QoS exceeding
    its sub-budget — the optimizer's own feasibility contract;
    [Warning]), [PLAN007] (schedule shape differing from the models'),
    [PLAN008] (choices not one-per-phase in phase order — consumers
    index choices by position), [PLAN009] (the split summing far past
    the plan's own predicted consumption — stale or inflated budget
    accounting, the signature of the pre-fix optimizer sweep re-granting
    infeasible phases; [Warning]), plus the [SCHED***] findings of
    {!Lint_schedule.check} on the plan's schedule. *)

val fallback : app:string -> space:int -> limit:int -> Diagnostic.t
(** [PLAN010] ([Warning]): the optimizer replaced exhaustive per-phase
    enumeration with the stochastic whole-schedule search because the
    joint AL space has [space] points, more than [limit].  Built here so
    the optimizer's silent-fallback fix and its regression test share one
    constructor; the optimizer logs it and bumps [optimizer.fallbacks]
    rather than failing — the fallback is correct, just no longer
    invisible. *)
