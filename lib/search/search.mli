(** The stochastic schedule search ({!Opprox.Search}) plus the plan-level
    entry point.  [solve] lives here rather than in the core module
    because it builds its plan through {!Opprox.Optimizer.plan_of_levels},
    and the optimizer itself depends on {!Opprox.Search}. *)

include module type of struct
  include Opprox.Search
end

val solve :
  ?config:config ->
  ?pool:Opprox_util.Pool.t ->
  models:Opprox.Models.t ->
  input:float array ->
  budget:float ->
  ?first_phase:int ->
  unit ->
  Opprox.Optimizer.plan * stats
(** {!solve_levels}, then the final audit gate: the winning schedule goes
    through {!Opprox.Optimizer.plan_of_levels} — per-phase predictions,
    sub-budgets, and the full [PLAN***] lint — before anything is
    returned. *)
