(** Multi-chain stochastic schedule search.

    Runs [chains] independent {!Mcmc} chains across the
    {!Opprox_util.Pool} domains, polishes each chain's best feasible
    schedule with the deterministic steepest-descent finisher, takes the
    best-of-chains (ties to the lowest chain index) and audits the
    outcome through {!Opprox_analysis.Lint_search} ([SRCH***]).
    {!Optimizer} calls {!solve_levels} directly whenever a phase's AL
    space is too large to enumerate.

    {b Determinism}: chain [i]'s generator is split from the master seed
    by index ({!Opprox_util.Pool.parallel_map_seeded}), so its trajectory
    depends on [(seed, i)] only — never on [--jobs], scheduling, or how
    many other chains run.  Results are therefore bit-identical at any
    parallelism, and — once the iteration budget lets every chain
    converge to the same polished optimum — across chain counts too. *)

type config = { chains : int; iters : int; seed : int }

val default_config : config
(** [{ chains = 4; iters = 2000; seed = 0x5EA2C }] — what the optimizer
    searches with. *)

type stats = {
  chains : int;
  steps : int;  (** proposal steps summed over chains *)
  accepts : int;  (** accepted proposals summed over chains *)
  restarts : int;  (** best-teleport restarts summed over chains *)
  best_cost : float;  (** cost of the returned schedule *)
  best_chain : int;  (** index of the winning chain (-1 on fallback) *)
  chain_costs : float array;
      (** polished best cost per chain ([nan]: chain never feasible) *)
  feasible : bool;  (** false = all-exact fallback, [SRCH002] logged *)
  diagnostics : Opprox_analysis.Diagnostic.t list;  (** [SRCH***] audit *)
}

val solve_levels :
  ?config:config ->
  ?pool:Opprox_util.Pool.t ->
  models:Models.t ->
  input:float array ->
  budget:float ->
  ?first_phase:int ->
  unit ->
  int array array * stats
(** Search and return the raw [n_phases x n_abs] levels matrix plus
    stats.  Logs the [SRCH***] audit (raising
    {!Opprox_analysis.Diagnostic.Lint_error} on [SRCH003], the
    never-expected feasibility contradiction) but does {e not} build or
    lint a plan.  When no chain ever visits a feasible schedule the
    all-exact matrix is returned with [stats.feasible = false].

    Observability: one [search.solve] span wrapping [search.chain] spans
    (category ["search"]), and the [search.chains] / [search.steps] /
    [search.accepts] / [search.restarts] counters plus the
    [search.best_cost] gauge. *)
