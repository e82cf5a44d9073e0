module Pool = Opprox_util.Pool
module Metrics = Opprox_obs.Metrics
module Trace = Opprox_obs.Trace
module Diagnostic = Opprox_analysis.Diagnostic
module Lint_search = Opprox_analysis.Lint_search
module App = Opprox_sim.App

let log_src = Logs.Src.create "opprox.search" ~doc:"OPPROX stochastic schedule search"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_chains = Metrics.counter "search.chains"
let m_steps = Metrics.counter "search.steps"
let m_accepts = Metrics.counter "search.accepts"
let m_restarts = Metrics.counter "search.restarts"
let m_best_cost = Metrics.gauge "search.best_cost"

type config = { chains : int; iters : int; seed : int }

let default_config = { chains = 4; iters = 2000; seed = 0x5EA2C }

type stats = {
  chains : int;
  steps : int;
  accepts : int;
  restarts : int;
  best_cost : float;
  best_chain : int;
  chain_costs : float array;
  feasible : bool;
  diagnostics : Diagnostic.t list;
}

type chain_outcome = {
  co_best : (int array array * Cost.eval) option;  (** polished *)
  co_steps : int;
  co_accepts : int;
  co_restarts : int;
}

let log_diags diags =
  List.iter
    (fun (d : Diagnostic.t) ->
      let level =
        match d.Diagnostic.severity with
        | Diagnostic.Error -> Logs.Error
        | Diagnostic.Warning -> Logs.Warning
        | Diagnostic.Info -> Logs.Info
      in
      Log.msg level (fun m -> m "%a" Diagnostic.pp d))
    diags

let solve_levels ?(config = default_config) ?pool ~models ~input ~budget ?(first_phase = 0) ()
    =
  Trace.with_span ~cat:"search" "search.solve" @@ fun () ->
  if config.chains < 1 then invalid_arg "Search.solve_levels: chains must be >= 1";
  if config.iters < 0 then invalid_arg "Search.solve_levels: iters must be >= 0";
  let n_phases = Models.n_phases models in
  if first_phase < 0 || first_phase > n_phases then
    invalid_arg
      (Printf.sprintf "Search.solve_levels: first_phase %d out of range 0..%d" first_phase
         n_phases);
  let app = Models.app models in
  let n_abs = Array.length app.App.abs in
  let mcmc_config = Mcmc.default_config ~iters:config.iters in
  (* One chain per index.  Each chain compiles its own Cost (predictor +
     memo): the hoisted prediction pipeline carries mutable scratch and
     must never be shared across pool domains.  parallel_map_seeded splits
     the master seed sequentially by index before anything runs, so chain
     i's trajectory depends on (seed, i) only — not on jobs or on how
     many chains run beside it. *)
  let outcomes =
    Pool.parallel_map_seeded ?pool ~seed:config.seed
      (fun ~rng chain ->
        Trace.with_span ~cat:"search" (Printf.sprintf "search.chain.%d" chain) @@ fun () ->
        let cost = Cost.make ~models ~input ~budget in
        let r = Mcmc.run ~rng ~cost ~first_phase mcmc_config in
        let best =
          Option.map (fun (sched, _) -> Mcmc.polish ~cost ~first_phase sched) r.Mcmc.best
        in
        {
          co_best = best;
          co_steps = r.Mcmc.steps;
          co_accepts = r.Mcmc.accepts;
          co_restarts = r.Mcmc.restarts;
        })
      (Array.init config.chains Fun.id)
  in
  let steps = Array.fold_left (fun acc o -> acc + o.co_steps) 0 outcomes in
  let accepts = Array.fold_left (fun acc o -> acc + o.co_accepts) 0 outcomes in
  let restarts = Array.fold_left (fun acc o -> acc + o.co_restarts) 0 outcomes in
  Metrics.add m_chains config.chains;
  Metrics.add m_steps steps;
  Metrics.add m_accepts accepts;
  Metrics.add m_restarts restarts;
  let chain_costs =
    Array.map
      (fun o -> match o.co_best with Some (_, e) -> e.Cost.cost | None -> Float.nan)
      outcomes
  in
  (* Best-of-chains in chain order with a strict comparison: ties go to
     the lowest index, so the winner is independent of how many further
     chains ran — the determinism-across-chain-counts anchor. *)
  let best = ref None in
  Array.iteri
    (fun i o ->
      match o.co_best with
      | None -> ()
      | Some (sched, e) -> (
          match !best with
          | Some (_, _, be) when be.Cost.cost <= e.Cost.cost -> ()
          | _ -> best := Some (i, sched, e)))
    outcomes;
  let feasible = !best <> None in
  let best_chain, levels, best_eval =
    match !best with
    | Some (i, sched, e) -> (i, sched, e)
    | None ->
        (* Never feasible (negative budget): fall back to the all-exact
           schedule — SRCH002 below records the downgrade. *)
        let zero = Array.init n_phases (fun _ -> Array.make n_abs 0) in
        let cost = Cost.make ~models ~input ~budget in
        (-1, zero, Cost.eval cost zero)
  in
  Metrics.set m_best_cost best_eval.Cost.cost;
  let diagnostics =
    Lint_search.check
      {
        Lint_search.app_name = app.App.name;
        budget;
        chain_costs;
        best_cost = best_eval.Cost.cost;
        best_qos_hi = best_eval.Cost.qos_hi;
        feasible;
      }
  in
  log_diags diagnostics;
  Diagnostic.raise_errors ~strict:false diagnostics;
  Log.debug (fun m ->
      m "budget %.2f: %d chain(s) x %d iter(s), best cost %.4f (chain %d), %d accept(s)"
        budget config.chains config.iters best_eval.Cost.cost best_chain accepts);
  let stats =
    {
      chains = config.chains;
      steps;
      accepts;
      restarts;
      best_cost = best_eval.Cost.cost;
      best_chain;
      chain_costs;
      feasible;
      diagnostics;
    }
  in
  (Array.map Array.copy levels, stats)
