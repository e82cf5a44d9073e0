module App = Opprox_sim.App

type eval = {
  cost : float;
  speedup : float;
  speedup_lo : float;
  qos_hi : float;
  feasible : bool;
}

type t = {
  predict : phase:int -> levels:int array -> Models.prediction;
  cache : (int * int list, Models.prediction) Hashtbl.t;
  budget : float;
  n_phases : int;
  abs : Opprox_sim.Ab.t array;
}

let penalty = 10.0

(* Same slack as Lint_plan/Lint_search: budgets are percent-scale. *)
let feasibility_eps budget = 1e-6 *. Float.max 1.0 (Float.abs budget)

let make ~models ~input ~budget =
  {
    predict = Models.predictor models ~input;
    cache = Hashtbl.create 4096;
    budget;
    n_phases = Models.n_phases models;
    abs = (Models.app models).App.abs;
  }

let predict_cached t ~phase ~levels =
  let key = (phase, Array.to_list levels) in
  match Hashtbl.find_opt t.cache key with
  | Some p -> p
  | None ->
      let p = t.predict ~phase ~levels in
      Hashtbl.replace t.cache key p;
      p

let eval t sched =
  let speedups = ref [] and speedups_lo = ref [] and qos = ref 0.0 in
  for phase = t.n_phases - 1 downto 0 do
    let p = predict_cached t ~phase ~levels:sched.(phase) in
    speedups := p.Models.speedup :: !speedups;
    speedups_lo := p.Models.speedup_lo :: !speedups_lo;
    qos := !qos +. Float.max 0.0 p.Models.qos_hi
  done;
  let speedup = Models.compose_speedup !speedups in
  let speedup_lo = Models.compose_speedup !speedups_lo in
  let overrun = Float.max 0.0 (!qos -. t.budget) in
  {
    cost = (-.speedup_lo) +. (penalty *. overrun);
    speedup;
    speedup_lo;
    qos_hi = !qos;
    feasible = !qos <= t.budget +. feasibility_eps t.budget;
  }

let budget t = t.budget
let n_phases t = t.n_phases
let abs t = t.abs
