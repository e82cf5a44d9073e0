module App = Opprox_sim.App
module Env = Opprox_sim.Env
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Qos = Opprox_sim.Qos
module Rng = Opprox_util.Rng
module Diagnostic = Opprox_analysis.Diagnostic
module Metrics = Opprox_obs.Metrics
module Trace = Opprox_obs.Trace

let log_src = Logs.Src.create "opprox.controller" ~doc:"OPPROX runtime controller"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_runs = Metrics.counter "controller.runs"
let m_phases = Metrics.counter "controller.phases"
let m_replans = Metrics.counter "controller.replans"
let m_violations = Metrics.counter "controller.budget_violations"

type config = { drift_tol : float; max_replans : int }

let default_config = { drift_tol = 0.25; max_replans = 4 }

type telemetry = {
  phase : int;
  n_phases : int;
  drift : float;
  observed_work : float;
  predicted_work : float;
  remaining_budget : float;
}

type replanner = telemetry -> Optimizer.plan option

type phase_report = {
  phase : int;
  levels : int array;
  predicted_work : float;
  observed_work : float;
  drift : float;
  replanned : bool;
}

type outcome = {
  evaluation : Driver.evaluation;
  schedule : Schedule.t;
  phases : phase_report list;
  replans : int;
  plan_budget : float;
  within_budget : bool;
  steps : int;
}

let budget_eps budget = 1e-6 *. Float.max 1.0 (Float.abs budget)

(* Conservative estimate of the QoS a completed phase consumed: the plan's
   upper-CI prediction, inflated by the observed work drift (capped at
   doubling — drift is a work-space signal, not a QoS measurement, so the
   inflation only hedges, it does not pretend to measure). *)
let consumed_estimate (choice : Optimizer.phase_choice) ~drift =
  Float.max 0.0 choice.Optimizer.predicted.Models.qos_hi *. (1.0 +. Float.min 1.0 drift)

let validate_config config =
  if not (config.drift_tol >= 0.0) (* also rejects NaN *) then
    invalid_arg "Controller.run: drift_tol must be >= 0";
  if config.max_replans < 0 then invalid_arg "Controller.run: max_replans must be >= 0"

let run ?(config = default_config) ?replan ~models ~roi ~input (plan : Optimizer.plan) =
  validate_config config;
  let app = Models.app models in
  let mk =
    match app.App.iterative with
    | Some mk -> mk
    | None ->
        invalid_arg
          (Printf.sprintf "Controller.run: %S exposes no iterative interface" app.App.name)
  in
  (* Same pre-flight as Opprox.apply: plans can arrive deserialized or
     doctored, and a mid-run replan inherits whatever the base plan got
     away with. *)
  Diagnostic.raise_errors ~strict:false (Optimizer.lint ~models plan);
  Metrics.incr m_runs;
  Trace.with_span ~cat:"controller" "controller.run" @@ fun () ->
  let exact = Driver.run_exact app input in
  let i_total = exact.Driver.iters in
  let total_exact_work = float_of_int exact.Driver.work in
  let n_phases = Schedule.n_phases plan.Optimizer.schedule in
  let n_abs = App.n_abs app in
  (* The exact run's work, split over this plan's phases: one run of the
     exact schedule under this plan's phase count, scored against the
     baseline above.  No schedule is evaluated twice, so no memo. *)
  let exact_profile =
    let ev =
      Driver.evaluate ~exact app (Schedule.uniform ~n_phases (Array.make n_abs 0)) input
    in
    Array.map float_of_int ev.Driver.work_per_phase
  in
  (* Per-phase work the plan predicts: the phase's share of exact work
     minus the whole-run savings its speedup prediction promises (the
     models' speedup is whole-run-with-only-this-phase-approximated, so
     all its savings land in this phase — the same algebra as
     Optimizer.compose_speedup). *)
  let predicted_work (choice : Optimizer.phase_choice) p =
    let s = Float.max 0.01 choice.Optimizer.predicted.Models.speedup in
    let savings = (1.0 -. (1.0 /. s)) *. total_exact_work in
    Float.max 1.0 (exact_profile.(p) -. savings)
  in
  let replanner =
    match replan with
    | Some f -> f
    | None ->
        let solve = lazy (Optimizer.solver ~models ~roi ~input ()) in
        fun (t : telemetry) ->
          Some ((Lazy.force solve) ~first_phase:(t.phase + 1) ~budget:t.remaining_budget ())
  in
  let choices = Array.of_list plan.Optimizer.choices in
  if Array.length choices <> n_phases then
    invalid_arg "Controller.run: plan carries fewer choices than phases";
  let sched = ref plan.Optimizer.schedule in
  let rng = Rng.create (Driver.seed_for app input) in
  let env = ref (Env.create ~rng ~sched:!sched ~expected_iters:i_total ~n_abs) in
  let inst = ref (mk !env input) in
  let running = ref true in
  let steps = ref 0 in
  let replans = ref 0 in
  let reports = ref [] in
  let consumed_est = ref 0.0 in
  let boundary q = Driver.phase_boundary ~n_phases ~i_total q in
  for p = 0 to n_phases - 1 do
    Metrics.incr m_phases;
    (* Extra iterations beyond the exact count belong to the last phase
       (paper footnote 2), so the last phase runs to termination. *)
    let upto = if p = n_phases - 1 then max_int else boundary (p + 1) in
    while !running && Env.outer_iters !env < upto do
      running := (!inst).App.step ();
      if !running then incr steps
    done;
    let observed = float_of_int (Env.work_per_phase !env).(p) in
    let predicted = predicted_work choices.(p) p in
    let drift = Float.abs (observed -. predicted) /. Float.max 1.0 predicted in
    consumed_est := !consumed_est +. consumed_estimate choices.(p) ~drift;
    let replanned =
      if
        (not !running) || p >= n_phases - 1 || drift <= config.drift_tol
        || !replans >= config.max_replans
      then false
      else begin
        let remaining = Float.max 0.0 (plan.Optimizer.budget -. !consumed_est) in
        let t =
          {
            phase = p;
            n_phases;
            drift;
            observed_work = observed;
            predicted_work = predicted;
            remaining_budget = remaining;
          }
        in
        match Trace.with_span ~cat:"controller" "controller.replan" (fun () -> replanner t) with
        | None -> false
        | Some plan' ->
            if Schedule.n_phases plan'.Optimizer.schedule <> n_phases then
              invalid_arg "Controller.run: replan changed the phase count";
            Diagnostic.raise_errors ~strict:false (Optimizer.lint ~models plan');
            (* Keep the executed prefix as it actually ran; adopt the
               re-solved suffix. *)
            let merged =
              Schedule.make
                (Array.init n_phases (fun q ->
                     if q <= p then Schedule.levels_of_phase !sched q
                     else Schedule.levels_of_phase plan'.Optimizer.schedule q))
            in
            if Schedule.equal merged !sched then false
            else begin
              incr replans;
              Metrics.incr m_replans;
              Log.info (fun m ->
                  m "%s: drift %.2f > tol %.2f after phase %d; replanned phases %d..%d against \
                     remaining budget %.3f"
                    app.App.name drift config.drift_tol p (p + 1) (n_phases - 1) remaining);
              (* Swap the schedule under the live run: snapshot the
                 phase-boundary state, rebuild the environment under the
                 merged schedule, and clone the instance onto it — the
                 Env.resume machinery the driver's checkpoints use, so
                 nothing executed so far is re-simulated. *)
              let snap = Env.snapshot !env in
              let env' = Env.resume snap ~sched:merged ~expected_iters:i_total in
              inst := (!inst).App.clone env';
              env := env';
              sched := merged;
              List.iter
                (fun (c : Optimizer.phase_choice) ->
                  if c.Optimizer.phase > p then choices.(c.Optimizer.phase) <- c)
                plan'.Optimizer.choices;
              true
            end
      end
    in
    reports :=
      {
        phase = p;
        levels = Schedule.levels_of_phase !sched p;
        predicted_work = predicted;
        observed_work = observed;
        drift;
        replanned;
      }
      :: !reports
  done;
  let output = (!inst).App.finish () in
  let work = Env.total_work !env in
  let psnr, qos_degradation =
    match app.App.report_metric with
    | App.Distortion ->
        (None, Qos.relative_distortion ~exact:exact.Driver.output ~approx:output)
    | App.Psnr ->
        let p = Qos.psnr ~exact:exact.Driver.output ~approx:output in
        (Some p, Qos.psnr_to_degradation p)
  in
  let evaluation =
    {
      Driver.sched = !sched;
      qos_degradation;
      psnr;
      speedup = float_of_int exact.Driver.work /. float_of_int (Stdlib.max work 1);
      work;
      outer_iters = Env.outer_iters !env;
      exact_iters = i_total;
      trace = Env.trace !env;
      work_per_ab = Array.init n_abs (Env.work_of_ab !env);
      work_per_phase = Env.work_per_phase !env;
    }
  in
  let within_budget =
    qos_degradation <= plan.Optimizer.budget +. budget_eps plan.Optimizer.budget
  in
  if not within_budget then Metrics.incr m_violations;
  {
    evaluation;
    schedule = !sched;
    phases = List.rev !reports;
    replans = !replans;
    plan_budget = plan.Optimizer.budget;
    within_budget;
    steps = !steps;
  }
