module App = Opprox_sim.App
module Schedule = Opprox_sim.Schedule
module Config_space = Opprox_sim.Config_space
module Diagnostic = Opprox_analysis.Diagnostic
module Lint_plan = Opprox_analysis.Lint_plan
module Metrics = Opprox_obs.Metrics
module Trace = Opprox_obs.Trace

let log_src = Logs.Src.create "opprox.optimizer" ~doc:"OPPROX phase optimizer"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_solves = Metrics.counter "optimizer.solves"
let m_sweeps = Metrics.counter "optimizer.sweeps"
let m_predict_hits = Metrics.counter "optimizer.predict.hit"
let m_predict_misses = Metrics.counter "optimizer.predict.miss"
let m_reopts = Metrics.counter "optimizer.phase.reopt"
let m_fallbacks = Metrics.counter "optimizer.fallbacks"

type phase_choice = {
  phase : int;
  levels : int array;
  predicted : Models.prediction;
  sub_budget : float;
}

type plan = {
  schedule : Schedule.t;
  choices : phase_choice list;
  predicted_speedup : float;
  predicted_qos : float;
  budget : float;
}

(* Per-phase spaces up to this size are enumerated exactly; larger ones
   are searched stochastically as a whole schedule. *)
let enumeration_limit = 20000

(* Kept only for bench/e2e/offline.ml, which asserts it. *)
let stochastic_available () = true

(* Exact enumeration of one phase's AL space: keep the configuration with
   the best conservative speedup whose conservative QoS fits the budget. *)
let enumerate_phase ~predict ~input ~phase ~budget abs =
  let best = ref None in
  List.iter
    (fun levels ->
      let p = predict ~input ~phase ~levels in
      if p.Models.qos_hi <= budget then
        match !best with
        | Some (_, best_p) when best_p.Models.speedup_lo >= p.Models.speedup_lo -> ()
        | _ -> best := Some (levels, p))
    (Config_space.all abs);
  !best

(* The neutral view of a plan that {!Opprox_analysis.Lint_plan} audits. *)
let plan_view ~models (plan : plan) =
  let app = Models.app models in
  {
    Lint_plan.app_name = app.App.name;
    abs = app.App.abs;
    n_phases = Models.n_phases models;
    budget = plan.budget;
    choices =
      List.map
        (fun c ->
          {
            Lint_plan.phase = c.phase;
            levels = c.levels;
            sub_budget = c.sub_budget;
            qos_hi = c.predicted.Models.qos_hi;
          })
        plan.choices;
    schedule = plan.schedule;
  }

let lint ~models plan = Lint_plan.check_plan (plan_view ~models plan)

let log_diags diags =
  List.iter
    (fun (d : Diagnostic.t) ->
      let level =
        match d.severity with
        | Diagnostic.Error -> Logs.Error
        | Diagnostic.Warning -> Logs.Warning
        | Diagnostic.Info -> Logs.Info
      in
      Log.msg level (fun m -> m "%a" Diagnostic.pp d))
    diags

let solver ~models ~roi ~input () =
  let app = Models.app models in
  let n_phases = Models.n_phases models in
  let abs = app.App.abs in
  (* Compile the prediction pipeline once per {e solver}: classification,
     model selection, and all regression scratch buffers are hoisted out
     of the sweep loops (Models.predictor), and a memo on top absorbs the
     many re-visits of the same (phase, levels) point across sweeps — and,
     when the solver is reused over a budget grid (the precompute sweep),
     across budgets: the prediction at a point does not depend on the
     budget, only admissibility does. *)
  let predict_compiled = Models.predictor models ~input in
  let cache = Hashtbl.create 4096 in
  let predict_cached ~input:_ ~phase ~levels =
    let key = (phase, Array.to_list levels) in
    match Hashtbl.find_opt cache key with
    | Some p ->
        Metrics.incr m_predict_hits;
        p
    | None ->
        Metrics.incr m_predict_misses;
        let p = predict_compiled ~phase ~levels in
        Hashtbl.replace cache key p;
        p
  in
  let space = Config_space.count abs in
  let stochastic = space > enumeration_limit in
  if stochastic then begin
    (* Correct but never silent: a plan whose per-phase optimum came from
       a heuristic search is a different artifact than an enumerated one.
       PLAN010 + a counter make the switch observable (and
       regression-testable). *)
    Metrics.incr m_fallbacks;
    log_diags [ Lint_plan.fallback ~app:app.App.name ~space ~limit:enumeration_limit ]
  end;
  let order = Roi.descending_order roi in
  let n_abs = Array.length abs in
  fun ?(first_phase = 0) ~budget () ->
  Trace.with_span ~cat:"optimizer" "optimizer.solve" @@ fun () ->
  Metrics.incr m_solves;
  if first_phase < 0 || first_phase > n_phases then
    invalid_arg
      (Printf.sprintf "Optimizer.solver: first_phase %d out of range 0..%d" first_phase n_phases);
  (* Suffix solve (mid-run replanning): phases before [first_phase] are
     already executed, so they take no allocation and stay exact in the
     emitted schedule; only the remaining phases compete for [budget]. *)
  let active phase = phase >= first_phase in
  let order = List.filter active order in
  (* Pre-flight: budget / ROI / input defects become structured
     diagnostics (raised as Lint_error) instead of ad-hoc invalid_arg. *)
  Diagnostic.raise_errors ~strict:false
    (Lint_plan.check_inputs
       {
         Lint_plan.app_name = app.App.name;
         abs = app.App.abs;
         n_phases;
         param_arity = Array.length app.App.param_names;
         roi;
         budget;
         input;
       });
  let schedule_levels = Array.init n_phases (fun _ -> Array.make n_abs 0) in
  (* Per-phase budgets and what each phase's current choice consumes. *)
  let allocated = Array.make n_phases 0.0 in
  let consumed = Array.make n_phases 0.0 in
  let chosen = Array.init n_phases (fun _ -> None) in
  let total_consumed () = Array.fold_left ( +. ) 0.0 consumed in
  let sweep () =
    (* One Algorithm-2 pass: distribute the unconsumed budget over phases
       in decreasing-ROI order and re-optimize each phase with its grown
       allocation.  Leftovers from earlier phases flow to later ones. *)
    let remaining = ref (Float.max 0.0 (budget -. total_consumed ())) in
    let remaining_roi = ref (List.fold_left (fun acc phase -> acc +. roi.(phase)) 0.0 order) in
    let changed = ref false in
    List.iter
      (fun phase ->
        let share = if !remaining_roi > 0.0 then roi.(phase) /. !remaining_roi else 0.0 in
        let extra = Float.max 0.0 (!remaining *. share) in
        allocated.(phase) <- allocated.(phase) +. extra;
        remaining := !remaining -. extra;
        remaining_roi := !remaining_roi -. roi.(phase);
        match enumerate_phase ~predict:predict_cached ~input ~phase ~budget:allocated.(phase) abs with
        | Some (levels, p) ->
            let better =
              match chosen.(phase) with
              | Some (_, prev) -> p.Models.speedup_lo > prev.Models.speedup_lo +. 1e-9
              | None -> true
            in
            if better then begin
              (* Replacing an earlier sweep's choice is a phase
                 re-optimization; a first choice is not. *)
              if chosen.(phase) <> None then Metrics.incr m_reopts;
              chosen.(phase) <- Some (levels, p);
              changed := true
            end;
            (match chosen.(phase) with
            | Some (_, p) ->
                let c = Float.max 0.0 p.Models.qos_hi in
                (* Unused allocation flows back into the next sweep. *)
                remaining := !remaining +. Float.max 0.0 (allocated.(phase) -. Float.max c consumed.(phase));
                allocated.(phase) <- Float.max c consumed.(phase);
                consumed.(phase) <- Float.max c consumed.(phase)
            | None -> ())
        | None ->
            (* No feasible configuration at this allocation: hand the whole
               unconsumed grant back to the phases visited after this one.
               Without this the grant was stranded for the rest of the
               sweep and a fresh one re-granted every sweep, so the
               reported sub_budget inflated monotonically and the split
               could sum past the total budget. *)
            remaining := !remaining +. Float.max 0.0 (allocated.(phase) -. consumed.(phase));
            allocated.(phase) <- consumed.(phase))
      order;
    !changed
  in
  (if stochastic then
     (* Whole-schedule strategy: the MCMC search walks the joint per-phase
        space directly instead of sweeping phases under ROI-split
        sub-budgets.  Each phase's sub-budget is then simply what its
        chosen levels are predicted to consume. *)
     let levels, _stats = Search.solve_levels ~models ~input ~budget ~first_phase () in
     Array.iteri
       (fun phase lv ->
         if active phase then begin
           let p = predict_cached ~input ~phase ~levels:lv in
           let c = Float.max 0.0 p.Models.qos_hi in
           chosen.(phase) <- Some (Array.copy lv, p);
           allocated.(phase) <- c;
           consumed.(phase) <- c
         end)
       levels
   else
     (* At most [max_sweeps] Algorithm-2 passes run, and the count below is
        the number actually executed: the cap is checked {e before} a sweep
        starts.  (An earlier revision tested the cap after the call, running
        a sixth sweep whose convergence signal was discarded, and logged a
        count one past the executed sweeps on early convergence.) *)
     let max_sweeps = 5 in
     let sweeps = ref 0 in
     let converged = ref false in
     while (not !converged) && !sweeps < max_sweeps do
       incr sweeps;
       Metrics.incr m_sweeps;
       converged := not (Trace.with_span ~cat:"optimizer" "optimizer.sweep" sweep)
     done;
     Log.debug (fun m ->
         m "budget %.2f settled after %d sweep(s); consumed %.2f" budget !sweeps
           (total_consumed ())));
  (* Choices are reported in phase order — the order the plan executes —
     not in the descending-ROI order the sweeps visited them in. *)
  let choices =
    List.init n_phases (fun phase ->
        let levels, predicted =
          match chosen.(phase) with
          | Some (levels, p) -> (levels, p)
          | None ->
              let levels = Array.make n_abs 0 in
              (levels, predict_cached ~input ~phase ~levels)
        in
        schedule_levels.(phase) <- levels;
        { phase; levels; predicted; sub_budget = allocated.(phase) })
  in
  let predicted_speedup =
    Models.compose_speedup (List.map (fun c -> c.predicted.Models.speedup) choices)
  in
  let predicted_qos =
    List.fold_left (fun acc c -> acc +. c.predicted.Models.qos_hi) 0.0 choices
  in
  let plan =
    { schedule = Schedule.make schedule_levels; choices; predicted_speedup; predicted_qos; budget }
  in
  (* Post-flight: the optimizer's own output contract.  Violations mark a
     solver bug (or corrupted models that slipped through) — log
     everything, fail on errors. *)
  let diags = lint ~models plan in
  log_diags diags;
  Diagnostic.raise_errors ~strict:false diags;
  plan

let optimize ~models ~roi ~input ~budget () = solver ~models ~roi ~input () ~budget ()

(* Build (and audit) a plan directly from a full levels matrix — how a
   direct search's schedule becomes a plan, and useful for any externally-produced
   schedule that should carry the models' predictions.  Each phase's
   sub-budget is its own predicted conservative consumption, so the split
   sums exactly to the plan's predicted QoS. *)
let plan_of_levels ~models ~input ~budget levels =
  let app = Models.app models in
  let n_phases = Models.n_phases models in
  let n_abs = Array.length app.App.abs in
  if Array.length levels <> n_phases then
    invalid_arg
      (Printf.sprintf "Optimizer.plan_of_levels: %d phases, models have %d"
         (Array.length levels) n_phases);
  Array.iter
    (fun row ->
      if Array.length row <> n_abs then
        invalid_arg
          (Printf.sprintf "Optimizer.plan_of_levels: a row has %d levels, app has %d ABs"
             (Array.length row) n_abs))
    levels;
  let predict = Models.predictor models ~input in
  let choices =
    List.init n_phases (fun phase ->
        let lv = Array.copy levels.(phase) in
        let p = predict ~phase ~levels:lv in
        { phase; levels = lv; predicted = p; sub_budget = Float.max 0.0 p.Models.qos_hi })
  in
  let predicted_speedup =
    Models.compose_speedup (List.map (fun c -> c.predicted.Models.speedup) choices)
  in
  let predicted_qos =
    List.fold_left (fun acc c -> acc +. c.predicted.Models.qos_hi) 0.0 choices
  in
  let plan =
    {
      schedule = Schedule.make (Array.map Array.copy levels);
      choices;
      predicted_speedup;
      predicted_qos;
      budget;
    }
  in
  let diags = lint ~models plan in
  log_diags diags;
  Diagnostic.raise_errors ~strict:false diags;
  plan

(* ---------------------------------------------------------- serialization *)

(* Plans travel over the serving protocol (daemon reply) and into audit
   tooling, so the codec round-trips every field bit-exactly (floats via
   Sexp.float's 17 significant digits). *)

module Sexp = Opprox_util.Sexp

let prediction_to_sexp (p : Models.prediction) =
  Sexp.record
    [
      ("speedup", Sexp.float p.Models.speedup);
      ("qos", Sexp.float p.Models.qos);
      ("speedup_lo", Sexp.float p.Models.speedup_lo);
      ("qos_hi", Sexp.float p.Models.qos_hi);
      ("iters_ratio", Sexp.float p.Models.iters_ratio);
    ]

let prediction_of_sexp sexp =
  {
    Models.speedup = Sexp.to_float (Sexp.field sexp "speedup");
    qos = Sexp.to_float (Sexp.field sexp "qos");
    speedup_lo = Sexp.to_float (Sexp.field sexp "speedup_lo");
    qos_hi = Sexp.to_float (Sexp.field sexp "qos_hi");
    iters_ratio = Sexp.to_float (Sexp.field sexp "iters_ratio");
  }

let choice_to_sexp c =
  Sexp.record
    [
      ("phase", Sexp.int c.phase);
      ("levels", Sexp.int_array c.levels);
      ("predicted", prediction_to_sexp c.predicted);
      ("sub_budget", Sexp.float c.sub_budget);
    ]

let choice_of_sexp sexp =
  {
    phase = Sexp.to_int (Sexp.field sexp "phase");
    levels = Sexp.to_int_array (Sexp.field sexp "levels");
    predicted = prediction_of_sexp (Sexp.field sexp "predicted");
    sub_budget = Sexp.to_float (Sexp.field sexp "sub_budget");
  }

let plan_to_sexp plan =
  Sexp.record
    [
      ("budget", Sexp.float plan.budget);
      ("predicted_speedup", Sexp.float plan.predicted_speedup);
      ("predicted_qos", Sexp.float plan.predicted_qos);
      ("schedule", Schedule.to_sexp plan.schedule);
      ("choices", Sexp.list (List.map choice_to_sexp plan.choices));
    ]

let plan_of_sexp sexp =
  {
    budget = Sexp.to_float (Sexp.field sexp "budget");
    predicted_speedup = Sexp.to_float (Sexp.field sexp "predicted_speedup");
    predicted_qos = Sexp.to_float (Sexp.field sexp "predicted_qos");
    schedule = Schedule.of_sexp (Sexp.field sexp "schedule");
    choices = List.map choice_of_sexp (Sexp.to_list (Sexp.field sexp "choices"));
  }
