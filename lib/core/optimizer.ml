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

(* One phase's conservative bounds over its whole AL space, indexed by a
   configuration's mixed-radix index, which is its position in
   [Config_space.all]; [seen] marks the points predicted so far.  Only
   the two floats the enumeration compares are kept: a chosen point's
   full prediction is computed again, which gives the same record. *)
type table = { seen : Bytes.t; qos_hi : float array; speedup_lo : float array }

let solver ~models ~roi ~input () =
  let app = Models.app models in
  let n_phases = Models.n_phases models in
  let abs = app.App.abs in
  let n_abs = Array.length abs in
  (* Compile the prediction pipeline once per {e solver}: classification,
     model selection, and all regression scratch buffers are hoisted out
     of the sweep loops (Models.predictor), and a memo on top absorbs the
     many re-visits of the same (phase, levels) point across sweeps — and,
     when the solver is reused over a budget grid (the precompute sweep),
     across budgets: the prediction at a point does not depend on the
     budget, only admissibility does.  A point's first visit counts as a
     [optimizer.predict.miss], every later one as a hit. *)
  let predict = Models.predictor models ~input in
  let space = Config_space.count abs in
  let stochastic = space > enumeration_limit in
  let radix = Array.map (fun (ab : Opprox_sim.Ab.t) -> ab.max_level + 1) abs in
  let index_of levels =
    let idx = ref 0 in
    for a = 0 to n_abs - 1 do
      idx := (!idx * radix.(a)) + levels.(a)
    done;
    !idx
  in
  let levels_of idx =
    let levels = Array.make n_abs 0 and rest = ref idx in
    for a = n_abs - 1 downto 0 do
      levels.(a) <- !rest mod radix.(a);
      rest := !rest / radix.(a)
    done;
    levels
  in
  (* Enumerated spaces get one dense table per phase, built on the
     phase's first visit.  A space past the enumeration limit only ever
     sees the search's chosen points, a handful per solve, so those go in
     a small hash table on (phase, levels) instead. *)
  let tables = Array.make n_phases None in
  let table phase =
    match tables.(phase) with
    | Some t -> t
    | None ->
        let t =
          {
            seen = Bytes.make space '\000';
            qos_hi = Array.make space 0.0;
            speedup_lo = Array.make space 0.0;
          }
        in
        tables.(phase) <- Some t;
        t
  in
  (* Predict point [idx] of [t] unless it already is; [true] on a miss. *)
  let fill t ~phase ~levels idx =
    Bytes.get t.seen idx = '\000'
    && begin
         let p = predict ~phase ~levels in
         Bytes.set t.seen idx '\001';
         t.qos_hi.(idx) <- p.Models.qos_hi;
         t.speedup_lo.(idx) <- p.Models.speedup_lo;
         true
       end
  in
  let sparse = Hashtbl.create 16 in
  let predict_at ~phase ~levels =
    if stochastic then (
      let key = (phase, Array.copy levels) in
      match Hashtbl.find_opt sparse key with
      | Some p ->
          Metrics.incr m_predict_hits;
          p
      | None ->
          Metrics.incr m_predict_misses;
          let p = predict ~phase ~levels in
          Hashtbl.replace sparse key p;
          p)
    else begin
      let t = table phase in
      Metrics.incr
        (if fill t ~phase ~levels (index_of levels) then m_predict_misses else m_predict_hits);
      predict ~phase ~levels
    end
  in
  (* Exact enumeration of one phase's AL space in [Config_space.all]
     order, an odometer over one scratch vector: the index of the first
     configuration with the best conservative speedup whose conservative
     QoS fits the budget, or -1. *)
  let cursor = Array.make n_abs 0 in
  let enumerate_phase ~phase ~budget =
    let t = table phase in
    Array.fill cursor 0 n_abs 0;
    let best = ref (-1) and hits = ref 0 and misses = ref 0 in
    for idx = 0 to space - 1 do
      if idx > 0 then begin
        let a = ref (n_abs - 1) in
        while cursor.(!a) = radix.(!a) - 1 do
          cursor.(!a) <- 0;
          decr a
        done;
        cursor.(!a) <- cursor.(!a) + 1
      end;
      incr (if fill t ~phase ~levels:cursor idx then misses else hits);
      if t.qos_hi.(idx) <= budget
         && (!best < 0 || not (t.speedup_lo.(!best) >= t.speedup_lo.(idx)))
      then best := idx
    done;
    Metrics.add m_predict_hits !hits;
    Metrics.add m_predict_misses !misses;
    !best
  in
  if stochastic then begin
    (* Correct but never silent: a plan whose per-phase optimum came from
       a heuristic search is a different artifact than an enumerated one.
       PLAN010 + a counter make the switch observable (and
       regression-testable). *)
    Metrics.incr m_fallbacks;
    log_diags [ Lint_plan.fallback ~app:app.App.name ~space ~limit:enumeration_limit ]
  end;
  let order = Roi.descending_order roi in
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
        let best = enumerate_phase ~phase ~budget:allocated.(phase) in
        if best >= 0 then begin
          let better =
            match chosen.(phase) with
            | Some (_, prev) -> (table phase).speedup_lo.(best) > prev.Models.speedup_lo +. 1e-9
            | None -> true
          in
          if better then begin
            (* Replacing an earlier sweep's choice is a phase
               re-optimization; a first choice is not. *)
            if chosen.(phase) <> None then Metrics.incr m_reopts;
            let levels = levels_of best in
            chosen.(phase) <- Some (levels, predict ~phase ~levels);
            changed := true
          end;
          match chosen.(phase) with
          | Some (_, p) ->
              let c = Float.max 0.0 p.Models.qos_hi in
              (* Unused allocation flows back into the next sweep. *)
              remaining :=
                !remaining +. Float.max 0.0 (allocated.(phase) -. Float.max c consumed.(phase));
              allocated.(phase) <- Float.max c consumed.(phase);
              consumed.(phase) <- Float.max c consumed.(phase)
          | None -> ()
        end
        else begin
          (* No feasible configuration at this allocation: hand the whole
             unconsumed grant back to the phases visited after this one.
             Without this the grant was stranded for the rest of the
             sweep and a fresh one re-granted every sweep, so the
             reported sub_budget inflated monotonically and the split
             could sum past the total budget. *)
          remaining := !remaining +. Float.max 0.0 (allocated.(phase) -. consumed.(phase));
          allocated.(phase) <- consumed.(phase)
        end)
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
           let p = predict_at ~phase ~levels:lv in
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
              (levels, predict_at ~phase ~levels)
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
