module Ab = Opprox_sim.Ab
module Schedule = Opprox_sim.Schedule
module D = Diagnostic

type inputs = {
  app_name : string;
  abs : Ab.t array;
  n_phases : int;
  param_arity : int;
  roi : float array;
  budget : float;
  input : float array;
}

let check_inputs i =
  let app = i.app_name in
  let budget =
    if not (Float.is_finite i.budget) then
      [ D.v ~app ~code:"PLAN001" D.Error "budget is %h" i.budget ]
    else if i.budget < 0.0 then
      [ D.v ~app ~code:"PLAN001" D.Error "negative budget %g" i.budget ]
    else []
  in
  let roi_arity =
    if Array.length i.roi <> i.n_phases then
      [
        D.v ~app ~code:"PLAN002" D.Error "ROI vector has %d entries, models have %d phases"
          (Array.length i.roi) i.n_phases;
      ]
    else []
  in
  let roi_values =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun phase r ->
              if not (Float.is_finite r) then
                Some (D.v ~app ~phase ~code:"PLAN003" D.Error "ROI entry is %h" r)
              else if r < 0.0 then
                Some (D.v ~app ~phase ~code:"PLAN003" D.Error "negative ROI entry %g" r)
              else None)
            i.roi))
  in
  let input =
    let arity =
      if Array.length i.input <> i.param_arity then
        [
          D.v ~app ~code:"PLAN003" D.Error "input vector has arity %d, application declares %d"
            (Array.length i.input) i.param_arity;
        ]
      else []
    in
    let finite =
      List.filter_map Fun.id
        (Array.to_list
           (Array.mapi
              (fun j x ->
                if Float.is_finite x then None
                else
                  Some
                    (D.v ~app ~detail:(Printf.sprintf "input[%d]" j) ~code:"PLAN003" D.Error
                       "non-finite input value %h" x))
              i.input))
    in
    arity @ finite
  in
  budget @ roi_arity @ roi_values @ input

type choice = { phase : int; levels : int array; sub_budget : float; qos_hi : float }

type plan_view = {
  app_name : string;
  abs : Ab.t array;
  n_phases : int;
  budget : float;
  choices : choice list;
  schedule : Schedule.t;
}

let feasibility_eps budget = 1e-6 *. Float.max 1.0 (Float.abs budget)

let check_plan v =
  let app = v.app_name in
  let n_abs = Array.length v.abs in
  let per_choice c =
    let sub_budget =
      if (not (Float.is_finite c.sub_budget)) || c.sub_budget < 0.0 then
        [
          D.v ~app ~phase:c.phase ~code:"PLAN004" D.Error
            "phase assigned an unusable sub-budget %h" c.sub_budget;
        ]
      else []
    in
    let admissible =
      if Array.length c.levels <> n_abs then
        [
          D.v ~app ~phase:c.phase ~code:"PLAN005" D.Error
            "choice has %d levels, application declares %d ABs" (Array.length c.levels) n_abs;
        ]
      else
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun a l ->
                  if l < 0 || l > v.abs.(a).Ab.max_level then
                    Some
                      (D.v ~app ~phase:c.phase ~ab:a ~code:"PLAN005" D.Error
                         "chosen level %d is not admissible for AB %S (range 0..%d)" l
                         v.abs.(a).Ab.name v.abs.(a).Ab.max_level)
                  else None)
                c.levels))
    in
    let feasible =
      if
        Float.is_finite c.sub_budget && Float.is_finite c.qos_hi
        && c.qos_hi > c.sub_budget +. feasibility_eps v.budget
      then
        [
          D.v ~app ~phase:c.phase ~code:"PLAN006" D.Warning
            "predicted conservative QoS %.3f exceeds the phase sub-budget %.3f" c.qos_hi
            c.sub_budget;
        ]
      else []
    in
    sub_budget @ admissible @ feasible
  in
  let order =
    (* Plans execute phase 0 first whatever order the optimizer visited
       phases in; consumers (env-var encoding, reporting) index choices
       by position, so a plan must carry exactly one choice per phase, in
       phase order.  This catches both optimizer regressions (PR 4 fixed
       choices arriving in descending-ROI order) and doctored external
       plans. *)
    let phases = List.map (fun c -> c.phase) v.choices in
    if phases <> List.init v.n_phases Fun.id then
      [
        D.v ~app ~code:"PLAN008" D.Error
          "plan choices are not one-per-phase in phase order (got [%s], want [0..%d])"
          (String.concat ";" (List.map string_of_int phases))
          (v.n_phases - 1);
      ]
    else []
  in
  let split =
    let total = List.fold_left (fun acc c -> acc +. c.sub_budget) 0.0 v.choices in
    if Float.is_finite total && total > v.budget +. feasibility_eps v.budget then
      [
        D.v ~app ~code:"PLAN004" D.Error
          "sub-budget split sums to %.3f, exceeding the total budget %.3f" total v.budget;
      ]
    else []
  in
  let over_alloc =
    (* Allocation drifting away from predicted consumption is the
       signature of stale budget accounting (the pre-fix optimizer sweep
       re-granted infeasible phases every pass): the split can stay under
       the hard PLAN004 cap while still promising phases far more than
       the plan predicts they can spend.  Warning severity — generous
       hand-written splits are legal, just suspicious past half the
       budget scale. *)
    let total_alloc = List.fold_left (fun acc c -> acc +. c.sub_budget) 0.0 v.choices in
    let total_need =
      List.fold_left (fun acc c -> acc +. Float.max 0.0 c.qos_hi) 0.0 v.choices
    in
    if
      Float.is_finite total_alloc && Float.is_finite total_need
      && total_alloc > total_need +. (0.5 *. Float.max 1.0 (Float.abs v.budget))
    then
      [
        D.v ~app ~code:"PLAN009" D.Warning
          "sub-budget split sums to %.3f but predicted consumption is only %.3f — stale or \
           inflated budget accounting"
          total_alloc total_need;
      ]
    else []
  in
  let shape =
    let sched_diags =
      if Schedule.n_phases v.schedule <> v.n_phases then
        [
          D.v ~app ~code:"PLAN007" D.Error "plan schedule has %d phases, models have %d"
            (Schedule.n_phases v.schedule) v.n_phases;
        ]
      else []
    in
    let ab_diags =
      if Schedule.n_abs v.schedule <> n_abs then
        [
          D.v ~app ~code:"PLAN007" D.Error "plan schedule has %d ABs, application declares %d"
            (Schedule.n_abs v.schedule) n_abs;
        ]
      else []
    in
    sched_diags @ ab_diags
  in
  let sched =
    if shape = [] then
      (* Dead knobs are legitimate in plans (tight budgets leave ABs
         exact); drop the Info-level SCHED006 noise here. *)
      List.filter
        (fun (d : D.t) -> d.D.code <> "SCHED006")
        (Lint_schedule.check ~app ~abs:v.abs ~n_phases:v.n_phases v.schedule)
    else []
  in
  List.concat_map per_choice v.choices @ order @ split @ over_alloc @ shape @ sched

let fallback ~app ~space ~limit =
  D.v ~app ~code:"PLAN010" D.Warning
    "per-phase space has %d points (> enumeration limit %d); falling back to stochastic search"
    space limit
