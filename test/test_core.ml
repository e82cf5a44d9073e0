(* Tests for the OPPROX core: Cfmodel, Training, Roi, Phases, Models,
   Optimizer, Oracle, and the end-to-end facade.  Everything runs on the
   fast [Fixtures.toy] and [Fixtures.flow] applications. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Training = Opprox.Training
module Models = Opprox.Models
module Roi = Opprox.Roi
module Optimizer = Opprox.Optimizer
module Oracle = Opprox.Oracle
module Phases = Opprox.Phases
module Cfmodel = Opprox.Cfmodel
open Fixtures

(* Shared trained pipeline on the toy app (built once). *)
let trained =
  lazy
    (Opprox.train
       ~config:{ Opprox.default_train_config with n_phases = Some 2 }
       toy)

(* -------------------------------------------------------------- Cfmodel *)

let test_cfmodel_flow_classes () =
  let cf = Cfmodel.build flow ~inputs:flow.App.training_inputs in
  check_int "two control flows" 2 (Cfmodel.n_classes cf);
  check_float "classifier accuracy" 1.0 (Cfmodel.training_accuracy cf);
  (* Even and odd modes land in different classes. *)
  check_bool "even/odd differ" true (Cfmodel.classify cf [| 0.0 |] <> Cfmodel.classify cf [| 1.0 |])

let test_cfmodel_single_class () =
  let cf = Cfmodel.build toy ~inputs:toy.App.training_inputs in
  check_int "one control flow" 1 (Cfmodel.n_classes cf)

let test_cfmodel_unseen_trace () =
  let cf = Cfmodel.build toy ~inputs:toy.App.training_inputs in
  check_int "unknown trace maps to 0" 0 (Cfmodel.class_of_trace cf [ 9; 9; 9 ])

let test_signature_truncation () =
  let long = List.init 50 (fun i -> i) in
  check_int "truncated" Cfmodel.signature_length
    (List.length (Cfmodel.signature_of_trace long))

(* ------------------------------------------------------------- Training *)

let training_config =
  { Training.default_config with joint_samples_per_phase = 6 }

let dataset = lazy (Training.collect ~config:training_config toy ~n_phases:2)

let test_training_sample_count () =
  let t = Lazy.force dataset in
  (* per input, per phase: local sweeps (3 + 3 levels) + 6 joint *)
  let expected = Array.length toy.App.training_inputs * 2 * (6 + 6) in
  check_int "run count" expected (Training.n_runs t)

let test_training_samples_well_formed () =
  let t = Lazy.force dataset in
  Array.iter
    (fun (s : Training.sample) ->
      check_bool "phase in range" true (s.phase >= 0 && s.phase < 2);
      check_bool "qos nonnegative" true (s.qos >= 0.0);
      check_bool "speedup positive" true (s.speedup > 0.0);
      check_bool "iters ratio positive" true (s.iters_ratio > 0.0))
    t.Training.samples

let test_training_phase_filter () =
  let t = Lazy.force dataset in
  let p0 = Training.samples_of_phase t 0 and p1 = Training.samples_of_phase t 1 in
  check_int "split evenly" (Array.length t.Training.samples)
    (Array.length p0 + Array.length p1);
  Array.iter (fun (s : Training.sample) -> check_int "phase 0" 0 s.phase) p0

let test_training_local_samples () =
  let t = Lazy.force dataset in
  let locals = Training.local_samples t ~ab:0 ~phase:1 in
  check_bool "has locals" true (Array.length locals >= 3);
  Array.iter
    (fun (s : Training.sample) ->
      check_bool "only ab0 active" true (s.levels.(0) > 0 && s.levels.(1) = 0))
    locals

(* ------------------------------------------------------------------ Roi *)

let test_roi_positive () =
  let t = Lazy.force dataset in
  let roi = Roi.of_training t in
  check_int "per phase" 2 (Array.length roi);
  Array.iter (fun r -> check_bool "positive" true (r > 0.0)) roi

let test_roi_normalize () =
  let n = Roi.normalize [| 1.0; 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "norm" [| 0.25; 0.75 |] n

let test_roi_normalize_zero () =
  Alcotest.(check (array (float 1e-9))) "uniform" [| 0.5; 0.5 |] (Roi.normalize [| 0.0; 0.0 |])

let test_roi_allocate () =
  let alloc = Roi.allocate ~roi:[| 1.0; 4.0 |] ~budget:10.0 in
  Alcotest.(check (array (float 1e-9))) "proportional" [| 2.0; 8.0 |] alloc;
  check_float_eps 1e-9 "sums to budget" 10.0 (Array.fold_left ( +. ) 0.0 alloc)

let test_roi_order () =
  Alcotest.(check (list int)) "descending" [ 2; 0; 1 ] (Roi.descending_order [| 5.0; 1.0; 9.0 |])

(* --------------------------------------------------------------- Phases *)

let test_phases_probe () =
  let p = Phases.probe ~samples_per_phase:4 toy ~n_phases:4 in
  check_int "phase count" 4 (Array.length p.Phases.mean_qos_per_phase);
  check_bool "diff nonnegative" true (p.Phases.max_consecutive_diff >= 0.0)

let test_phases_probe_single () =
  let p = Phases.probe ~samples_per_phase:4 toy ~n_phases:1 in
  check_float "no consecutive diff with one phase" 0.0 p.Phases.max_consecutive_diff

let test_phases_search_bounds () =
  let n, probes = Phases.search ~threshold:0.5 ~max_phases:8 ~samples_per_phase:4 toy in
  check_bool "within bounds" true (n >= 2 && n <= 8);
  check_bool "made probes" true (List.length probes >= 1)

let test_phases_search_high_threshold_stops_early () =
  let n, _ = Phases.search ~threshold:1e9 ~samples_per_phase:4 toy in
  check_int "stops at 2" 2 n

(* --------------------------------------------------------------- Models *)

let models = lazy (Models.build (Lazy.force dataset))

let test_models_zero_anchor () =
  let m = Lazy.force models in
  let p = Models.predict m ~input:toy.App.default_input ~phase:0 ~levels:[| 0; 0 |] in
  check_float "exact => qos 0" 0.0 p.Models.qos;
  check_float "exact => speedup 1" 1.0 p.Models.speedup;
  check_float "exact => qos_hi 0" 0.0 p.Models.qos_hi

let test_models_predictions_finite () =
  let m = Lazy.force models in
  List.iter
    (fun levels ->
      for phase = 0 to 1 do
        let p = Models.predict m ~input:toy.App.default_input ~phase ~levels in
        check_bool "finite speedup" true (Float.is_finite p.Models.speedup);
        check_bool "finite qos" true (Float.is_finite p.Models.qos);
        check_bool "qos nonnegative" true (p.Models.qos >= 0.0);
        check_bool "hi above point" true (p.Models.qos_hi >= p.Models.qos -. 1e-9);
        check_bool "lo below point" true (p.Models.speedup_lo <= p.Models.speedup +. 1e-9)
      done)
    [ [| 1; 0 |]; [| 0; 2 |]; [| 3; 3 |]; [| 2; 1 |] ]

let test_models_speedup_sane () =
  let m = Lazy.force models in
  let p = Models.predict m ~input:toy.App.default_input ~phase:0 ~levels:[| 3; 3 |] in
  (* The toy app's max speedup is well under 3x; a sane model stays in
     the ballpark. *)
  check_bool "plausible magnitude" true (p.Models.speedup > 0.8 && p.Models.speedup < 3.0)

let test_models_bad_phase () =
  let m = Lazy.force models in
  Alcotest.check_raises "phase" (Invalid_argument "Models.predict: bad phase") (fun () ->
      ignore (Models.predict m ~input:toy.App.default_input ~phase:7 ~levels:[| 0; 0 |]))

let test_models_predictor_matches_predict () =
  (* The hoisted per-input predictor must agree with [predict] on every
     field, bit-exactly, across phases and repeated calls (the scratch
     buffers it reuses must not leak state between queries). *)
  let m = Lazy.force models in
  let input = toy.App.default_input in
  let p = Models.predictor m ~input in
  for _pass = 1 to 2 do
    List.iter
      (fun levels ->
        for phase = 0 to 1 do
          let a = Models.predict m ~input ~phase ~levels in
          let b = p ~phase ~levels in
          check_float_eps 0.0 "speedup" a.Models.speedup b.Models.speedup;
          check_float_eps 0.0 "qos" a.Models.qos b.Models.qos;
          check_float_eps 0.0 "speedup_lo" a.Models.speedup_lo b.Models.speedup_lo;
          check_float_eps 0.0 "qos_hi" a.Models.qos_hi b.Models.qos_hi;
          check_float_eps 0.0 "iters_ratio" a.Models.iters_ratio b.Models.iters_ratio
        done)
      [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 2 |]; [| 3; 3 |]; [| 2; 1 |] ]
  done

(* The committed kmeans artifact: three ABs (75 configurations) over two
   phases, with control-flow classes the training inputs reach. *)
let kmeans_fixture =
  lazy (Opprox.load ~resolve:Opprox_apps.Registry.find "fixtures/trained_kmeans.sexp")

let kmeans_inputs tr =
  let app = tr.Opprox.app in
  List.sort_uniq compare (app.App.default_input :: Array.to_list app.App.training_inputs)

let test_models_predictor_bitwise_kmeans () =
  (* Every phase and every level vector of the kmeans space, plus each AB
     one step outside its level range (which bypasses the local-model
     memo), twice over, on every training input: the predictor gives
     [predict]'s bits in all five fields. *)
  let tr = Lazy.force kmeans_fixture in
  let m = tr.Opprox.models in
  let abs = tr.Opprox.app.App.abs in
  let off_range =
    List.concat_map
      (fun ab ->
        List.map
          (fun l ->
            let levels = Array.make (Array.length abs) 1 in
            levels.(ab) <- l;
            levels)
          [ -1; abs.(ab).Opprox_sim.Ab.max_level + 1 ])
      (List.init (Array.length abs) Fun.id)
  in
  let points = Opprox_sim.Config_space.all abs @ off_range in
  let bits (p : Models.prediction) =
    List.map Int64.bits_of_float [ p.speedup; p.qos; p.speedup_lo; p.qos_hi; p.iters_ratio ]
  in
  let mismatches = ref [] and checked = ref 0 in
  List.iter
    (fun input ->
      let p = Models.predictor m ~input in
      for pass = 1 to 2 do
        List.iter
          (fun levels ->
            for phase = 0 to Models.n_phases m - 1 do
              incr checked;
              if bits (Models.predict m ~input ~phase ~levels) <> bits (p ~phase ~levels) then
                mismatches :=
                  Printf.sprintf "pass %d phase %d levels [%s]" pass phase
                    (String.concat ";" (Array.to_list (Array.map string_of_int levels)))
                  :: !mismatches
            done)
          points
      done)
    (kmeans_inputs tr);
  check_bool "points checked" true (!checked > 1000);
  Alcotest.(check (list string)) "predictor = predict, bit for bit" [] (List.rev !mismatches)

let test_models_quality_reported () =
  let m = Lazy.force models in
  check_bool "speedup R2 high on deterministic toy" true (Models.speedup_r2 m > 0.7);
  check_bool "degree in range" true
    (Models.max_polynomial_degree m >= 1 && Models.max_polynomial_degree m <= 6)

(* ------------------------------------------------------------ Optimizer *)

let optimize budget =
  let t = Lazy.force trained in
  Optimizer.optimize ~models:t.Opprox.models ~roi:t.Opprox.roi
    ~input:toy.App.default_input ~budget ()

let counter name =
  match Opprox_obs.Metrics.find name with Some (Opprox_obs.Metrics.Counter n) -> n | _ -> 0

let test_solver_work_pinned () =
  (* The solver predicts each (phase, levels) point once: the first visit
     is a miss, every later one (a later sweep, or a later budget on the
     same solver) a hit.  Each sweep visits every configuration of every
     active phase; an executed phase before [first_phase] is only priced
     at its all-exact levels, which needs no model. *)
  let tr = Lazy.force kmeans_fixture in
  let models = tr.Opprox.models and roi = tr.Opprox.roi in
  let input = tr.Opprox.app.App.default_input in
  let n_phases = Models.n_phases models in
  let count = Opprox_sim.Config_space.count tr.Opprox.app.App.abs in
  let measure f =
    let m0 = counter "optimizer.predict.miss" and h0 = counter "optimizer.predict.hit" in
    let s0 = counter "optimizer.sweeps" in
    f ();
    ( counter "optimizer.predict.miss" - m0,
      counter "optimizer.predict.hit" - h0,
      counter "optimizer.sweeps" - s0 )
  in
  let misses, hits, sweeps =
    measure (fun () -> ignore (Optimizer.optimize ~models ~roi ~input ~budget:200.0 ()))
  in
  check_int "cold optimize: one miss per point" (n_phases * count) misses;
  check_int "every later visit a hit" ((sweeps - 1) * n_phases * count) hits;
  List.iter
    (fun first_phase ->
      let solve = Optimizer.solver ~models ~roi ~input () in
      let active = n_phases - first_phase in
      let misses, hits, sweeps =
        measure (fun () -> ignore (solve ~first_phase ~budget:200.0 ()))
      in
      let label what = Printf.sprintf "first_phase %d: %s" first_phase what in
      check_int (label "misses") ((active * count) + first_phase) misses;
      check_int (label "hits") ((sweeps - 1) * active * count) hits;
      let misses, hits, sweeps =
        measure (fun () -> ignore (solve ~first_phase ~budget:40.0 ()))
      in
      check_int (label "another budget: no miss") 0 misses;
      check_int (label "another budget: all hits") ((sweeps * active * count) + first_phase) hits)
    (List.init (n_phases + 1) Fun.id)

let test_optimizer_zero_budget () =
  let plan = optimize 0.0 in
  check_bool "all exact" true (Schedule.is_exact plan.Optimizer.schedule)

let test_optimizer_respects_predicted_budget () =
  List.iter
    (fun budget ->
      let plan = optimize budget in
      check_bool
        (Printf.sprintf "priced within budget %.1f" budget)
        true
        (plan.Optimizer.predicted_qos <= budget +. 1e-6))
    [ 1.0; 5.0; 10.0; 25.0 ]

let test_optimizer_monotone_in_budget () =
  let s b = (optimize b).Optimizer.predicted_speedup in
  check_bool "more budget, no less speedup" true (s 20.0 >= s 2.0 -. 1e-9)

let test_optimizer_uses_budget () =
  let plan = optimize 50.0 in
  check_bool "non-trivial plan under generous budget" true
    (not (Schedule.is_exact plan.Optimizer.schedule))

let test_optimizer_negative_budget () =
  (* Input validation now flows through Lint_plan: a negative budget is a
     PLAN001 diagnostic carried by Lint_error. *)
  match optimize (-1.0) with
  | _ -> Alcotest.fail "negative budget accepted"
  | exception Opprox_analysis.Diagnostic.Lint_error diags ->
      check_bool "PLAN001 fired" true
        (List.exists (fun (d : Opprox_analysis.Diagnostic.t) -> d.code = "PLAN001") diags)

let test_compose_speedup () =
  check_float_eps 1e-9 "identity" 1.0 (Models.compose_speedup [ 1.0; 1.0 ]);
  (* one phase saving half of a quarter of the work: 1/(1-0.5) = 2 *)
  check_float_eps 1e-9 "single" 2.0 (Models.compose_speedup [ 2.0 ]);
  check_bool "combination exceeds parts" true
    (Models.compose_speedup [ 1.2; 1.2 ] > 1.2)

let test_optimizer_schedule_shape () =
  let plan = optimize 10.0 in
  check_int "schedule phases match models" 2
    (Schedule.n_phases plan.Optimizer.schedule);
  check_int "schedule ABs match app" (App.n_abs toy)
    (Schedule.n_abs plan.Optimizer.schedule)

let test_optimizer_choices_cover_phases () =
  let plan = optimize 10.0 in
  let phases = List.sort compare (List.map (fun (c : Optimizer.phase_choice) -> c.phase) plan.Optimizer.choices) in
  Alcotest.(check (list int)) "each phase chosen once" [ 0; 1 ] phases

(* The toy app plus a third knob its run never reads: every model is
   blind to that knob's level, so configurations that differ only there
   tie exactly. *)
let dead_knob =
  lazy
    (let app =
       App.make ~name:"toy-dead" ~description:"toy plus a knob that changes nothing"
         ~param_names:[| "scale" |]
         ~abs:
           (Array.append toy_abs
              [|
                Opprox_sim.Ab.make ~name:"unused" ~technique:Opprox_sim.Ab.Perforation
                  ~max_level:3;
              |])
         ~default_input:[| 1.5 |] ~training_inputs:toy_inputs ~run:toy_run ~seed:7 ()
     in
     Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } app)

let test_optimizer_keeps_first_of_ties () =
  (* Among tied configurations the enumeration keeps the first in
     [Config_space.all] order, which leaves the unused knob exact. *)
  let tr = Lazy.force dead_knob in
  let input = tr.Opprox.app.App.default_input in
  let tied = ref false in
  List.iter
    (fun budget ->
      let plan =
        Optimizer.optimize ~models:tr.Opprox.models ~roi:tr.Opprox.roi ~input ~budget ()
      in
      List.iter
        (fun (c : Optimizer.phase_choice) ->
          check_int
            (Printf.sprintf "budget %g phase %d: unused knob" budget c.phase)
            0 c.levels.(2);
          let moved = Array.copy c.levels in
          moved.(2) <- 3;
          let p = Models.predict tr.Opprox.models ~input ~phase:c.phase ~levels:moved in
          if p.Models.speedup_lo = c.predicted.Models.speedup_lo && c.levels <> [| 0; 0; 0 |] then
            tied := true)
        plan.Optimizer.choices)
    [ 2.0; 5.0; 10.0; 20.0; 50.0 ];
  check_bool "some chosen configuration has a tie" true !tied

let prop_roi_allocation_nonnegative =
  qcheck_case "allocations stay nonnegative"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 6) (float_range 0.0 10.0)) (float_range 0.0 50.0))
    (fun (roi, budget) ->
      Array.for_all (fun a -> a >= 0.0) (Roi.allocate ~roi ~budget))

let prop_optimizer_feasible_on_random_budgets =
  qcheck_case ~count:20 "plans stay priced within budget" QCheck.(float_range 0.0 40.0)
    (fun budget ->
      let plan = optimize budget in
      plan.Optimizer.predicted_qos <= budget +. 1e-6)

(* --------------------------------------------------------------- Oracle *)

let test_oracle_zero_budget () =
  let r = Oracle.search toy ~input:toy.App.default_input ~budget:0.0 in
  Alcotest.(check (array int)) "exact config" [| 0; 0 |] r.Oracle.levels;
  check_float "no degradation" 0.0 r.Oracle.evaluation.Driver.qos_degradation

let test_oracle_respects_budget () =
  List.iter
    (fun budget ->
      let r = Oracle.search toy ~input:toy.App.default_input ~budget in
      check_bool "measured within budget" true
        (r.Oracle.evaluation.Driver.qos_degradation <= budget))
    [ 0.5; 2.0; 10.0 ]

let test_oracle_is_optimal () =
  (* Cross-check against a manual scan of the measured space. *)
  let budget = 5.0 in
  let r = Oracle.search toy ~input:toy.App.default_input ~budget in
  let space = Oracle.measured_space toy ~input:toy.App.default_input in
  List.iter
    (fun (_, (e : Driver.evaluation)) ->
      if e.qos_degradation <= budget then
        check_bool "no better feasible config" true
          (e.speedup <= r.Oracle.evaluation.Driver.speedup +. 1e-9))
    space

let test_oracle_space_size () =
  let space = Oracle.measured_space toy ~input:toy.App.default_input in
  check_int "full enumeration" 16 (List.length space)

let test_oracle_monotone_in_budget () =
  let s b = (Oracle.search toy ~input:toy.App.default_input ~budget:b).Oracle.evaluation.Driver.speedup in
  check_bool "monotone" true (s 20.0 >= s 1.0)

(* -------------------------------------------------------------- Facade *)

let test_train_end_to_end () =
  let t = Lazy.force trained in
  check_int "two phases" 2 t.Opprox.training.Training.n_phases;
  check_int "roi arity" 2 (Array.length t.Opprox.roi)

let test_facade_optimize_apply () =
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:10.0 in
  let outcome = Opprox.apply t plan in
  check_bool "speedup at least 1" true (outcome.Driver.speedup >= 0.99);
  check_bool "measured degradation bounded" true (outcome.Driver.qos_degradation < 60.0)

let test_facade_phase_search_mode () =
  let config =
    {
      Opprox.default_train_config with
      n_phases = None;
      training = { training_config with joint_samples_per_phase = 4 };
    }
  in
  let t = Opprox.train ~config toy in
  check_bool "searched phases recorded" true (List.length t.Opprox.phase_probes >= 1);
  check_bool "phase count sane" true
    (t.Opprox.training.Training.n_phases >= 2 && t.Opprox.training.Training.n_phases <= 4)

let test_run_oracle_facade () =
  let r = Opprox.run_oracle toy ~budget:5.0 in
  check_bool "within budget" true (r.Oracle.evaluation.Driver.qos_degradation <= 5.0)

(* ---------------------------------------------------------- determinism *)

let test_training_deterministic () =
  Driver.clear_cache ();
  let a = Training.collect ~config:training_config toy ~n_phases:2 in
  Driver.clear_cache ();
  let b = Training.collect ~config:training_config toy ~n_phases:2 in
  check_int "same run count" (Training.n_runs a) (Training.n_runs b);
  Array.iteri
    (fun i (sa : Training.sample) ->
      let sb = b.Training.samples.(i) in
      check_float "same qos" sa.qos sb.qos;
      check_float "same speedup" sa.speedup sb.speedup)
    a.Training.samples

let test_pipeline_deterministic () =
  (* Two independent end-to-end runs produce the same plan. *)
  let build () =
    let t =
      Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy
    in
    Opprox.optimize t ~budget:10.0
  in
  let p1 = build () and p2 = build () in
  check_bool "identical schedules" true
    (Schedule.equal p1.Optimizer.schedule p2.Optimizer.schedule);
  check_float "identical predicted speedup" p1.Optimizer.predicted_speedup
    p2.Optimizer.predicted_speedup

let test_phases_probe_deterministic () =
  let a = Phases.probe ~samples_per_phase:4 toy ~n_phases:4 in
  let b = Phases.probe ~samples_per_phase:4 toy ~n_phases:4 in
  Alcotest.(check (array (float 1e-12))) "same means" a.Phases.mean_qos_per_phase
    b.Phases.mean_qos_per_phase

let test_huge_budget_goes_aggressive () =
  let t = Lazy.force trained in
  let plan =
    Optimizer.optimize ~models:t.Opprox.models ~roi:t.Opprox.roi
      ~input:toy.App.default_input ~budget:1e6 ()
  in
  (* With an unconstrained budget the optimizer should pick nontrivial
     levels in at least one phase. *)
  check_bool "non-exact plan" true (not (Schedule.is_exact plan.Optimizer.schedule))

let suite =
  [
    ( "cfmodel",
      [
        Alcotest.test_case "flow classes" `Quick test_cfmodel_flow_classes;
        Alcotest.test_case "single class" `Quick test_cfmodel_single_class;
        Alcotest.test_case "unseen trace" `Quick test_cfmodel_unseen_trace;
        Alcotest.test_case "signature truncation" `Quick test_signature_truncation;
      ] );
    ( "training",
      [
        Alcotest.test_case "sample count" `Quick test_training_sample_count;
        Alcotest.test_case "samples well-formed" `Quick test_training_samples_well_formed;
        Alcotest.test_case "phase filter" `Quick test_training_phase_filter;
        Alcotest.test_case "local samples" `Quick test_training_local_samples;
      ] );
    ( "roi",
      [
        Alcotest.test_case "positive" `Quick test_roi_positive;
        Alcotest.test_case "normalize" `Quick test_roi_normalize;
        Alcotest.test_case "normalize zero" `Quick test_roi_normalize_zero;
        Alcotest.test_case "allocate" `Quick test_roi_allocate;
        Alcotest.test_case "descending order" `Quick test_roi_order;
      ] );
    ( "phases",
      [
        Alcotest.test_case "probe" `Quick test_phases_probe;
        Alcotest.test_case "probe single" `Quick test_phases_probe_single;
        Alcotest.test_case "search bounds" `Quick test_phases_search_bounds;
        Alcotest.test_case "high threshold stops" `Quick test_phases_search_high_threshold_stops_early;
      ] );
    ( "models",
      [
        Alcotest.test_case "zero anchor" `Quick test_models_zero_anchor;
        Alcotest.test_case "predictions finite" `Quick test_models_predictions_finite;
        Alcotest.test_case "speedup sane" `Quick test_models_speedup_sane;
        Alcotest.test_case "bad phase" `Quick test_models_bad_phase;
        Alcotest.test_case "predictor matches predict" `Quick test_models_predictor_matches_predict;
        Alcotest.test_case "predictor bitwise on the kmeans space" `Quick
          test_models_predictor_bitwise_kmeans;
        Alcotest.test_case "quality reported" `Quick test_models_quality_reported;
      ] );
    ( "optimizer",
      [
        Alcotest.test_case "zero budget" `Quick test_optimizer_zero_budget;
        Alcotest.test_case "respects predicted budget" `Quick test_optimizer_respects_predicted_budget;
        Alcotest.test_case "monotone in budget" `Quick test_optimizer_monotone_in_budget;
        Alcotest.test_case "uses generous budget" `Quick test_optimizer_uses_budget;
        Alcotest.test_case "negative budget" `Quick test_optimizer_negative_budget;
        Alcotest.test_case "compose speedup" `Quick test_compose_speedup;
        Alcotest.test_case "schedule shape" `Quick test_optimizer_schedule_shape;
        Alcotest.test_case "choices cover phases" `Quick test_optimizer_choices_cover_phases;
        Alcotest.test_case "solver work pinned" `Quick test_solver_work_pinned;
        Alcotest.test_case "first of tied configurations" `Quick
          test_optimizer_keeps_first_of_ties;
        prop_roi_allocation_nonnegative;
        prop_optimizer_feasible_on_random_budgets;
      ] );
    ( "oracle",
      [
        Alcotest.test_case "zero budget" `Quick test_oracle_zero_budget;
        Alcotest.test_case "respects budget" `Quick test_oracle_respects_budget;
        Alcotest.test_case "is optimal" `Quick test_oracle_is_optimal;
        Alcotest.test_case "space size" `Quick test_oracle_space_size;
        Alcotest.test_case "monotone in budget" `Quick test_oracle_monotone_in_budget;
      ] );
    ( "determinism",
      [
        Alcotest.test_case "training" `Quick test_training_deterministic;
        Alcotest.test_case "pipeline" `Quick test_pipeline_deterministic;
        Alcotest.test_case "phase probe" `Quick test_phases_probe_deterministic;
        Alcotest.test_case "huge budget aggressive" `Quick test_huge_budget_goes_aggressive;
      ] );
    ( "facade",
      [
        Alcotest.test_case "train end-to-end" `Quick test_train_end_to_end;
        Alcotest.test_case "optimize + apply" `Quick test_facade_optimize_apply;
        Alcotest.test_case "phase-search mode" `Quick test_facade_phase_search_mode;
        Alcotest.test_case "oracle facade" `Quick test_run_oracle_facade;
      ] );
  ]
