(* Tests for the online phase-boundary controller (Controller), its
   serving-protocol telemetry surface (telemetry frames in, plan deltas
   out), and the accounting bugfixes that ride along: the optimizer's
   sub-budget split and Phases.probe seeding.

   The controller tests run on a registry application because control
   needs the iterative interface; bodytrack is retrained at a small
   problem scale (App.with_training_inputs) so the whole file stays in
   the low seconds. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Registry = Opprox_apps.Registry
module Optimizer = Opprox.Optimizer
module Controller = Opprox.Controller
module Phases = Opprox.Phases
module Protocol = Opprox_serve.Protocol
module Server = Opprox_serve.Server
module Client = Opprox_serve.Client
module Diagnostic = Opprox_analysis.Diagnostic
module Sexp = Opprox_util.Sexp
open Fixtures

(* ------------------------------------------------------------ fixtures *)

(* Bodytrack at test scale: tiny inputs, three phases, sparse joint
   sampling.  Training takes well under a second and — deliberately —
   generalizes poorly, so executing the plan on an off-distribution
   input drifts enough to exercise the replan path. *)
let bodytrack_small =
  lazy
    (App.with_training_inputs (Registry.find "bodytrack")
       ~default_input:[| 2.0; 16.0; 3.0 |]
       ~training_inputs:[| [| 2.0; 16.0; 3.0 |]; [| 3.0; 24.0; 4.0 |] |])

let trained =
  lazy
    (Opprox.train
       ~config:
         {
           Opprox.default_train_config with
           n_phases = Some 3;
           training = { Opprox.Training.default_config with joint_samples_per_phase = 4 };
         }
       (Lazy.force bodytrack_small))

(* The pinned off-distribution input: first parameter scaled 2.5x away
   from everything the models saw. *)
let perturbed = [| 5.0; 16.0; 3.0 |]

let pinned_budget = 10.0

let eval_equal (a : Driver.evaluation) (b : Driver.evaluation) =
  a.qos_degradation = b.qos_degradation
  && a.psnr = b.psnr && a.speedup = b.speedup && a.work = b.work
  && a.outer_iters = b.outer_iters && a.exact_iters = b.exact_iters && a.trace = b.trace
  && a.work_per_ab = b.work_per_ab && a.work_per_phase = b.work_per_phase

(* ---------------------------------------------------------- controller *)

(* A run that never replans is the driver's evaluation, bit for bit: the
   controller builds its environment exactly as Driver.execute does, so
   with drift_tol = infinity the two executions are the same program. *)
let test_zero_drift_bit_identical =
  qcheck_case ~count:8 "infinite tolerance: no replans, bit-identical"
    QCheck.(float_range 5.0 30.0)
    (fun budget ->
      let t = Lazy.force trained in
      let plan = Opprox.optimize t ~budget in
      let out =
        Opprox.run_controlled
          ~config:{ Controller.drift_tol = Float.infinity; max_replans = 4 }
          t plan
      in
      out.Controller.replans = 0
      && out.Controller.steps = out.Controller.evaluation.Driver.outer_iters
      && eval_equal out.Controller.evaluation (Opprox.apply t plan))

let test_controlled_off_distribution_input_bit_identical () =
  (* Zero-replan identity must hold on a non-default input too. *)
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:pinned_budget in
  let out =
    Opprox.run_controlled
      ~config:{ Controller.drift_tol = Float.infinity; max_replans = 4 }
      ~input:perturbed t plan
  in
  check_int "no replans" 0 out.Controller.replans;
  check_bool "bit-identical on perturbed input" true
    (eval_equal out.Controller.evaluation (Opprox.apply ~input:perturbed t plan))

(* The satellite scenario the whole PR exists for: on the pinned
   perturbed input the static plan blows its budget while the controller
   notices the drift at a phase boundary, re-solves the remaining
   phases, and lands inside it. *)
let test_perturbed_static_violates_controlled_holds () =
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:pinned_budget in
  let static = Opprox.apply ~input:perturbed t plan in
  check_bool "static plan violates its budget" true
    (static.Driver.qos_degradation > pinned_budget);
  let out = Opprox.run_controlled ~input:perturbed t plan in
  check_bool "controller replanned" true (out.Controller.replans >= 1);
  check_bool "controller held the budget" true out.Controller.within_budget;
  check_bool "strictly better QoS than static" true
    (out.Controller.evaluation.Driver.qos_degradation < static.Driver.qos_degradation);
  (* Phase reports carry the boundary evidence. *)
  check_int "one report per phase" 3 (List.length out.Controller.phases);
  check_bool "some boundary was flagged" true
    (List.exists (fun (r : Controller.phase_report) -> r.Controller.replanned)
       out.Controller.phases)

(* Replanning must reuse the live run's state: a controlled run charges
   its one exact baseline and nothing more, and every outer iteration is
   stepped exactly once even across a mid-run schedule swap. *)
let test_replan_reuses_checkpoints () =
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:pinned_budget in
  let before = counter "driver.exact.run" in
  let out = Opprox.run_controlled ~input:perturbed t plan in
  check_bool "replanned" true (out.Controller.replans >= 1);
  check_int "one exact baseline, no extra exact runs" 1 (counter "driver.exact.run" - before);
  check_int "every iteration stepped once"
    out.Controller.evaluation.Driver.outer_iters out.Controller.steps

let test_controller_rejects_opaque_apps () =
  let t = Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy in
  let plan = Opprox.optimize t ~budget:10.0 in
  Alcotest.check_raises "opaque app"
    (Invalid_argument "Controller.run: \"toy\" exposes no iterative interface") (fun () ->
      ignore (Opprox.run_controlled t plan))

let test_controller_config_validation () =
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:pinned_budget in
  Alcotest.check_raises "negative tolerance"
    (Invalid_argument "Controller.run: drift_tol must be >= 0") (fun () ->
      ignore
        (Opprox.run_controlled
           ~config:{ Controller.drift_tol = -1.0; max_replans = 4 }
           t plan))

(* ----------------------------------------------- optimizer budget split *)

(* Regression for the stranded-grant bug: an infeasible phase used to
   keep its full allocation while its unconsumed share was also handed
   to later phases, so the recorded sub-budgets could sum past the
   plan's budget.  The split must never promise more than the budget,
   for any app or budget. *)
let test_sub_budgets_never_exceed_budget () =
  let toy_trained =
    Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy
  in
  let bt = Lazy.force trained in
  List.iter
    (fun (label, t) ->
      List.iter
        (fun budget ->
          let plan = Opprox.optimize t ~budget in
          let total =
            List.fold_left
              (fun acc (c : Optimizer.phase_choice) -> acc +. c.Optimizer.sub_budget)
              0.0 plan.Optimizer.choices
          in
          check_bool
            (Printf.sprintf "%s: sum %.6f within budget %.1f" label total budget)
            true
            (total <= budget +. (1e-6 *. budget));
          List.iter
            (fun (c : Optimizer.phase_choice) ->
              check_bool "sub-budget nonnegative" true (c.Optimizer.sub_budget >= 0.0))
            plan.Optimizer.choices)
        [ 0.5; 2.0; 5.0; 10.0; 20.0; 40.0 ])
    [ ("toy", toy_trained); ("bodytrack", bt) ]

(* ------------------------------------------------------- Phases seeding *)

(* Algorithm 1's probes draw their variance-injection stream from the
   caller's seed alone.  The old code folded n_phases into the seed, so
   changing the probe granularity silently changed the random AL vectors
   too — these pins fail if that ever comes back. *)
let test_probe_seed_is_caller_seed () =
  let a = Phases.probe ~samples_per_phase:4 ~seed:42 toy ~n_phases:2 in
  let b = Phases.probe ~samples_per_phase:4 ~seed:42 toy ~n_phases:2 in
  Alcotest.(check (array (float 1e-12))) "deterministic" a.Phases.mean_qos_per_phase
    b.Phases.mean_qos_per_phase;
  let c = Phases.probe ~samples_per_phase:4 ~seed:43 toy ~n_phases:2 in
  check_bool "seed actually feeds the stream" true
    (a.Phases.mean_qos_per_phase <> c.Phases.mean_qos_per_phase)

let test_search_pins_post_fix_result () =
  let n, probes = Phases.search ~threshold:0.5 ~max_phases:8 ~samples_per_phase:4 ~seed:7 toy in
  check_int "phase count" 2 n;
  check_bool "made probes" true (List.length probes >= 1);
  (* Golden values of the first probe under the fixed seeding; a
     regression to [seed + n_phases] shifts the sampled AL vectors and
     moves these. *)
  let p = List.hd probes in
  check_int "first probe granularity" 2 p.Phases.n_phases;
  Alcotest.(check (array (float 1e-3)))
    "pinned probe means" [| 4.89895; 4.9907 |] p.Phases.mean_qos_per_phase

(* ----------------------------------------------------- telemetry codecs *)

let roundtrip_telemetry tm =
  Protocol.telemetry_of_sexp (Sexp.of_string (Sexp.to_string (Protocol.telemetry_to_sexp tm)))

let sample_telemetry ?input () =
  Protocol.telemetry ?input ~app:"bodytrack" ~plan_budget:10.0 ~phase:1 ~n_phases:3 ~drift:0.8
    ~drift_tol:0.25 ~observed_work:954050.0 ~predicted_work:530693.0 ~remaining_budget:6.5 ()

let test_telemetry_roundtrip () =
  let tm = sample_telemetry ~input:[| 5.0; 16.0; 3.0 |] () in
  check_bool "with input" true (roundtrip_telemetry tm = tm);
  let tm = sample_telemetry () in
  check_bool "without input" true (roundtrip_telemetry tm = tm);
  check_bool "kind tag on the wire" true
    (Protocol.frame_kind (Protocol.telemetry_to_sexp tm) = "telemetry")

let test_requests_stay_untagged () =
  let req = Protocol.request ~app:"toy" ~budget:10.0 () in
  check_bool "request frames have no kind" true
    (Protocol.frame_kind (Protocol.request_to_sexp req) = "request")

let test_telemetry_rejects_malformed () =
  let truncated = Sexp.of_string "((v 1) (kind telemetry) (app bodytrack) (phase 1))" in
  (match Protocol.telemetry_of_sexp truncated with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "truncated telemetry frame must not decode");
  let req = Protocol.request_to_sexp (Protocol.request ~app:"toy" ~budget:10.0 ()) in
  match Protocol.telemetry_of_sexp req with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a plan request must not decode as telemetry"

let roundtrip_response r =
  Protocol.response_of_sexp (Sexp.of_string (Sexp.to_string (Protocol.response_to_sexp r)))

let test_plan_delta_roundtrip () =
  let no_change = Protocol.PlanDelta { delta = Protocol.No_change; elapsed_ms = 1.5 } in
  check_bool "no_change" true (roundtrip_response no_change = no_change);
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:pinned_budget in
  let replan =
    Protocol.PlanDelta
      { delta = Protocol.Replan { from_phase = 2; plan }; elapsed_ms = 3.25 }
  in
  match (roundtrip_response replan, replan) with
  | ( Protocol.PlanDelta { delta = Protocol.Replan { from_phase = f1; plan = p1 }; _ },
      Protocol.PlanDelta { delta = Protocol.Replan { from_phase = f2; plan = p2 }; _ } ) ->
      check_int "from_phase survives" f2 f1;
      check_bool "schedule survives" true
        (Schedule.equal p1.Optimizer.schedule p2.Optimizer.schedule);
      check_float "budget survives" p2.Optimizer.budget p1.Optimizer.budget
  | _ -> Alcotest.fail "replan delta did not roundtrip as a replan"

(* ----------------------------------------------- telemetry over loopback *)

let make_server () = Server.create [ Lazy.force trained ]

let test_low_drift_acknowledged () =
  let server = make_server () in
  let client = Client.loopback server in
  let tm =
    Protocol.telemetry ~app:"bodytrack" ~plan_budget:10.0 ~phase:0 ~n_phases:3 ~drift:0.1
      ~drift_tol:0.25 ~observed_work:100.0 ~predicted_work:95.0 ~remaining_budget:8.0 ()
  in
  match Client.telemetry client tm with
  | Protocol.PlanDelta { delta = Protocol.No_change; _ } -> ()
  | r -> Alcotest.fail ("low drift should be acknowledged, got " ^ Test_serve.code_of r)

let test_high_drift_replans () =
  let server = make_server () in
  let client = Client.loopback server in
  let tm =
    Protocol.telemetry ~input:perturbed ~app:"bodytrack" ~plan_budget:10.0 ~phase:0
      ~n_phases:3 ~drift:0.9 ~drift_tol:0.25 ~observed_work:200.0 ~predicted_work:100.0
      ~remaining_budget:6.0 ()
  in
  match Client.telemetry client tm with
  | Protocol.PlanDelta { delta = Protocol.Replan { from_phase; plan }; _ } ->
      check_int "suffix starts after the reported phase" 1 from_phase;
      check_float "solved against the remaining budget" 6.0 plan.Optimizer.budget;
      let t = Lazy.force trained in
      check_bool "delta plan lints clean" true
        (Diagnostic.errors (Optimizer.lint ~models:t.Opprox.models plan) = [])
  | r -> Alcotest.fail ("high drift should replan, got " ^ Test_serve.code_of r)

let test_telemetry_unknown_app_rejected () =
  let server = make_server () in
  let client = Client.loopback server in
  let tm =
    Protocol.telemetry ~app:"nonesuch" ~plan_budget:10.0 ~phase:0 ~n_phases:3 ~drift:0.9
      ~drift_tol:0.25 ~observed_work:1.0 ~predicted_work:1.0 ~remaining_budget:5.0 ()
  in
  match Client.telemetry client tm with
  | Protocol.Error diags ->
      check_bool "SRV002" true
        (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.code = "SRV002") diags)
  | r -> Alcotest.fail ("unknown app must be rejected, got " ^ Test_serve.code_of r)

let test_telemetry_bad_phase_rejected () =
  let server = make_server () in
  let client = Client.loopback server in
  let tm =
    Protocol.telemetry ~app:"bodytrack" ~plan_budget:10.0 ~phase:7 ~n_phases:3 ~drift:0.9
      ~drift_tol:0.25 ~observed_work:1.0 ~predicted_work:1.0 ~remaining_budget:5.0 ()
  in
  match Client.telemetry client tm with
  | Protocol.Error diags ->
      check_bool "SRV004" true
        (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.code = "SRV004") diags)
  | r -> Alcotest.fail ("out-of-range phase must be rejected, got " ^ Test_serve.code_of r)

(* The full streaming-recontrol loop: the controller's replanner ships
   telemetry to a loopback server and adopts the returned deltas.  The
   server solves with the same models against the same input, so the
   outcome must match the local default replanner exactly. *)
let test_streaming_recontrol_matches_local () =
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:pinned_budget in
  let server = make_server () in
  let client = Client.loopback server in
  let remote =
    Client.replanner client ~input:perturbed ~app:"bodytrack" ~plan_budget:pinned_budget
      ~drift_tol:Controller.default_config.Controller.drift_tol ()
  in
  let streamed = Opprox.run_controlled ~replan:remote ~input:perturbed t plan in
  check_bool "streamed run replans" true (streamed.Controller.replans >= 1);
  check_bool "streamed run holds the budget" true streamed.Controller.within_budget;
  let local = Opprox.run_controlled ~input:perturbed t plan in
  check_int "same replan count" local.Controller.replans streamed.Controller.replans;
  check_bool "same final schedule" true
    (Schedule.equal local.Controller.schedule streamed.Controller.schedule);
  check_bool "same evaluation" true
    (eval_equal local.Controller.evaluation streamed.Controller.evaluation)

let suite =
  [
    ( "control",
      [
        Alcotest.test_case "controlled run off-distribution is bit-identical" `Quick
          test_controlled_off_distribution_input_bit_identical;
        Alcotest.test_case "perturbed: static violates, controlled holds" `Quick
          test_perturbed_static_violates_controlled_holds;
        Alcotest.test_case "replans reuse checkpoints" `Quick test_replan_reuses_checkpoints;
        Alcotest.test_case "opaque apps are rejected" `Quick test_controller_rejects_opaque_apps;
        Alcotest.test_case "config validation" `Quick test_controller_config_validation;
        test_zero_drift_bit_identical;
      ] );
    ( "control-accounting",
      [
        Alcotest.test_case "sub-budgets never exceed the budget" `Quick
          test_sub_budgets_never_exceed_budget;
        Alcotest.test_case "probe stream is seeded by the caller" `Quick
          test_probe_seed_is_caller_seed;
        Alcotest.test_case "search pins the post-fix result" `Quick
          test_search_pins_post_fix_result;
      ] );
    ( "control-telemetry",
      [
        Alcotest.test_case "telemetry frames roundtrip" `Quick test_telemetry_roundtrip;
        Alcotest.test_case "requests stay untagged" `Quick test_requests_stay_untagged;
        Alcotest.test_case "malformed telemetry is rejected" `Quick
          test_telemetry_rejects_malformed;
        Alcotest.test_case "plan deltas roundtrip" `Quick test_plan_delta_roundtrip;
        Alcotest.test_case "low drift is acknowledged" `Quick test_low_drift_acknowledged;
        Alcotest.test_case "high drift replans the suffix" `Quick test_high_drift_replans;
        Alcotest.test_case "unknown app telemetry rejected" `Quick
          test_telemetry_unknown_app_rejected;
        Alcotest.test_case "out-of-range phase rejected" `Quick
          test_telemetry_bad_phase_rejected;
        Alcotest.test_case "streaming recontrol matches local" `Quick
          test_streaming_recontrol_matches_local;
      ] );
  ]
