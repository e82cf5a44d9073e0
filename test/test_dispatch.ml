(* The optimizer's strategy must not depend on which libraries a program
   links.  This executable links [opprox] but not [opprox_search], like
   any library user or example, and still has to get the stochastic
   search for a space past the enumeration limit: PLAN010 says
   "stochastic", the search's own [search.steps] counter moves, and the
   plan is lint-clean. *)

module App = Opprox_sim.App
module Metrics = Opprox_obs.Metrics
module Optimizer = Opprox.Optimizer

let counter name = match Metrics.find name with Some (Metrics.Counter n) -> n | _ -> 0

let has_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

(* Collect every Warning-or-worse log line emitted while [f] runs. *)
let with_captured_warnings f =
  let buf = Buffer.create 256 in
  let report src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kasprintf
          (fun s ->
            Buffer.add_string buf (Printf.sprintf "[%s] %s\n" (Logs.Src.name src) s);
            over ();
            k ())
          fmt)
  in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Warning);
  let result = f () in
  (result, Buffer.contents buf)

let test_transformer_gets_stochastic () =
  (* The end-to-end benchmark's trimmed transformer (9^13 joint space). *)
  let t = Opprox_apps.Registry.find "transformer" in
  let input = [| 32.0; 12.0; 8.0 |] in
  let trained =
    Opprox.train
      ~config:
        {
          Opprox.default_train_config with
          n_phases = Some 2;
          training = { Opprox.default_train_config.training with joint_samples_per_phase = 3 };
        }
      (App.with_training_inputs t ~default_input:input ~training_inputs:[| input |])
  in
  let steps0 = counter "search.steps" in
  let plan, logs = with_captured_warnings (fun () -> Opprox.optimize trained ~budget:10.0) in
  Alcotest.(check bool) "PLAN010 names the stochastic search" true
    (has_sub logs "PLAN010" && has_sub logs "stochastic");
  Alcotest.(check bool) "search.steps rose" true (counter "search.steps" > steps0);
  Alcotest.(check int) "plan lint-clean" 0
    (List.length (Optimizer.lint ~models:trained.Opprox.models plan))

let () =
  Alcotest.run "opprox-dispatch"
    [
      ( "optimizer-dispatch",
        [
          Alcotest.test_case "transformer without opprox_search" `Quick
            test_transformer_gets_stochastic;
        ] );
    ]
