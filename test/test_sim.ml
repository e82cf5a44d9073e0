(* Tests for Opprox_sim: Approx, Schedule, Workmeter, Env, Qos,
   Config_space, App, Driver. *)

module Ab = Opprox_sim.Ab
module Approx = Opprox_sim.Approx
module Schedule = Opprox_sim.Schedule
module Workmeter = Opprox_sim.Workmeter
module Env = Opprox_sim.Env
module Qos = Opprox_sim.Qos
module Config_space = Opprox_sim.Config_space
module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Rng = Opprox_util.Rng
open Fixtures

let collect_indices f =
  let acc = ref [] in
  f (fun i -> acc := i :: !acc);
  List.rev !acc

(* ----------------------------------------------------------------- Approx *)

let test_perforate_exact () =
  Alcotest.(check (list int)) "level 0 visits all" [ 0; 1; 2; 3 ]
    (collect_indices (Approx.perforate ~level:0 4))

let test_perforate_stride () =
  Alcotest.(check (list int)) "level 2 strides by 3" [ 0; 3; 6; 9 ]
    (collect_indices (Approx.perforate ~level:2 10))

let test_perforate_offset () =
  Alcotest.(check (list int)) "offset rotates start" [ 1; 4; 7 ]
    (collect_indices (Approx.perforate ~offset:4 ~level:2 9))

let test_perforate_count () =
  for level = 0 to 5 do
    for n = 0 to 25 do
      for offset = 0 to 3 do
        check_int
          (Printf.sprintf "count l=%d n=%d o=%d" level n offset)
          (List.length (collect_indices (Approx.perforate ~offset ~level n)))
          (Approx.perforated_count ~offset ~level n)
      done
    done
  done

let test_perforate_negative () =
  Alcotest.check_raises "negative level" (Invalid_argument "Approx: negative level") (fun () ->
      Approx.perforate ~level:(-1) 3 ignore)

let test_truncate_exact () =
  check_int "level 0 keeps all" 10 (Approx.truncated_count ~level:0 ~max_level:5 10)

let test_truncate_half_at_max () =
  check_int "max level halves" 5 (Approx.truncated_count ~level:5 ~max_level:5 10)

let test_truncate_is_prefix () =
  Alcotest.(check (list int)) "prefix" [ 0; 1; 2; 3; 4; 5; 6 ]
    (collect_indices (Approx.truncate ~level:3 ~max_level:5 10))

let test_truncate_level_above_max () =
  Alcotest.check_raises "level > max"
    (Invalid_argument "Approx.truncate: level above max_level") (fun () ->
      Approx.truncate ~level:6 ~max_level:5 10 ignore)

let test_memoize_exact () =
  let computed = ref [] in
  Approx.memoize ~level:0 5
    ~compute:(fun i ->
      computed := i :: !computed;
      i)
    ~use:(fun i v -> check_int "fresh value" i v);
  check_int "computes all at level 0" 5 (List.length !computed)

let test_memoize_replays_cache () =
  let uses = ref [] in
  Approx.memoize ~level:2 7 ~compute:(fun i -> i * 10) ~use:(fun i v -> uses := (i, v) :: !uses);
  let uses = List.rev !uses in
  Alcotest.(check (list (pair int int))) "cache replay pattern"
    [ (0, 0); (1, 0); (2, 0); (3, 30); (4, 30); (5, 30); (6, 60) ]
    uses

let test_memoize_always_computes_first () =
  (* Offset shifting must still fill the cache at i = 0. *)
  let computed = ref 0 in
  Approx.memoize ~offset:1 ~level:3 6
    ~compute:(fun i ->
      incr computed;
      i)
    ~use:(fun _ _ -> ());
  check_bool "computed at least once" true (!computed >= 1)

let test_memoize_count () =
  for level = 0 to 4 do
    for n = 0 to 15 do
      for offset = 0 to 2 do
        let computed = ref 0 in
        Approx.memoize ~offset ~level n
          ~compute:(fun i -> incr computed; i)
          ~use:(fun _ _ -> ());
        check_int
          (Printf.sprintf "memo count l=%d n=%d o=%d" level n offset)
          !computed
          (Approx.memoized_compute_count ~offset ~level n)
      done
    done
  done

let test_tune_parameter () =
  check_float "identity at 0" 10.0 (Approx.tune_parameter ~level:0 ~max_level:5 10.0);
  check_float "half at max" 5.0 (Approx.tune_parameter ~level:5 ~max_level:5 10.0);
  check_float "linear in level" 8.0 (Approx.tune_parameter ~level:2 ~max_level:5 10.0)

let prop_perforate_less_work =
  qcheck_case "higher level => fewer iterations"
    QCheck.(pair (int_range 0 9) (int_range 0 100))
    (fun (level, n) ->
      Approx.perforated_count ~level:(level + 1) n <= Approx.perforated_count ~level n)

let prop_truncate_monotone =
  qcheck_case "truncation monotone in level" QCheck.(pair (int_range 0 4) (int_range 0 100))
    (fun (level, n) ->
      Approx.truncated_count ~level:(level + 1) ~max_level:5 n
      <= Approx.truncated_count ~level ~max_level:5 n)

(* --------------------------------------------------------------- Schedule *)

let test_schedule_exact () =
  let s = Schedule.exact ~n_abs:3 in
  check_bool "is exact" true (Schedule.is_exact s);
  check_int "one phase" 1 (Schedule.n_phases s);
  check_int "level zero" 0 (Schedule.level s ~phase:0 ~ab:2)

let test_schedule_uniform () =
  let s = Schedule.uniform ~n_phases:4 [| 1; 2 |] in
  for p = 0 to 3 do
    check_int "same levels each phase" 2 (Schedule.level s ~phase:p ~ab:1)
  done

let test_schedule_single_phase () =
  let s = Schedule.single_phase_active ~n_phases:4 ~phase:2 [| 3; 1 |] in
  check_int "active phase" 3 (Schedule.level s ~phase:2 ~ab:0);
  check_int "other phases exact" 0 (Schedule.level s ~phase:0 ~ab:0);
  check_bool "not exact" false (Schedule.is_exact s)

let test_schedule_phase_of_iter () =
  let s = Schedule.uniform ~n_phases:4 [| 0 |] in
  check_int "first iter phase 0" 0 (Schedule.phase_of_iter s ~expected_iters:100 ~iter:0);
  check_int "iter 24 still phase 0" 0 (Schedule.phase_of_iter s ~expected_iters:100 ~iter:24);
  check_int "iter 25 phase 1" 1 (Schedule.phase_of_iter s ~expected_iters:100 ~iter:25);
  check_int "last quarter" 3 (Schedule.phase_of_iter s ~expected_iters:100 ~iter:99)

let test_schedule_overflow_to_last_phase () =
  (* Iterations beyond the exact count stay in the final phase (paper
     footnote 2). *)
  let s = Schedule.uniform ~n_phases:4 [| 0 |] in
  check_int "overflow" 3 (Schedule.phase_of_iter s ~expected_iters:100 ~iter:400)

let test_schedule_unknown_iters () =
  let s = Schedule.uniform ~n_phases:4 [| 0 |] in
  check_int "unknown maps to 0" 0 (Schedule.phase_of_iter s ~expected_iters:0 ~iter:50)

let test_schedule_make_validation () =
  (* The messages carry the offending coordinates. *)
  Alcotest.check_raises "negative level"
    (Invalid_argument "Schedule.make: negative level -1 (phase 0, ab 0)") (fun () ->
      ignore (Schedule.make [| [| -1 |] |]));
  Alcotest.check_raises "ragged"
    (Invalid_argument "Schedule.make: ragged rows (phase 1 has 2 ABs, phase 0 has 1)")
    (fun () -> ignore (Schedule.make [| [| 1 |]; [| 1; 2 |] |]))

let test_schedule_levels_of_phase_copies () =
  let s = Schedule.make [| [| 1; 2 |] |] in
  let levels = Schedule.levels_of_phase s 0 in
  levels.(0) <- 99;
  check_int "internal state unchanged" 1 (Schedule.level s ~phase:0 ~ab:0)

let prop_phase_of_iter_monotone =
  qcheck_case "phase monotone in iteration"
    QCheck.(triple (int_range 1 8) (int_range 1 500) (int_range 0 499))
    (fun (n_phases, expected, iter) ->
      let s = Schedule.uniform ~n_phases [| 0 |] in
      let p1 = Schedule.phase_of_iter s ~expected_iters:expected ~iter in
      let p2 = Schedule.phase_of_iter s ~expected_iters:expected ~iter:(iter + 1) in
      p1 <= p2 && p1 >= 0 && p2 < n_phases)

(* -------------------------------------------------------- Workmeter / Env *)

let test_workmeter () =
  let m = Workmeter.create () in
  Workmeter.add m 5;
  Workmeter.add m 3;
  check_int "total" 8 (Workmeter.total m);
  Workmeter.reset m;
  check_int "reset" 0 (Workmeter.total m)

let test_workmeter_negative () =
  let m = Workmeter.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Workmeter.add: negative work") (fun () ->
      Workmeter.add m (-1))

let make_env ?(n_phases = 2) ?(expected = 10) levels =
  let sched = Schedule.uniform ~n_phases levels in
  Env.create ~rng:(Rng.create 0) ~sched ~expected_iters:expected ~n_abs:(Array.length levels)

let test_env_charging () =
  let env = make_env [| 0; 0 |] in
  let _ = Env.begin_outer_iter env in
  Env.charge env ~ab:0 5;
  Env.charge env ~ab:1 3;
  Env.charge_base env 2;
  check_int "total" 10 (Env.total_work env);
  check_int "ab0" 5 (Env.work_of_ab env 0);
  check_int "ab1" 3 (Env.work_of_ab env 1)

let test_env_trace () =
  let env = make_env [| 0; 0 |] in
  let _ = Env.begin_outer_iter env in
  Env.enter_ab env ~ab:1;
  Env.enter_ab env ~ab:0;
  Alcotest.(check (list int)) "trace order" [ 1; 0 ] (Env.trace env)

let test_env_phase_tracking () =
  let env = make_env ~n_phases:2 ~expected:4 [| 0 |] in
  let _ = Env.begin_outer_iter env in
  check_int "phase 0" 0 (Env.current_phase env);
  let _ = Env.begin_outer_iter env in
  let _ = Env.begin_outer_iter env in
  check_int "phase 1 at iter 2" 1 (Env.current_phase env);
  Env.charge_base env 7;
  check_int "charged to phase 1" 7 (Env.work_per_phase env).(1)

let test_env_level_lookup () =
  let sched = Schedule.single_phase_active ~n_phases:2 ~phase:1 [| 3 |] in
  let env = Env.create ~rng:(Rng.create 0) ~sched ~expected_iters:4 ~n_abs:1 in
  check_int "phase 0 exact" 0 (Env.level env ~iter:0 ~ab:0);
  check_int "phase 1 approximated" 3 (Env.level env ~iter:3 ~ab:0)

(* -------------------------------------------------------------------- Qos *)

let test_distortion_identical () =
  check_float "zero" 0.0 (Qos.relative_distortion ~exact:[| 1.0; 2.0 |] ~approx:[| 1.0; 2.0 |])

let test_distortion_value () =
  (* |1-2| / (1+2) * 100 *)
  check_float_eps 1e-9 "one third" (100.0 /. 3.0)
    (Qos.relative_distortion ~exact:[| 1.0; 2.0 |] ~approx:[| 2.0; 2.0 |])

let test_distortion_nonnegative () =
  check_bool "nonnegative" true
    (Qos.relative_distortion ~exact:[| -1.0; 5.0 |] ~approx:[| 2.0; -3.0 |] >= 0.0)

let test_mse () = check_float "mse" 2.5 (Qos.mse ~exact:[| 0.0; 0.0 |] ~approx:[| 1.0; 2.0 |])

let test_psnr_identical () =
  check_bool "infinite" true (Float.is_integer (Qos.psnr ~exact:[| 1.0 |] ~approx:[| 1.0 |]) = false || Qos.psnr ~exact:[| 1.0 |] ~approx:[| 1.0 |] = infinity)

let test_psnr_value () =
  (* mse = 255^2 => psnr = 0 dB *)
  check_float_eps 1e-9 "0 dB" 0.0 (Qos.psnr ~exact:[| 0.0 |] ~approx:[| 255.0 |])

let test_psnr_mapping_roundtrip () =
  List.iter
    (fun psnr ->
      let d = Qos.psnr_to_degradation psnr in
      check_float_eps 1e-9 "roundtrip" psnr (Qos.degradation_to_psnr d))
    [ 10.0; 20.0; 30.0; 45.0 ]

let test_psnr_mapping_saturates () =
  check_float "lossless" 0.0 (Qos.psnr_to_degradation 55.0);
  check_float "infinity lossless" 0.0 (Qos.psnr_to_degradation infinity)

let test_qos_length_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Qos.mse: length mismatch") (fun () ->
      ignore (Qos.mse ~exact:[| 1.0 |] ~approx:[| 1.0; 2.0 |]))

(* ----------------------------------------------------------- Config_space *)

let two_abs =
  [|
    Ab.make ~name:"a" ~technique:Ab.Perforation ~max_level:2;
    Ab.make ~name:"b" ~technique:Ab.Truncation ~max_level:3;
  |]

let test_space_count () = check_int "3 * 4" 12 (Config_space.count two_abs)

let test_space_all () =
  let all = Config_space.all two_abs in
  check_int "enumerates everything" 12 (List.length all);
  check_int "distinct" 12 (List.length (List.sort_uniq compare all));
  Alcotest.(check (array int)) "zero first" [| 0; 0 |] (List.hd all)

let test_space_local_sweeps () =
  let sweeps = Config_space.local_sweeps two_abs in
  check_int "2 + 3 configurations" 5 (List.length sweeps);
  List.iter
    (fun (ab, config) ->
      check_bool "only one AB active" true
        (Array.for_all Fun.id (Array.mapi (fun i l -> i = ab || l = 0) config));
      check_bool "active level positive" true (config.(ab) > 0))
    sweeps

let test_space_random_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let c = Config_space.random rng two_abs in
    check_bool "bounded" true (c.(0) <= 2 && c.(1) <= 3 && c.(0) >= 0 && c.(1) >= 0)
  done

let test_space_random_nonzero () =
  let rng = Rng.create 4 in
  for _ = 1 to 50 do
    let c = Config_space.random_nonzero rng two_abs in
    check_bool "not all zero" true (Array.exists (fun l -> l > 0) c)
  done

let test_phase_space_count () =
  check_int "count * phases * inputs" (12 * 4 * 3)
    (Config_space.phase_space_count two_abs ~n_phases:4 ~n_inputs:3)

(* ----------------------------------------------------------------- Inputs *)

module Inputs = Opprox_sim.Inputs

let test_inputs_grid () =
  let g = Inputs.grid [ [ 1.0; 2.0 ]; [ 10.0 ]; [ 0.0; 0.5; 1.0 ] ] in
  check_int "size" 6 (Array.length g);
  Alcotest.(check (array (float 0.0))) "first (row-major)" [| 1.0; 10.0; 0.0 |] g.(0);
  Alcotest.(check (array (float 0.0))) "last" [| 2.0; 10.0; 1.0 |] g.(5)

let test_inputs_grid_invalid () =
  Alcotest.check_raises "no axes" (Invalid_argument "Inputs.grid: no axes") (fun () ->
      ignore (Inputs.grid []));
  Alcotest.check_raises "empty axis" (Invalid_argument "Inputs.grid: empty axis") (fun () ->
      ignore (Inputs.grid [ [ 1.0 ]; [] ]))

let test_inputs_count () =
  check_int "count matches grid" 6 (Inputs.count [ [ 1.0; 2.0 ]; [ 10.0 ]; [ 0.0; 0.5; 1.0 ] ])

let test_inputs_with_default () =
  let g = Inputs.grid [ [ 1.0; 2.0 ] ] in
  check_int "new default appended" 3 (Array.length (Inputs.with_default [| 3.0 |] g));
  check_int "existing default not duplicated" 2 (Array.length (Inputs.with_default [| 2.0 |] g))

let test_apps_default_in_training () =
  (* Every bundled app trains on its default input (model coverage). *)
  List.iter
    (fun (app : App.t) ->
      check_bool (app.App.name ^ " default covered") true
        (Array.exists (fun i -> i = app.App.default_input) app.App.training_inputs))
    (Opprox_apps.Registry.all ())

(* ------------------------------------------------------------ App / Driver *)

let test_app_validation () =
  Alcotest.check_raises "no ABs" (Invalid_argument "App.make: no approximable blocks")
    (fun () ->
      ignore
        (App.make ~name:"bad" ~description:"" ~param_names:[| "p" |] ~abs:[||]
           ~default_input:[| 1.0 |] ~training_inputs:[| [| 1.0 |] |]
           ~run:(fun _ _ -> [| 0.0 |])
           ()))

let test_app_accessors () =
  check_int "n_abs" 2 (App.n_abs toy);
  Alcotest.(check (array int)) "max levels" [| 3; 3 |] (App.max_levels toy);
  Alcotest.(check (array string)) "names" [| "smooth"; "integrate" |] (App.ab_names toy)

let test_driver_exact_run () =
  let exact = Driver.run_exact toy toy.App.default_input in
  check_int "iterations" Fixtures.iterations exact.Driver.iters;
  check_bool "work positive" true (exact.Driver.work > 0);
  check_bool "finite output" true (Array.for_all Float.is_finite exact.Driver.output)

let test_driver_exact_deterministic () =
  let a = Driver.run_exact toy toy.App.default_input in
  let b = Driver.run_exact toy toy.App.default_input in
  Alcotest.(check (array (float 0.0))) "identical outputs" a.Driver.output b.Driver.output;
  check_int "identical work" a.Driver.work b.Driver.work

let test_driver_exact_schedule_scores_perfectly () =
  let ev = Driver.evaluate toy (Schedule.exact ~n_abs:2) toy.App.default_input in
  check_float "zero degradation" 0.0 ev.Driver.qos_degradation;
  check_float_eps 1e-9 "unit speedup" 1.0 ev.Driver.speedup

let test_driver_approximation_saves_work () =
  let ev = Driver.evaluate toy (Schedule.uniform ~n_phases:1 [| 3; 3 |]) toy.App.default_input in
  check_bool "speedup above 1" true (ev.Driver.speedup > 1.0);
  check_bool "degradation nonzero" true (ev.Driver.qos_degradation > 0.0)

let test_driver_evaluation_deterministic () =
  let sched = Schedule.uniform ~n_phases:2 [| 2; 1 |] in
  let a = Driver.evaluate toy sched toy.App.default_input in
  let b = Driver.evaluate toy sched toy.App.default_input in
  check_float "same qos" a.Driver.qos_degradation b.Driver.qos_degradation;
  check_float "same speedup" a.Driver.speedup b.Driver.speedup

let test_driver_schedule_mismatch () =
  Alcotest.check_raises "AB count" (Invalid_argument "Driver.evaluate: schedule AB count mismatch")
    (fun () -> ignore (Driver.evaluate toy (Schedule.exact ~n_abs:3) toy.App.default_input))

let test_driver_work_per_phase_sums () =
  let sched = Schedule.uniform ~n_phases:4 [| 0; 0 |] in
  let ev = Driver.evaluate toy sched toy.App.default_input in
  check_int "phase work sums to total" ev.Driver.work
    (Array.fold_left ( + ) 0 ev.Driver.work_per_phase)

let test_driver_seed_differs_by_input () =
  check_bool "different inputs, different seeds" true
    (Driver.seed_for toy [| 1.0 |] <> Driver.seed_for toy [| 2.0 |])

let test_driver_cache_hits () =
  let memo = Driver.memo () in
  let a = Driver.run_exact ~memo toy toy.App.default_input in
  let b = Driver.run_exact ~memo toy toy.App.default_input in
  (* Memoized: the very same record comes back. *)
  check_bool "physically cached" true (a == b);
  (* Without a memo every call runs from scratch. *)
  check_bool "no memo, fresh run" true (Driver.run_exact toy toy.App.default_input != a)

let test_driver_cache_keyed_by_input () =
  let memo = Driver.memo () in
  let a = Driver.run_exact ~memo toy [| 1.0 |] in
  let b = Driver.run_exact ~memo toy [| 2.0 |] in
  check_bool "distinct per input" true (a != b)

let prop_evaluation_speedup_work_consistent =
  qcheck_case ~count:20 "speedup equals exact work over measured work"
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (l0, l1) ->
      let exact = Driver.run_exact toy toy.App.default_input in
      let ev = Driver.evaluate toy (Schedule.uniform ~n_phases:2 [| l0; l1 |]) toy.App.default_input in
      Float.abs
        (ev.Driver.speedup -. (float_of_int exact.Driver.work /. float_of_int ev.Driver.work))
      < 1e-9)

let prop_toy_speedup_monotone =
  qcheck_case ~count:20 "more aggressive level never does more work"
    QCheck.(pair (int_range 0 2) (int_range 0 2))
    (fun (l0, l1) ->
      let work levels =
        (Driver.evaluate toy (Schedule.uniform ~n_phases:1 levels) toy.App.default_input)
          .Driver.work
      in
      work [| l0 + 1; l1 |] <= work [| l0; l1 |] && work [| l0; l1 + 1 |] <= work [| l0; l1 |])

let suite =
  [
    ( "approx",
      [
        Alcotest.test_case "perforate exact" `Quick test_perforate_exact;
        Alcotest.test_case "perforate stride" `Quick test_perforate_stride;
        Alcotest.test_case "perforate offset" `Quick test_perforate_offset;
        Alcotest.test_case "perforate count" `Quick test_perforate_count;
        Alcotest.test_case "perforate negative" `Quick test_perforate_negative;
        Alcotest.test_case "truncate exact" `Quick test_truncate_exact;
        Alcotest.test_case "truncate half at max" `Quick test_truncate_half_at_max;
        Alcotest.test_case "truncate prefix" `Quick test_truncate_is_prefix;
        Alcotest.test_case "truncate above max" `Quick test_truncate_level_above_max;
        Alcotest.test_case "memoize exact" `Quick test_memoize_exact;
        Alcotest.test_case "memoize replay" `Quick test_memoize_replays_cache;
        Alcotest.test_case "memoize first compute" `Quick test_memoize_always_computes_first;
        Alcotest.test_case "memoize count" `Quick test_memoize_count;
        Alcotest.test_case "tune parameter" `Quick test_tune_parameter;
        prop_perforate_less_work;
        prop_truncate_monotone;
      ] );
    ( "schedule",
      [
        Alcotest.test_case "exact" `Quick test_schedule_exact;
        Alcotest.test_case "uniform" `Quick test_schedule_uniform;
        Alcotest.test_case "single phase" `Quick test_schedule_single_phase;
        Alcotest.test_case "phase_of_iter" `Quick test_schedule_phase_of_iter;
        Alcotest.test_case "overflow to last" `Quick test_schedule_overflow_to_last_phase;
        Alcotest.test_case "unknown iters" `Quick test_schedule_unknown_iters;
        Alcotest.test_case "validation" `Quick test_schedule_make_validation;
        Alcotest.test_case "levels copy" `Quick test_schedule_levels_of_phase_copies;
        prop_phase_of_iter_monotone;
      ] );
    ( "workmeter-env",
      [
        Alcotest.test_case "workmeter" `Quick test_workmeter;
        Alcotest.test_case "workmeter negative" `Quick test_workmeter_negative;
        Alcotest.test_case "env charging" `Quick test_env_charging;
        Alcotest.test_case "env trace" `Quick test_env_trace;
        Alcotest.test_case "env phase tracking" `Quick test_env_phase_tracking;
        Alcotest.test_case "env level lookup" `Quick test_env_level_lookup;
      ] );
    ( "qos",
      [
        Alcotest.test_case "distortion identical" `Quick test_distortion_identical;
        Alcotest.test_case "distortion value" `Quick test_distortion_value;
        Alcotest.test_case "distortion nonnegative" `Quick test_distortion_nonnegative;
        Alcotest.test_case "mse" `Quick test_mse;
        Alcotest.test_case "psnr identical" `Quick test_psnr_identical;
        Alcotest.test_case "psnr value" `Quick test_psnr_value;
        Alcotest.test_case "psnr mapping roundtrip" `Quick test_psnr_mapping_roundtrip;
        Alcotest.test_case "psnr mapping saturates" `Quick test_psnr_mapping_saturates;
        Alcotest.test_case "length mismatch" `Quick test_qos_length_mismatch;
      ] );
    ( "config-space",
      [
        Alcotest.test_case "count" `Quick test_space_count;
        Alcotest.test_case "all" `Quick test_space_all;
        Alcotest.test_case "local sweeps" `Quick test_space_local_sweeps;
        Alcotest.test_case "random bounds" `Quick test_space_random_bounds;
        Alcotest.test_case "random nonzero" `Quick test_space_random_nonzero;
        Alcotest.test_case "phase space count" `Quick test_phase_space_count;
      ] );
    ( "inputs",
      [
        Alcotest.test_case "grid" `Quick test_inputs_grid;
        Alcotest.test_case "grid invalid" `Quick test_inputs_grid_invalid;
        Alcotest.test_case "count" `Quick test_inputs_count;
        Alcotest.test_case "with_default" `Quick test_inputs_with_default;
        Alcotest.test_case "apps cover default" `Quick test_apps_default_in_training;
      ] );
    ( "app-driver",
      [
        Alcotest.test_case "app validation" `Quick test_app_validation;
        Alcotest.test_case "app accessors" `Quick test_app_accessors;
        Alcotest.test_case "exact run" `Quick test_driver_exact_run;
        Alcotest.test_case "exact deterministic" `Quick test_driver_exact_deterministic;
        Alcotest.test_case "exact scores perfectly" `Quick test_driver_exact_schedule_scores_perfectly;
        Alcotest.test_case "approximation saves work" `Quick test_driver_approximation_saves_work;
        Alcotest.test_case "evaluation deterministic" `Quick test_driver_evaluation_deterministic;
        Alcotest.test_case "schedule mismatch" `Quick test_driver_schedule_mismatch;
        Alcotest.test_case "phase work sums" `Quick test_driver_work_per_phase_sums;
        Alcotest.test_case "seed differs by input" `Quick test_driver_seed_differs_by_input;
        Alcotest.test_case "cache hits" `Quick test_driver_cache_hits;
        Alcotest.test_case "cache keyed by input" `Quick test_driver_cache_keyed_by_input;
        prop_evaluation_speedup_work_consistent;
        prop_toy_speedup_monotone;
      ] );
  ]
