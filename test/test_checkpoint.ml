(* Checkpointed simulation: the determinism contract and the cache
   accounting.

   The hard property is bit-identity: a run resumed from an exact
   phase-boundary checkpoint must be indistinguishable — output-derived
   QoS, work units, outer iterations, trace, per-AB and per-phase work —
   from the same run executed from scratch, for every app, schedule and
   phase count.  QCheck drives that per app over random single-phase-active
   schedules (the training sampler's shape, which is exactly what the
   checkpoint path accelerates). *)

module App = Opprox_sim.App
module Env = Opprox_sim.Env
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Rng = Opprox_util.Rng
module Pool = Opprox_util.Pool
module Training = Opprox.Training
open Fixtures

(* Small inputs keep the per-case simulation cost of the QCheck properties
   in the milliseconds while still running tens of outer iterations. *)
let small_input (app : App.t) =
  match app.App.name with
  | "lulesh" -> [| 8.0; 2.0 |]
  | "ffmpeg" -> [| 10.0; 1.0; 4.0; 0.0 |]
  | "bodytrack" -> [| 2.0; 16.0; 3.0 |]
  | "pso" -> [| 6.0; 3.0 |]
  | "comd" -> [| 2.0; 1.35; 60.0 |]
  | "kmeans" -> [| 24.0; 3.0; 2.0 |]
  | _ -> app.App.default_input

let eval_equal (a : Driver.evaluation) (b : Driver.evaluation) =
  a.qos_degradation = b.qos_degradation
  && a.psnr = b.psnr && a.speedup = b.speedup && a.work = b.work
  && a.outer_iters = b.outer_iters && a.exact_iters = b.exact_iters && a.trace = b.trace
  && a.work_per_ab = b.work_per_ab && a.work_per_phase = b.work_per_phase

(* Random (n_phases, phase, levels) case for one app. *)
let gen_case (app : App.t) =
  let open QCheck.Gen in
  let levels_gen =
    flatten_l (Array.to_list (Array.map (fun m -> int_range 0 m) (App.max_levels app)))
  in
  int_range 2 5 >>= fun n_phases ->
  int_range 0 (n_phases - 1) >>= fun phase ->
  levels_gen >>= fun levels -> return (n_phases, phase, Array.of_list levels)

let print_case (n_phases, phase, levels) =
  Printf.sprintf "n_phases=%d phase=%d levels=[%s]" n_phases phase
    (String.concat ";" (Array.to_list (Array.map string_of_int levels)))

let resume_equals_scratch (app : App.t) =
  qcheck_case ~count:8
    (Printf.sprintf "%s: checkpoint-resume = scratch" app.App.name)
    (QCheck.make ~print:print_case (gen_case app))
    (fun (n_phases, phase, levels) ->
      let input = small_input app in
      let sched = Schedule.single_phase_active ~n_phases ~phase levels in
      let scratch = Driver.evaluate app sched input in
      let memo = Driver.memo () in
      let exact = Driver.run_exact ~memo app input in
      let hits = counter "driver.ckpt.hit" and misses = counter "driver.ckpt.miss" in
      (* A caller-supplied baseline bypasses the whole-evaluation memo, so
         the first run saves the boundary checkpoints ... *)
      let cold = Driver.evaluate ~memo ~exact app sched input in
      (* ... and the second resumes from the deepest one. *)
      let warm = Driver.evaluate ~memo ~exact app sched input in
      let reuse_observed =
        (* Any phase > 0 schedule has a non-empty exact prefix, so the
           warm run must have resumed (and the cold one missed). *)
        phase = 0 || (counter "driver.ckpt.hit" > hits && counter "driver.ckpt.miss" > misses)
      in
      (* The production path: resumed, then served whole from the memo. *)
      let memoised = Driver.evaluate ~memo app sched input in
      let served = Driver.evaluate ~memo app sched input in
      eval_equal scratch cold && eval_equal scratch warm && eval_equal scratch memoised
      && eval_equal scratch served && reuse_observed)

let all_apps = Opprox_apps.Registry.all ()

(* ------------------------------------------------------------------ *)

(* Exact schedules driven through the checkpoint path reproduce the golden
   run itself. *)
let test_exact_schedule_via_checkpoints () =
  let app = Opprox_apps.Registry.find "comd" in
  let input = small_input app in
  let memo = Driver.memo () in
  let exact = Driver.run_exact ~memo app input in
  let ev = Driver.evaluate ~memo app (Schedule.uniform ~n_phases:4 [| 0; 0; 0 |]) input in
  check_float "exact schedule degrades nothing" 0.0 ev.Driver.qos_degradation;
  check_int "exact schedule work" exact.Driver.work ev.Driver.work;
  check_int "exact schedule iters" exact.Driver.iters ev.Driver.outer_iters

(* Opaque apps (no iterative form) silently fall back to scratch. *)
let test_opaque_fallback () =
  let memo = Driver.memo () in
  let input = toy.App.default_input in
  let exact = Driver.run_exact ~memo toy input in
  let sched = Schedule.single_phase_active ~n_phases:4 ~phase:2 [| 1; 1 |] in
  let activity () = counter "driver.ckpt.hit" + counter "driver.ckpt.miss" in
  let activity0 = activity () and saves0 = counter "driver.ckpt.save" in
  let ev1 = Driver.evaluate ~memo ~exact toy sched input in
  let ev2 = Driver.evaluate ~memo ~exact toy sched input in
  check_bool "toy runs agree" true (eval_equal ev1 ev2);
  check_int "no checkpoint activity for opaque app" activity0 (activity ());
  check_int "no checkpoints saved for opaque app" saves0 (counter "driver.ckpt.save")

let test_eval_cache_hits () =
  let app = Opprox_apps.Registry.find "kmeans" in
  let input = small_input app in
  let sched = Schedule.single_phase_active ~n_phases:3 ~phase:1 [| 2; 1; 0 |] in
  let memo = Driver.memo () in
  let hits0 = counter "driver.eval.hit" and misses0 = counter "driver.eval.miss" in
  let ev1 = Driver.evaluate ~memo app sched input in
  let ev2 = Driver.evaluate ~memo app sched input in
  check_bool "memoized evaluation identical" true (eval_equal ev1 ev2);
  check_int "one miss" 1 (counter "driver.eval.miss" - misses0);
  check_int "one hit" 1 (counter "driver.eval.hit" - hits0);
  (* Mutating a returned evaluation must not corrupt the memo. *)
  ev2.Driver.work_per_ab.(0) <- -1;
  let ev3 = Driver.evaluate ~memo app sched input in
  check_bool "memo unaffected by caller mutation" true (eval_equal ev1 ev3);
  (* A caller-supplied baseline bypasses the memo. *)
  let exact = Driver.run_exact ~memo app input in
  let before = counter "driver.eval.hit" in
  ignore (Driver.evaluate ~memo ~exact app sched input);
  check_int "?exact bypasses the memo" before (counter "driver.eval.hit")

(* The stable seed: a pure function of the app seed and the input's
   IEEE-754 bits, identical across processes and OCaml versions.  The
   literal below is the contract — if it moves, stored training sets and
   golden outputs silently re-randomize. *)
let test_seed_for_stable () =
  let s = Driver.seed_for toy [| 1.5 |] in
  check_int "seed_for is reproducible" s (Driver.seed_for toy [| 1.5 |]);
  check_bool "seed_for separates inputs" true (s <> Driver.seed_for toy [| 1.0 |]);
  check_bool "seed_for is non-negative" true (s >= 0);
  let expected =
    let h =
      Array.fold_left
        (fun acc x -> Rng.mix64 (Int64.logxor acc (Int64.bits_of_float x)))
        (Rng.mix64 (Int64.of_int toy.App.seed))
        [| 1.5 |]
    in
    Int64.to_int h land max_int
  in
  check_int "seed_for matches SplitMix64 fold" expected s

let test_env_snapshot_roundtrip () =
  let sched = Schedule.single_phase_active ~n_phases:2 ~phase:1 [| 1; 1 |] in
  let env =
    Env.create ~rng:(Rng.create 42) ~sched ~expected_iters:10 ~n_abs:2
  in
  ignore (Env.begin_outer_iter env);
  Env.enter_ab env ~ab:0;
  Env.charge env ~ab:0 7;
  Env.charge_base env 3;
  let snap = Env.snapshot env in
  (* Advancing the live environment must not leak into the snapshot. *)
  ignore (Env.begin_outer_iter env);
  Env.enter_ab env ~ab:1;
  Env.charge env ~ab:1 5;
  let r = Env.resume snap ~sched ~expected_iters:10 in
  check_int "resumed work" 10 (Env.total_work r);
  check_int "resumed iters" 1 (Env.outer_iters r);
  check_int "resumed ab0 work" 7 (Env.work_of_ab r 0);
  check_int "resumed ab1 work" 0 (Env.work_of_ab r 1);
  check_bool "resumed trace" true (Env.trace r = [ 0 ]);
  (* The resumed RNG continues the captured stream. *)
  let r2 = Env.resume snap ~sched ~expected_iters:10 in
  check_bool "resumed rng deterministic" true
    (Rng.bits64 (Env.rng r) = Rng.bits64 (Env.rng r2))

let test_exact_prefix () =
  check_int "exact schedule: full prefix" 3
    (Schedule.exact_prefix (Schedule.uniform ~n_phases:3 [| 0; 0 |]));
  check_int "uniform nonzero: no prefix" 0
    (Schedule.exact_prefix (Schedule.uniform ~n_phases:3 [| 1; 0 |]));
  check_int "single-phase-active p: prefix p" 2
    (Schedule.exact_prefix (Schedule.single_phase_active ~n_phases:4 ~phase:2 [| 0; 1 |]));
  check_int "all-zero active vector counts as exact" 4
    (Schedule.exact_prefix (Schedule.single_phase_active ~n_phases:4 ~phase:2 [| 0; 0 |]))

(* ------------------------------------------------------------------ *)

(* Training.collect's memo: the collected dataset is bit-identical to
   scratch runs of its sampling plan, and each input's exact phase prefix
   is simulated exactly once (one checkpoint miss per input, n_phases - 1
   saves, everything else hits). *)
let test_collect_accounting () =
  let app = Opprox_apps.Registry.find "comd" in
  let inputs = [| [| 2.0; 1.35; 60.0 |]; [| 2.0; 1.5; 80.0 |] |] in
  let n_phases = 4 in
  let config = { Training.default_config with joint_samples_per_phase = 2; inputs = Some inputs } in
  let names = [ "driver.ckpt.hit"; "driver.ckpt.miss"; "driver.ckpt.save"; "driver.eval.hit" ] in
  let pool = Pool.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let before = List.map (fun n -> (n, counter n)) names in
      let t = Training.collect ~config ~pool app ~n_phases in
      let delta n = counter n - List.assoc n before in
      let exacts = Array.map (Driver.run_exact app) inputs in
      Array.iter
        (fun (s : Training.sample) ->
          let exact = exacts.(if s.input = inputs.(0) then 0 else 1) in
          let ev =
            Driver.evaluate ~exact app
              (Schedule.single_phase_active ~n_phases ~phase:s.phase s.levels)
              s.input
          in
          let scratch =
            {
              s with
              speedup = ev.speedup;
              qos = ev.qos_degradation;
              iters_ratio = float_of_int ev.outer_iters /. float_of_int ev.exact_iters;
              trace_class = Opprox.Cfmodel.class_of_trace t.Training.classes ev.trace;
            }
          in
          if scratch <> s then
            Alcotest.failf "sample (phase %d) differs from its scratch run" s.phase)
        t.Training.samples;
      let n_inputs = Array.length inputs in
      check_int "no schedule repeats in this plan" 0 (delta "driver.eval.hit");
      check_int "one scratch prefix per (input, n_phases)" n_inputs (delta "driver.ckpt.miss");
      check_int "one checkpoint per interior boundary" (n_inputs * (n_phases - 1))
        (delta "driver.ckpt.save");
      (* Every phase>=1 run except the first per input resumes: the
         plan has (local sweeps + joint samples) runs per phase. *)
      let runs_per_phase =
        List.length (Opprox_sim.Config_space.local_sweeps app.App.abs)
        + config.Training.joint_samples_per_phase
      in
      let applicable = n_inputs * (n_phases - 1) * runs_per_phase in
      check_int "all other prefix runs resume from a checkpoint" (applicable - n_inputs)
        (delta "driver.ckpt.hit"))

(* A stage drops its memo when it returns: collecting the kmeans fixture
   app (2 phases, 8 joint samples, as test/gen_fixtures.ml trains it)
   leaves live only what the returned dataset reaches, plus [slack] words
   for one-time initialisation.  In the full suite, the process-global
   memo this replaced left 68,115 words live after this collection,
   against 4,815 reachable from the dataset; with the memo scoped to the
   collection, 4,668 stay live. *)
let test_collect_drops_memo () =
  let app = Opprox_apps.Registry.find "kmeans" in
  let config = { Training.default_config with joint_samples_per_phase = 8 } in
  let pool = Pool.create ~jobs:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let live () =
        Gc.compact ();
        (Gc.stat ()).Gc.live_words
      in
      let before = live () in
      let t = Training.collect ~config ~pool app ~n_phases:2 in
      let grown = live () - before in
      let reachable = Obj.reachable_words (Obj.repr t) in
      let slack = 16_384 in
      if grown > reachable + slack then
        Alcotest.failf "collect left %d words live; its dataset reaches %d (slack %d)" grown
          reachable slack)

let suite =
  [
    ( "checkpoint",
      List.map resume_equals_scratch all_apps
      @ [
          Alcotest.test_case "exact schedule via checkpoints" `Quick
            test_exact_schedule_via_checkpoints;
          Alcotest.test_case "opaque app falls back" `Quick test_opaque_fallback;
          Alcotest.test_case "evaluation memo" `Quick test_eval_cache_hits;
          Alcotest.test_case "seed_for stability" `Quick test_seed_for_stable;
          Alcotest.test_case "env snapshot roundtrip" `Quick test_env_snapshot_roundtrip;
          Alcotest.test_case "schedule exact_prefix" `Quick test_exact_prefix;
          Alcotest.test_case "collect accounting" `Slow test_collect_accounting;
          Alcotest.test_case "collect drops its memo" `Quick test_collect_drops_memo;
        ] );
  ]
