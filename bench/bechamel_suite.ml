(* Bechamel micro-benchmarks: one Test.make per reproduced table/figure,
   timing a representative unit of the work that experiment performs
   (a simulator run, a model fit, an optimizer solve, ...). *)

open Bechamel
open Toolkit
module Schedule = Opprox_sim.Schedule
module Driver = Opprox_sim.Driver
module App = Opprox_sim.App
module Rng = Opprox_util.Rng
module Pool = Opprox_util.Pool
module Training = Opprox.Training
module Oracle = Opprox.Oracle

let app name = Opprox_apps.Registry.find name

let run_uniform name levels () =
  let a = app name in
  ignore (Driver.evaluate a (Schedule.uniform ~n_phases:1 levels) a.App.default_input)

(* Model-fitting payload for the fig12/13 benchmarks. *)
let polyreg_payload =
  lazy
    (let rng = Rng.create 3 in
     let rows = Array.init 120 (fun i -> [| float_of_int (i mod 12); float_of_int (i / 12) |]) in
     let ys = Array.map (fun r -> (r.(0) *. r.(1)) +. (2.0 *. r.(0)) +. 1.0) rows in
     (rng, rows, ys))

let fit_polyreg () =
  let rng, rows, ys = Lazy.force polyreg_payload in
  ignore (Opprox_ml.Polyreg.fit ~rng:(Rng.copy rng) rows ys)

let mic_payload =
  lazy
    (let rng = Rng.create 4 in
     let xs = Array.init 300 (fun _ -> Rng.uniform rng) in
     let ys = Array.map (fun x -> sin (10.0 *. x)) xs in
     (xs, ys))

let compute_mic () =
  let xs, ys = Lazy.force mic_payload in
  ignore (Opprox_ml.Mic.compute xs ys)

(* A trained pipeline on the toy-scale PSO app for the optimizer benchmark
   (training once, outside the measured region). *)
let optimizer_payload =
  lazy
    (let a = app "comd" in
     let config =
       {
         Opprox.default_train_config with
         n_phases = Some 2;
         training = { Opprox.Training.default_config with joint_samples_per_phase = 4 };
       }
     in
     Opprox.train ~config a)

let run_optimizer () =
  let tr = Lazy.force optimizer_payload in
  ignore (Opprox.optimize tr ~budget:10.0)

(* Naive vs hoisted prediction over one full config-space enumeration —
   the inner loop of Optimizer.optimize.  The naive arm re-classifies the
   input and re-allocates every feature vector per query; the hoisted arm
   compiles the pipeline once (Models.predictor) and reuses scratch. *)
let predict_configs = lazy (Opprox_sim.Config_space.all (app "comd").App.abs)

let predict_naive () =
  let tr = Lazy.force optimizer_payload in
  let models = tr.Opprox.models in
  let input = (app "comd").App.default_input in
  let n_phases = Opprox.Models.n_phases models in
  List.iter
    (fun levels ->
      for phase = 0 to n_phases - 1 do
        ignore (Opprox.Models.predict models ~input ~phase ~levels)
      done)
    (Lazy.force predict_configs)

let predict_hoisted () =
  let tr = Lazy.force optimizer_payload in
  let models = tr.Opprox.models in
  let input = (app "comd").App.default_input in
  let n_phases = Opprox.Models.n_phases models in
  let predict = Opprox.Models.predictor models ~input in
  List.iter
    (fun levels ->
      for phase = 0 to n_phases - 1 do
        ignore (predict ~phase ~levels)
      done)
    (Lazy.force predict_configs)

let predict_tests =
  [
    Test.make ~name:"opt:predict-naive" (Staged.stage predict_naive);
    Test.make ~name:"opt:predict-hoisted" (Staged.stage predict_hoisted);
  ]

let dtree_payload =
  lazy
    (let rng = Rng.create 5 in
     let rows = Array.init 200 (fun _ -> [| Rng.uniform rng; Rng.uniform rng |]) in
     let labels = Array.map (fun r -> if r.(0) +. r.(1) > 1.0 then 1 else 0) rows in
     (rows, labels))

let fit_dtree () =
  let rows, labels = Lazy.force dtree_payload in
  ignore (Opprox_ml.Dtree.fit rows labels)

(* ---------------------------------------------------------- pool group *)

(* Sequential vs 1/2/4-domain Training.collect and Oracle.measured_space.
   The j1 pool exercises the sequential fast path (no domains, no locks);
   j2/j4 measure real fan-out on multi-core hosts and scheduling overhead
   on single-core ones.  Estimates land in BENCH_pool.json so later PRs
   can track the trajectory. *)
let pool_jobs = [ 1; 2; 4 ]
let pool_table = lazy (List.map (fun j -> (j, Pool.create ~jobs:j ())) pool_jobs)
let pool j = List.assoc j (Lazy.force pool_table)

(* Four comd inputs so the hoisted per-input parallelism has as many
   independent groups as the widest pool has domains; the shape (local
   sweeps + joint samples over an input-major task list) is the
   production one. *)
let pool_training_config =
  lazy
    {
      Training.default_config with
      joint_samples_per_phase = 2;
      inputs = Some (Array.sub (app "comd").App.training_inputs 0 4);
    }

let collect_with_pool j () =
  (* Each collection simulates in a fresh memo of its own, so every
     iteration measures real simulation fan-out, not lookups. *)
  ignore
    (Training.collect ~config:(Lazy.force pool_training_config) ~pool:(pool j) (app "comd")
       ~n_phases:2)

let oracle_with_pool j () =
  (* Clear the measured-space memo so every iteration measures the sweep,
     not a lookup.  ffmpeg has the cheapest full enumeration (216
     configs). *)
  Oracle.clear_cache ();
  let a = app "ffmpeg" in
  ignore (Oracle.measured_space ~pool:(pool j) a ~input:a.App.default_input)

let pool_tests =
  List.concat_map
    (fun j ->
      [
        Test.make
          ~name:(Printf.sprintf "pool:training-collect-j%d" j)
          (Staged.stage (collect_with_pool j));
        Test.make
          ~name:(Printf.sprintf "pool:oracle-space-j%d" j)
          (Staged.stage (oracle_with_pool j));
      ])
    pool_jobs

(* ----------------------------------------------------- checkpoint group *)

(* Scratch vs memoised simulation of two offline stages' runs at one
   domain: the schedules one Training.collect and one Phases.probe
   evaluate, in their order.  The scratch arms pass no memo (every run,
   its exact baseline included, starts from scratch); the memo arms pass
   a fresh memo per iteration, as the stages do, so exact phase prefixes
   are restored from checkpoints.  test_checkpoint asserts the two paths
   bit-identical, so the speedup is free of semantic drift. *)
let run_all ?memo (a : App.t) runs =
  Array.iter (fun (sched, input) -> ignore (Driver.evaluate ?memo a sched input)) runs

let ckpt_training_config =
  lazy
    {
      Training.default_config with
      joint_samples_per_phase = 2;
      inputs = Some (Array.sub (app "comd").App.training_inputs 0 2);
    }

(* The runs of a 4-phase collection, read back from its dataset. *)
let ckpt_collect_runs =
  lazy
    (let t =
       Training.collect ~config:(Lazy.force ckpt_training_config) ~pool:(pool 1) (app "comd")
         ~n_phases:4
     in
     Array.map
       (fun (s : Training.sample) ->
         (Schedule.single_phase_active ~n_phases:4 ~phase:s.phase s.levels, s.input))
       t.Training.samples)

(* The runs of Phases.probe ~samples_per_phase:4 ~n_phases:4 at its
   default seed: the same four AL vectors active in each phase in turn. *)
let ckpt_probe_runs =
  lazy
    (let a = app "comd" in
     let rng = Rng.create 0x9A5E in
     let configs =
       Array.init 4 (fun _ -> Opprox_sim.Config_space.random_nonzero rng a.App.abs)
     in
     Array.concat
       (List.init 4 (fun phase ->
            Array.map
              (fun levels ->
                (Schedule.single_phase_active ~n_phases:4 ~phase levels, a.App.default_input))
              configs)))

let ckpt_tests =
  let arm name runs memoised =
    Test.make ~name
      (Staged.stage (fun () ->
           let memo = if memoised then Some (Driver.memo ()) else None in
           run_all ?memo (app "comd") (Lazy.force runs)))
  in
  [
    arm "ckpt:collect-scratch-j1" ckpt_collect_runs false;
    arm "ckpt:collect-memo-j1" ckpt_collect_runs true;
    arm "ckpt:phase-probe-scratch" ckpt_probe_runs false;
    arm "ckpt:phase-probe-memo" ckpt_probe_runs true;
  ]

let ckpt_snapshot_file = "BENCH_checkpoint.json"

let write_ckpt_snapshot entries =
  let est name = Option.join (List.assoc_opt name entries) in
  let speedup scratch memo =
    match (est scratch, est memo) with
    | Some a, Some b when b > 0.0 -> Some (a /. b)
    | _ -> None
  in
  let oc = open_out ckpt_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"jobs\": 1,\n";
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, est) ->
      let value = match est with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"speedups\": {\n";
  let pairs =
    [
      ("training-collect", "ckpt:collect-scratch-j1", "ckpt:collect-memo-j1");
      ("phase-probe", "ckpt:phase-probe-scratch", "ckpt:phase-probe-memo");
      ("optimizer-predict", "opt:predict-naive", "opt:predict-hoisted");
    ]
  in
  let np = List.length pairs in
  List.iteri
    (fun i (label, scratch, memo) ->
      let value =
        match speedup scratch memo with Some s -> Printf.sprintf "%.2f" s | None -> "null"
      in
      Printf.fprintf oc "    %S: %s%s\n" label value (if i = np - 1 then "" else ","))
    pairs;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

(* ------------------------------------------------------------ obs group *)

(* Overhead of the observability layer on its own (counter increment,
   histogram observation, disabled span) and on a production hot path
   (memoized Driver.evaluate, whose memo hit bumps one counter).  The
   primitive arms run 1000 operations per measured call so the estimate
   is well above clock resolution; BENCH_obs.json stores the per-op
   figures.  The disabled arms toggle the global flag inside the call —
   two atomic stores, noise at this batch size. *)
module Metrics = Opprox_obs.Metrics
module Obs_trace = Opprox_obs.Trace

let obs_counter = Metrics.counter "bench.obs.counter"
let obs_hist = Metrics.histogram "bench.obs.hist"
let obs_batch = 1000

let counter_batch () =
  for _ = 1 to obs_batch do
    Metrics.incr obs_counter
  done

let with_metrics_off f =
  Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled true) f

let hist_batch () =
  for i = 1 to obs_batch do
    Metrics.observe obs_hist (float_of_int i)
  done

let span_batch () =
  for _ = 1 to obs_batch do
    Obs_trace.with_span "bench" (fun () -> ())
  done

let span_batch_enabled () =
  Obs_trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs_trace.set_enabled false;
      Obs_trace.clear ())
    span_batch

(* A memo that lives for the whole suite, for the arms that time memo
   hits. *)
let memo = Driver.memo ()

let eval_memo_hit () =
  (* Steady state: the schedule/input pair is already in the eval memo,
     so each call is a lookup plus one [driver.eval.hit] increment. *)
  let a = app "pso" in
  ignore (Driver.evaluate ~memo a (Schedule.uniform ~n_phases:1 [| 1; 1; 1 |]) a.App.default_input)

let obs_tests =
  [
    Test.make ~name:"obs:counter-incr-on-x1000" (Staged.stage counter_batch);
    Test.make ~name:"obs:counter-incr-off-x1000"
      (Staged.stage (fun () -> with_metrics_off counter_batch));
    Test.make ~name:"obs:hist-observe-on-x1000" (Staged.stage hist_batch);
    Test.make ~name:"obs:hist-observe-off-x1000"
      (Staged.stage (fun () -> with_metrics_off hist_batch));
    Test.make ~name:"obs:span-off-x1000" (Staged.stage span_batch);
    Test.make ~name:"obs:span-on-x1000" (Staged.stage span_batch_enabled);
    Test.make ~name:"obs:eval-memo-metrics-on" (Staged.stage eval_memo_hit);
    Test.make ~name:"obs:eval-memo-metrics-off"
      (Staged.stage (fun () -> with_metrics_off eval_memo_hit));
  ]

let obs_snapshot_file = "BENCH_obs.json"

let write_obs_snapshot entries =
  let est name = Option.join (List.assoc_opt name entries) in
  let per_op name = Option.map (fun ns -> ns /. float_of_int obs_batch) (est name) in
  let num = function Some v -> Printf.sprintf "%.2f" v | None -> "null" in
  let oc = open_out obs_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"ops_per_run\": %d,\n" obs_batch;
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, est) ->
      let value = match est with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"ns_per_op\": {\n";
  Printf.fprintf oc "    \"counter_incr_enabled\": %s,\n" (num (per_op "obs:counter-incr-on-x1000"));
  Printf.fprintf oc "    \"counter_incr_disabled\": %s,\n"
    (num (per_op "obs:counter-incr-off-x1000"));
  Printf.fprintf oc "    \"hist_observe_enabled\": %s,\n" (num (per_op "obs:hist-observe-on-x1000"));
  Printf.fprintf oc "    \"hist_observe_disabled\": %s,\n"
    (num (per_op "obs:hist-observe-off-x1000"));
  Printf.fprintf oc "    \"span_disabled\": %s,\n" (num (per_op "obs:span-off-x1000"));
  Printf.fprintf oc "    \"span_enabled\": %s\n" (num (per_op "obs:span-on-x1000"));
  Printf.fprintf oc "  },\n";
  let ratio =
    match (est "obs:eval-memo-metrics-on", est "obs:eval-memo-metrics-off") with
    | Some on, Some off when off > 0.0 -> Printf.sprintf "%.3f" (on /. off)
    | _ -> "null"
  in
  Printf.fprintf oc "  \"eval_memo_on_over_off\": %s\n}\n" ratio;
  close_out oc

(* ----------------------------------------------------------- conc group *)

(* Cost of the concurrency checker's instrumentation on the lock
   primitive itself.  The contract the whole design rests on: a Dmutex
   with checking off is one atomic load over a bare [Mutex.t], so the
   checker can stay compiled into every lock in the runtime.  The
   checked arms price what [OPPROX_RACECHECK=1] costs (held-stack and
   order-graph bookkeeping) — diagnostic-run overhead, not production.
   1000 lock/unlock pairs per measured call keep the per-op estimate
   well above clock resolution. *)
module Conc = Opprox_util.Conc
module Dmutex = Opprox_util.Dmutex
module Guarded = Opprox_util.Guarded

let conc_batch = 1000
let conc_mutex = Mutex.create ()
let conc_dmutex = Dmutex.create ~name:"bench.conc.lock" ()
let conc_guard = Dmutex.create ~name:"bench.conc.guard" ()
let conc_cell = Guarded.create ~name:"bench.conc.cell" ~locks:[ conc_guard ] 0

let bare_mutex_batch () =
  for _ = 1 to conc_batch do
    Mutex.lock conc_mutex;
    Mutex.unlock conc_mutex
  done

let dmutex_batch () =
  for _ = 1 to conc_batch do
    Dmutex.lock conc_dmutex;
    Dmutex.unlock conc_dmutex
  done

let with_checker_on f =
  Conc.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Conc.set_enabled false;
      Conc.reset ())
    f

let guarded_batch () =
  for _ = 1 to conc_batch do
    ignore (Guarded.get conc_cell : int)
  done

(* The checked Guarded arm holds the guard lock so it measures the
   lockset-membership walk, not a (deduplicated) CONC002 report. *)
let guarded_on_batch () =
  with_checker_on (fun () ->
      Dmutex.lock conc_guard;
      Fun.protect ~finally:(fun () -> Dmutex.unlock conc_guard) guarded_batch)

let conc_tests =
  [
    Test.make ~name:"conc:bare-mutex-x1000" (Staged.stage bare_mutex_batch);
    Test.make ~name:"conc:dmutex-off-x1000" (Staged.stage dmutex_batch);
    Test.make ~name:"conc:dmutex-on-x1000"
      (Staged.stage (fun () -> with_checker_on dmutex_batch));
    Test.make ~name:"conc:guarded-off-x1000" (Staged.stage guarded_batch);
    Test.make ~name:"conc:guarded-on-x1000" (Staged.stage guarded_on_batch);
  ]

let conc_snapshot_file = "BENCH_conc.json"

(* Disabled-checker lock overhead must be within noise of a bare mutex.
   These are ~30 ns operations even batched x1000, and repeated quiet
   runs on this host draw the ratio anywhere in 0.88-1.22; 1.35 gives
   one-sigma headroom over that jitter while still convicting a real
   slow path (an allocation or a second mutex op roughly doubles the
   ratio). *)
let conc_overhead_limit = 1.35

let write_conc_snapshot entries =
  let est name = Option.join (List.assoc_opt name entries) in
  let per_op name = Option.map (fun ns -> ns /. float_of_int conc_batch) (est name) in
  let num = function Some v -> Printf.sprintf "%.2f" v | None -> "null" in
  let ratio =
    match (est "conc:dmutex-off-x1000", est "conc:bare-mutex-x1000") with
    | Some d, Some b when b > 0.0 -> Some (d /. b)
    | _ -> None
  in
  let passed = match ratio with Some r -> r <= conc_overhead_limit | None -> false in
  let oc = open_out conc_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"ops_per_run\": %d,\n" conc_batch;
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, est) ->
      let value = match est with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"ns_per_op\": {\n";
  Printf.fprintf oc "    \"bare_mutex_lock_unlock\": %s,\n" (num (per_op "conc:bare-mutex-x1000"));
  Printf.fprintf oc "    \"dmutex_checker_off\": %s,\n" (num (per_op "conc:dmutex-off-x1000"));
  Printf.fprintf oc "    \"dmutex_checker_on\": %s,\n" (num (per_op "conc:dmutex-on-x1000"));
  Printf.fprintf oc "    \"guarded_get_checker_off\": %s,\n" (num (per_op "conc:guarded-off-x1000"));
  Printf.fprintf oc "    \"guarded_get_checker_on\": %s\n" (num (per_op "conc:guarded-on-x1000"));
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"gate\": {\n";
  Printf.fprintf oc "    \"dmutex_off_over_bare_mutex\": %s,\n" (num ratio);
  Printf.fprintf oc "    \"max_ratio\": %.2f,\n" conc_overhead_limit;
  Printf.fprintf oc "    \"passed\": %b\n" passed;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  (match (per_op "conc:bare-mutex-x1000", per_op "conc:dmutex-off-x1000", ratio) with
  | Some b, Some d, Some r ->
      Printf.printf
        "  conc gate: bare mutex %.2f ns/op, dmutex-off %.2f ns/op (ratio %.2f, limit %.2f)\n%!"
        b d r conc_overhead_limit
  | _ -> Printf.printf "  conc gate: missing estimates\n%!");
  if not passed then Printf.printf "  CONC GATE FAILED (see %s)\n%!" conc_snapshot_file;
  passed

(* ---------------------------------------------------------- serve group *)

(* The daemon's request path through the in-process loopback transport,
   which runs the full admission / validation / cache / solve pipeline
   plus both wire codecs — everything but the socket itself.  The hit
   arm is the steady state the cache exists for; the cold arm bypasses
   the lookup ([no_cache]) and pays an optimizer solve every call; the
   reject arm prices boundary validation.  BENCH_serve.json records the
   estimates and the cold/hit ratio — the cache's whole value
   proposition as one number. *)
module Serve_protocol = Opprox_serve.Protocol
module Serve_server = Opprox_serve.Server
module Serve_client = Opprox_serve.Client

let serve_payload =
  lazy
    (let server = Serve_server.create [ Lazy.force optimizer_payload ] in
     let client = Serve_client.loopback server in
     (server, client))

let serve_hit_request = lazy (Serve_protocol.request ~app:"comd" ~budget:10.0 ())

let serve_cold_request =
  lazy (Serve_protocol.request ~no_cache:true ~app:"comd" ~budget:10.0 ())

let serve_reject_request = lazy (Serve_protocol.request ~app:"comd" ~budget:0.0 ())

let serve_roundtrip req () =
  let _, client = Lazy.force serve_payload in
  ignore (Serve_client.request client (Lazy.force req))

let serve_fingerprint () =
  ignore
    (Opprox_corpus.Key.fingerprint ~app:"comd"
       ~input:[| 1.0; 2.0; 3.0 |]
       ~budget:10.0 ~models_hash:"0123456789abcdef0123456789abcdef")

let serve_tests =
  [
    Test.make ~name:"serve:cache-hit" (Staged.stage (serve_roundtrip serve_hit_request));
    Test.make ~name:"serve:cold-solve" (Staged.stage (serve_roundtrip serve_cold_request));
    Test.make ~name:"serve:validation-reject"
      (Staged.stage (serve_roundtrip serve_reject_request));
    Test.make ~name:"serve:fingerprint" (Staged.stage serve_fingerprint);
  ]

let serve_snapshot_file = "BENCH_serve.json"

let write_serve_snapshot entries =
  let est name = Option.join (List.assoc_opt name entries) in
  let oc = open_out serve_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"transport\": \"loopback (codecs + request path, no socket)\",\n";
  Printf.fprintf oc "  \"host_recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, est) ->
      let value = match est with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  let ratio =
    match (est "serve:cold-solve", est "serve:cache-hit") with
    | Some cold, Some hit when hit > 0.0 -> Printf.sprintf "%.1f" (cold /. hit)
    | _ -> "null"
  in
  Printf.fprintf oc "  \"cold_over_hit\": %s\n}\n" ratio;
  close_out oc

(* --------------------------------------------------------- corpus group *)

(* The lookup-first serving ladder, measured through [Server.handle]
   directly (no wire codecs, whose encode/decode cost would swamp the
   differences between lookup tiers): a precomputed-corpus exact hit off
   the mmap, the nearest-neighbour fallback (including its per-request
   plan audit), a sharded-LRU hit, and a cold solve.  The raw arms price
   the corpus data structure alone (binary search + record decode).
   BENCH_corpus.json commits the estimates and their gate. *)
module Corpus = Opprox_corpus.Corpus
module Corpus_key = Opprox_corpus.Key
module Precompute = Opprox_corpus.Precompute

let corpus_budgets = [| 5.0; 10.0; 20.0 |]

let corpus_payload =
  lazy
    (let tr = Lazy.force optimizer_payload in
     let path = Filename.temp_file "opprox_bench_corpus" ".opx" in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     ignore (Precompute.run ~budgets:corpus_budgets ~out:path [ tr ]);
     let corpus_server =
       Serve_server.create
         ~config:{ Serve_server.default_config with Serve_server.corpus_path = Some path }
         [ tr ]
     in
     let lru_server = Serve_server.create [ tr ] in
     (path, corpus_server, lru_server))

let corpus_exact_req = lazy (Serve_protocol.request ~app:"comd" ~budget:10.0 ())
let corpus_nn_req = lazy (Serve_protocol.request ~app:"comd" ~budget:12.5 ())

let corpus_cold_req =
  lazy (Serve_protocol.request ~no_cache:true ~app:"comd" ~budget:10.0 ())

let corpus_exact_hit () =
  let _, cs, _ = Lazy.force corpus_payload in
  ignore (Serve_server.handle cs (Lazy.force corpus_exact_req))

let corpus_nn_hit () =
  let _, cs, _ = Lazy.force corpus_payload in
  ignore (Serve_server.handle cs (Lazy.force corpus_nn_req))

let corpus_lru_hit () =
  let _, _, ls = Lazy.force corpus_payload in
  ignore (Serve_server.handle ls (Lazy.force corpus_exact_req))

let corpus_cold_solve () =
  let _, _, ls = Lazy.force corpus_payload in
  ignore (Serve_server.handle ls (Lazy.force corpus_cold_req))

let corpus_raw =
  lazy
    (let path, _, _ = Lazy.force corpus_payload in
     let tr = Lazy.force optimizer_payload in
     let c = Corpus.load path in
     let input = (app "comd").App.default_input in
     let group =
       Corpus_key.group ~app:"comd" ~input ~models_hash:(Precompute.models_hash tr)
     in
     (c, group, Corpus_key.of_group ~group ~budget:10.0))

let corpus_raw_find () =
  let c, _, fp = Lazy.force corpus_raw in
  ignore (Corpus.find c fp)

let corpus_raw_find_nn () =
  let c, group, _ = Lazy.force corpus_raw in
  ignore (Corpus.find_nn c ~group ~budget:12.5)

let corpus_tests =
  [
    Test.make ~name:"corpus:exact-hit" (Staged.stage corpus_exact_hit);
    Test.make ~name:"corpus:nn-hit" (Staged.stage corpus_nn_hit);
    Test.make ~name:"corpus:lru-hit" (Staged.stage corpus_lru_hit);
    Test.make ~name:"corpus:cold-solve" (Staged.stage corpus_cold_solve);
    Test.make ~name:"corpus:raw-find" (Staged.stage corpus_raw_find);
    Test.make ~name:"corpus:raw-find-nn" (Staged.stage corpus_raw_find_nn);
  ]

let corpus_snapshot_file = "BENCH_corpus.json"
let corpus_p50_budget_ms = 0.2

(* The corpus hit and the warm LRU probe are both ~10 us dominated by
   [Server.handle] overhead; their gap is a few microseconds either way,
   run to run.  A strict corpus < lru comparison therefore flaps (and
   flipped sign when the Dmutex instrumentation rework shaved the LRU
   arm).  The corpus's value is avoiding the ~400x cold solve and
   surviving restarts, not out-probing a warm hash table — so the gate
   only requires the corpus hit to stay in the LRU hit's league. *)
let corpus_vs_lru_limit = 1.25

let write_corpus_snapshot entries =
  let est name = Option.join (List.assoc_opt name entries) in
  let ms = Option.map (fun ns -> ns /. 1e6) in
  let exact_ms = ms (est "corpus:exact-hit") in
  let nn_ms = ms (est "corpus:nn-hit") in
  let lru_ms = ms (est "corpus:lru-hit") in
  let lookup_faster =
    match (exact_ms, lru_ms) with
    | Some c, Some l -> c <= l *. corpus_vs_lru_limit
    | _ -> false
  in
  let under_budget =
    match (exact_ms, nn_ms) with
    | Some c, Some n -> c <= corpus_p50_budget_ms && n <= corpus_p50_budget_ms
    | _ -> false
  in
  let passed = lookup_faster && under_budget in
  let oc = open_out corpus_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"transport\": \"Server.handle (request path, no codecs)\",\n";
  Printf.fprintf oc "  \"host_recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, est) ->
      let value = match est with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"gate\": {\n";
  Printf.fprintf oc "    \"corpus_hit_within_ratio_of_lru_hit\": %.2f,\n" corpus_vs_lru_limit;
  Printf.fprintf oc "    \"corpus_hit_within_ratio\": %b,\n" lookup_faster;
  Printf.fprintf oc "    \"corpus_and_nn_under_ms\": %.1f,\n" corpus_p50_budget_ms;
  Printf.fprintf oc "    \"corpus_and_nn_under_budget\": %b,\n" under_budget;
  Printf.fprintf oc "    \"passed\": %b\n" passed;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  (match (exact_ms, nn_ms, lru_ms) with
  | Some c, Some nn, Some l ->
      Printf.printf
        "  corpus gate: exact %.4f ms, nn %.4f ms, lru %.4f ms (budget %.1f ms)\n%!" c nn l
        corpus_p50_budget_ms
  | _ -> Printf.printf "  corpus gate: missing estimates\n%!");
  if not passed then Printf.printf "  CORPUS GATE FAILED (see %s)\n%!" corpus_snapshot_file;
  passed

(* ------------------------------------------------------------- controller *)

(* Perturbed-input harness for the online controller: train bodytrack at
   a small problem scale, solve one static plan for the training-default
   input, then execute that plan on a suite of inputs drawn further and
   further off the training distribution.  The static runs show how the
   open-loop plan's budget guarantee erodes with input drift; the
   controlled runs must strictly reduce the violation count by
   re-solving the remaining phases at the boundaries where the drift
   shows up — while reusing the live run's state (steps equal to outer
   iterations, no re-simulation). *)
module Controller = Opprox.Controller

let control_budget = 10.0

(* input.(0) scaled by (1 + f): the same off-distribution axis the
   controller tests pin. *)
let control_perturbations = [ 0.0; 0.5; 1.0; 1.5; 2.0; 2.5 ]

let control_payload =
  lazy
    (let a =
       App.with_training_inputs (app "bodytrack")
         ~default_input:[| 2.0; 16.0; 3.0 |]
         ~training_inputs:[| [| 2.0; 16.0; 3.0 |]; [| 3.0; 24.0; 4.0 |] |]
     in
     let config =
       {
         Opprox.default_train_config with
         n_phases = Some 3;
         training = { Opprox.Training.default_config with joint_samples_per_phase = 4 };
       }
     in
     let tr = Opprox.train ~config a in
     let plan = Opprox.optimize tr ~budget:control_budget in
     (tr, plan))

let control_input f =
  let tr, _ = Lazy.force control_payload in
  let input = Array.copy tr.Opprox.app.App.default_input in
  input.(0) <- input.(0) *. (1.0 +. f);
  input

let control_static_run () =
  let tr, plan = Lazy.force control_payload in
  ignore (Opprox.apply ~input:(control_input 1.5) tr plan)

let control_controlled_run () =
  let tr, plan = Lazy.force control_payload in
  ignore (Opprox.run_controlled ~input:(control_input 1.5) tr plan)

(* The marginal cost of one boundary re-solve: the reused solver closure
   pricing a remaining-phase suffix, the thing a replan adds on top of
   the run itself. *)
let control_solver =
  lazy
    (let tr, _ = Lazy.force control_payload in
     Opprox.Optimizer.solver ~models:tr.Opprox.models ~roi:tr.Opprox.roi
       ~input:(control_input 1.5) ())

let control_suffix_solve () =
  ignore ((Lazy.force control_solver) ~first_phase:1 ~budget:6.0 ())

let control_tests =
  [
    Test.make ~name:"control:static-run" (Staged.stage control_static_run);
    Test.make ~name:"control:controlled-run" (Staged.stage control_controlled_run);
    Test.make ~name:"control:suffix-solve" (Staged.stage control_suffix_solve);
  ]

type control_row = {
  cr_perturb : float;
  cr_static_qos : float;
  cr_static_violates : bool;
  cr_ctrl_qos : float;
  cr_ctrl_violates : bool;
  cr_ctrl_speedup : float;
  cr_replans : int;
  cr_steps_consistent : bool;
}

let control_suite () =
  let tr, plan = Lazy.force control_payload in
  List.map
    (fun f ->
      let input = control_input f in
      let static = Opprox.apply ~input tr plan in
      let out = Opprox.run_controlled ~input tr plan in
      let ev = out.Controller.evaluation in
      {
        cr_perturb = f;
        cr_static_qos = static.Driver.qos_degradation;
        cr_static_violates = static.Driver.qos_degradation > control_budget;
        cr_ctrl_qos = ev.Driver.qos_degradation;
        cr_ctrl_violates = not out.Controller.within_budget;
        cr_ctrl_speedup = ev.Driver.speedup;
        cr_replans = out.Controller.replans;
        cr_steps_consistent = out.Controller.steps = ev.Driver.outer_iters;
      })
    control_perturbations

let control_snapshot_file = "BENCH_control.json"

let write_control_snapshot entries rows =
  let est name = Option.join (List.assoc_opt name entries) in
  let static_violations =
    List.length (List.filter (fun r -> r.cr_static_violates) rows)
  in
  let ctrl_violations = List.length (List.filter (fun r -> r.cr_ctrl_violates) rows) in
  let replans = List.fold_left (fun acc r -> acc + r.cr_replans) 0 rows in
  let steps_ok = List.for_all (fun r -> r.cr_steps_consistent) rows in
  (* The replan must cost less than starting over: one suffix solve
     under the controlled run's own roof, and the controlled run itself
     within 2x of the static run it replaces (it adds one reference
     profile evaluation and the boundary checks). *)
  let replan_bounded =
    match (est "control:suffix-solve", est "control:controlled-run") with
    | Some solve, Some run -> solve < run
    | _ -> false
  in
  let passed =
    ctrl_violations < static_violations && static_violations > 0 && replans > 0 && steps_ok
    && replan_bounded
  in
  let oc = open_out control_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"suite\": \"bodytrack small-scale, 3 phases, budget %.1f%%, input[0] scaled by \
     (1+f)\",\n"
    control_budget;
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, e) ->
      let value = match e with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"perturbed_suite\": [\n";
  let m = List.length rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    { \"perturb\": %.1f, \"static_qos\": %.2f, \"static_violates\": %b, \
         \"controlled_qos\": %.2f, \"controlled_violates\": %b, \"controlled_speedup\": \
         %.3f, \"replans\": %d }%s\n"
        r.cr_perturb r.cr_static_qos r.cr_static_violates r.cr_ctrl_qos r.cr_ctrl_violates
        r.cr_ctrl_speedup r.cr_replans
        (if i = m - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"gate\": {\n";
  Printf.fprintf oc "    \"static_violations\": %d,\n" static_violations;
  Printf.fprintf oc "    \"controlled_violations\": %d,\n" ctrl_violations;
  Printf.fprintf oc "    \"controlled_strictly_fewer_violations\": %b,\n"
    (ctrl_violations < static_violations);
  Printf.fprintf oc "    \"replans_fired\": %d,\n" replans;
  Printf.fprintf oc "    \"steps_equal_outer_iters\": %b,\n" steps_ok;
  Printf.fprintf oc "    \"suffix_solve_cheaper_than_run\": %b,\n" replan_bounded;
  Printf.fprintf oc "    \"passed\": %b\n" passed;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf
    "  control gate: %d/%d static violations vs %d/%d controlled, %d replan(s)\n%!"
    static_violations m ctrl_violations m replans;
  if not passed then Printf.printf "  CONTROL GATE FAILED (see %s)\n%!" control_snapshot_file;
  passed

(* --------------------------------------------------------- search group *)

(* Stochastic schedule search over the transformer's 9^13 joint space.
   Enumeration is never attempted at this scale — the gate records it as
   infeasible against Lint_app.enumeration_bound instead of timing it —
   so the measured arms price the layers the search is built from (the
   model-priced cost, one MCMC chain, the deterministic polish, the
   multi-chain solve), and the gate holds the end-to-end solve to a
   wall-clock bound, bit-identical results across seeds and pool widths,
   and a budget-feasible, lint-clean plan. *)

module Search = Opprox.Search
module Scost = Opprox.Cost
module Smcmc = Opprox.Mcmc

let search_budget = 10.0

let search_payload =
  lazy
    (let a = app "transformer" in
     let a =
       App.with_training_inputs a ~default_input:[| 32.0; 12.0; 8.0 |]
         ~training_inputs:[| [| 32.0; 12.0; 8.0 |]; [| 48.0; 16.0; 8.0 |] |]
     in
     let config =
       {
         Opprox.default_train_config with
         n_phases = Some 2;
         training = { Training.default_config with joint_samples_per_phase = 3 };
       }
     in
     let tr = Opprox.train ~config a in
     let cost =
       Scost.make ~models:tr.Opprox.models ~input:a.App.default_input ~budget:search_budget
     in
     (tr, a, cost))

let search_mid_schedule =
  lazy
    (let _, a, _ = Lazy.force search_payload in
     Array.init 2 (fun _ -> Array.map (fun m -> (m + 1) / 2) (App.max_levels a)))

let search_cost_eval () =
  let _, _, cost = Lazy.force search_payload in
  ignore (Scost.eval cost (Lazy.force search_mid_schedule))

let search_chain () =
  let _, _, cost = Lazy.force search_payload in
  ignore
    (Smcmc.run ~rng:(Rng.create 11) ~cost ~first_phase:0 (Smcmc.default_config ~iters:200))

let search_polish () =
  let _, a, cost = Lazy.force search_payload in
  let exact = Array.init 2 (fun _ -> Array.make (App.n_abs a) 0) in
  ignore (Smcmc.polish ~cost ~first_phase:0 exact)

let search_solve ?pool ~chains ~iters ~seed () =
  let tr, a, _ = Lazy.force search_payload in
  Search.solve_levels
    ~config:{ Search.chains; iters; seed }
    ?pool ~models:tr.Opprox.models ~input:a.App.default_input ~budget:search_budget ()

let search_solve_arm () = ignore (search_solve ~chains:2 ~iters:300 ~seed:11 ())

let search_tests =
  [
    Test.make ~name:"search:cost-eval" (Staged.stage search_cost_eval);
    Test.make ~name:"search:chain-200" (Staged.stage search_chain);
    Test.make ~name:"search:polish-exact" (Staged.stage search_polish);
    Test.make ~name:"search:solve-2x300" (Staged.stage search_solve_arm);
  ]

type search_gate_row = {
  sg_joint : int;
  sg_enum_bound : int;
  sg_solve_s : float;
  sg_limit_s : float;
  sg_deterministic : bool;
  sg_jobs_invariant : bool;
  sg_feasible : bool;
  sg_qos_hi : float;
}

let search_suite () =
  let tr, a, _ = Lazy.force search_payload in
  let solve ?pool () = search_solve ?pool ~chains:4 ~iters:800 ~seed:0x5EA2C () in
  let t0 = Unix.gettimeofday () in
  let levels, stats = solve () in
  let solve_s = Unix.gettimeofday () -. t0 in
  let levels2, _ = solve () in
  let p1 = Pool.create ~jobs:1 () and p2 = Pool.create ~jobs:2 () in
  let levels_j1, _ = solve ~pool:p1 () in
  let levels_j2, _ = solve ~pool:p2 () in
  Pool.shutdown p1;
  Pool.shutdown p2;
  (* The full plan-level audit: raises on any PLAN error. *)
  let plan =
    Opprox.Optimizer.plan_of_levels ~models:tr.Opprox.models ~input:a.App.default_input
      ~budget:search_budget levels
  in
  {
    sg_joint = Opprox_sim.Config_space.count a.App.abs;
    sg_enum_bound = Opprox_analysis.Lint_app.enumeration_bound;
    sg_solve_s = solve_s;
    sg_limit_s = 10.0;
    sg_deterministic = levels = levels2;
    sg_jobs_invariant = levels_j1 = levels && levels_j2 = levels;
    sg_feasible = stats.Search.feasible;
    sg_qos_hi = plan.Opprox.Optimizer.predicted_qos;
  }

let search_snapshot_file = "BENCH_search.json"

let write_search_snapshot entries row =
  let passed =
    row.sg_joint > row.sg_enum_bound
    && row.sg_solve_s <= row.sg_limit_s
    && row.sg_deterministic && row.sg_jobs_invariant && row.sg_feasible
    && row.sg_qos_hi <= search_budget +. 1e-6
  in
  let oc = open_out search_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc
    "  \"suite\": \"transformer small-scale (2 phases, 13 ABs x 9 levels), budget %.1f%%\",\n"
    search_budget;
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, e) ->
      let value = match e with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"enumeration\": { \"joint_configs\": %d, \"bound\": %d, \"feasible\": \
                     false, \"attempted\": false },\n"
    row.sg_joint row.sg_enum_bound;
  Printf.fprintf oc "  \"gate\": {\n";
  Printf.fprintf oc "    \"solve_seconds\": %.3f,\n" row.sg_solve_s;
  Printf.fprintf oc "    \"solve_seconds_limit\": %.1f,\n" row.sg_limit_s;
  Printf.fprintf oc "    \"deterministic_same_seed\": %b,\n" row.sg_deterministic;
  Printf.fprintf oc "    \"invariant_across_jobs\": %b,\n" row.sg_jobs_invariant;
  Printf.fprintf oc "    \"best_feasible\": %b,\n" row.sg_feasible;
  Printf.fprintf oc "    \"predicted_qos_hi\": %.2f,\n" row.sg_qos_hi;
  Printf.fprintf oc "    \"passed\": %b\n" passed;
  Printf.fprintf oc "  }\n}\n";
  close_out oc;
  Printf.printf
    "  search gate: 9^13 space (enumeration infeasible, not attempted), solve %.2fs \
     (limit %.0fs), deterministic %b, jobs-invariant %b, qos-hi %.2f%%\n%!"
    row.sg_solve_s row.sg_limit_s row.sg_deterministic row.sg_jobs_invariant row.sg_qos_hi;
  if not passed then Printf.printf "  SEARCH GATE FAILED (see %s)\n%!" search_snapshot_file;
  passed

let pool_snapshot_file = "BENCH_pool.json"

(* Scaling gate.  On a host with real cores (>= 4 recommended domains)
   the engine must deliver: j2 no slower than j1 and j4 at least 1.5x
   over j1.  On narrower hosts the honest requirement is *no inversion*:
   the active-worker cap parks surplus domains, so extra jobs may cost a
   little bookkeeping but must never reintroduce the GC-sync collapse
   (the pre-rework engine was ~2x slower — 0.53x — at j2 on one core).
   The 0.85 floor leaves room for the ~10% run-to-run noise of these
   few-iteration estimates while still catching any real regression. *)
let pool_gate_thresholds () =
  if Domain.recommended_domain_count () >= 4 then (1.0, 1.5) else (0.85, 0.85)

let pool_scaling entries =
  let est name = Option.join (List.assoc_opt name entries) in
  List.filter_map
    (fun group ->
      match
        ( est (Printf.sprintf "pool:%s-j1" group),
          est (Printf.sprintf "pool:%s-j2" group),
          est (Printf.sprintf "pool:%s-j4" group) )
      with
      | Some t1, Some t2, Some t4 when t2 > 0.0 && t4 > 0.0 ->
          Some (group, t1 /. t2, t1 /. t4)
      | _ -> None)
    [ "training-collect"; "oracle-space" ]

let write_pool_snapshot entries =
  let scaling = pool_scaling entries in
  let min_j2, min_j4 = pool_gate_thresholds () in
  let passed =
    scaling <> []
    && List.for_all (fun (_, s2, s4) -> s2 >= min_j2 && s4 >= min_j4) scaling
  in
  let oc = open_out pool_snapshot_file in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"host_recommended_domains\": %d,\n" (Domain.recommended_domain_count ());
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length entries in
  List.iteri
    (fun i (name, est) ->
      let value = match est with Some ns -> Printf.sprintf "%.1f" ns | None -> "null" in
      Printf.fprintf oc "    { \"name\": %S, \"ns_per_run\": %s }%s\n" name value
        (if i = n - 1 then "" else ","))
    entries;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"scaling\": {\n";
  let ns = List.length scaling in
  List.iteri
    (fun i (group, s2, s4) ->
      Printf.fprintf oc
        "    %S: { \"j2_speedup_over_j1\": %.2f, \"j4_speedup_over_j1\": %.2f }%s\n" group s2 s4
        (if i = ns - 1 then "" else ","))
    scaling;
  Printf.fprintf oc "  },\n";
  Printf.fprintf oc "  \"gate\": { \"min_j2_speedup\": %.2f, \"min_j4_speedup\": %.2f, \"passed\": %b }\n"
    min_j2 min_j4 passed;
  Printf.fprintf oc "}\n";
  close_out oc;
  List.iter
    (fun (group, s2, s4) ->
      Printf.printf "  pool scaling %-18s j2 %.2fx  j4 %.2fx (gate: j2 >= %.2f, j4 >= %.2f)\n%!"
        group s2 s4 min_j2 min_j4)
    scaling;
  if not passed then
    Printf.printf "  POOL SCALING GATE FAILED (see %s)\n%!" pool_snapshot_file;
  passed

let tests =
  [
    Test.make ~name:"tab1:config-space-enumeration" (Staged.stage (fun () ->
        (* Only the enumerable registry apps: transformer's 9^13-point
           space exists precisely to defeat this, and materializing it
           would OOM.  The skip mirrors the optimizer's own PLAN010
           fallback guard. *)
        List.iter
          (fun (a : App.t) ->
            if
              Opprox_sim.Config_space.count a.abs
              <= Opprox_analysis.Lint_app.enumeration_bound
            then ignore (Opprox_sim.Config_space.all a.abs))
          (Opprox_apps.Registry.all ())));
    Test.make ~name:"fig2:lulesh-run" (Staged.stage (run_uniform "lulesh" [| 1; 1; 1; 1 |]));
    Test.make ~name:"fig3:lulesh-heavy-run" (Staged.stage (run_uniform "lulesh" [| 3; 5; 5; 5 |]));
    Test.make ~name:"fig4_5:lulesh-phase-run" (Staged.stage (fun () ->
        let a = app "lulesh" in
        ignore
          (Driver.evaluate a
             (Schedule.single_phase_active ~n_phases:4 ~phase:3 [| 2; 2; 2; 2 |])
             a.App.default_input)));
    Test.make ~name:"fig7:ffmpeg-run" (Staged.stage (run_uniform "ffmpeg" [| 2; 2; 2 |]));
    Test.make ~name:"fig9:comd-run" (Staged.stage (run_uniform "comd" [| 2; 2; 2 |]));
    Test.make ~name:"fig10:bodytrack-run" (Staged.stage (run_uniform "bodytrack" [| 2; 2; 2; 1 |]));
    Test.make ~name:"fig11:pso-run" (Staged.stage (run_uniform "pso" [| 1; 1; 1 |]));
    Test.make ~name:"fig12:polyreg-fit" (Staged.stage fit_polyreg);
    Test.make ~name:"fig13:mic-compute" (Staged.stage compute_mic);
    Test.make ~name:"fig14:optimizer-solve" (Staged.stage run_optimizer);
    Test.make ~name:"fig15:dtree-fit" (Staged.stage fit_dtree);
    Test.make ~name:"tab2:exact-run-cached" (Staged.stage (fun () ->
        let a = app "pso" in
        ignore (Driver.run_exact ~memo a a.App.default_input)));
  ]

(* Measure one test and return its (name, ns-per-run estimate) pairs. *)
let measure cfg instances test =
  let results = Benchmark.all cfg instances test in
  Hashtbl.fold
    (fun name raw acc ->
      let est =
        match
          Analyze.one
            (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
            Instance.monotonic_clock raw
        with
        | ols -> ( match Analyze.OLS.estimates ols with Some [ est ] -> Some est | _ -> None)
        | exception _ -> None
      in
      (name, est) :: acc)
    results []

let print_entry (name, est) =
  match est with
  | Some est -> Printf.printf "  %-28s %12.1f ns/run\n%!" name est
  | None -> Printf.printf "  %-28s (no estimate)\n%!" name

let run () =
  print_endline "Bechamel micro-benchmarks (monotonic clock, OLS estimate per run):";
  (* Force payload construction (training, datasets) outside the measured
     region. *)
  ignore (Lazy.force polyreg_payload);
  ignore (Lazy.force mic_payload);
  ignore (Lazy.force optimizer_payload);
  ignore (Lazy.force dtree_payload);
  ignore (Lazy.force pool_table);
  (* Warm the suite memo so tab2:exact-run-cached times the hit path. *)
  ignore (Driver.run_exact ~memo (app "pso") (app "pso").App.default_input);
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None () in
  List.iter (fun test -> List.iter print_entry (measure cfg instances test)) tests;
  (* Warm the exact-run / checkpoint memos once so every pool arm
     measures the same steady state — the estimates are few-iteration,
     and without this the first arm measured (j1) would be charged the
     one-time cold baselines, inflating the scaling ratios. *)
  collect_with_pool 1 ();
  oracle_with_pool 1 ();
  (* Pool arms run seconds per iteration; a larger quota buys each arm
     more than one iteration so the scaling ratios are stable. *)
  let pool_cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 5.0) ~kde:None () in
  let pool_entries = List.concat_map (measure pool_cfg instances) pool_tests in
  let pool_entries =
    (* Hashtbl.fold order is unspecified; restore the declaration order. *)
    List.sort (fun (a, _) (b, _) -> compare a b) pool_entries
  in
  List.iter print_entry pool_entries;
  let pool_gate_ok = write_pool_snapshot pool_entries in
  Printf.printf "  pool group snapshot -> %s\n%!" pool_snapshot_file;
  (* Warm the eval memo so both obs:eval-memo arms measure the hit path. *)
  eval_memo_hit ();
  let obs_entries = List.concat_map (measure cfg instances) obs_tests in
  let obs_entries = List.sort (fun (a, _) (b, _) -> compare a b) obs_entries in
  List.iter print_entry obs_entries;
  write_obs_snapshot obs_entries;
  Printf.printf "  obs group snapshot -> %s\n%!" obs_snapshot_file;
  let conc_entries = List.concat_map (measure cfg instances) conc_tests in
  let conc_entries = List.sort (fun (a, _) (b, _) -> compare a b) conc_entries in
  List.iter print_entry conc_entries;
  let conc_gate_ok = write_conc_snapshot conc_entries in
  Printf.printf "  conc group snapshot -> %s\n%!" conc_snapshot_file;
  (* Warm the plan cache so the hit arm measures the steady state. *)
  serve_roundtrip serve_hit_request ();
  let serve_entries = List.concat_map (measure cfg instances) serve_tests in
  let serve_entries = List.sort (fun (a, _) (b, _) -> compare a b) serve_entries in
  List.iter print_entry serve_entries;
  write_serve_snapshot serve_entries;
  Printf.printf "  serve group snapshot -> %s\n%!" serve_snapshot_file;
  (* Warm the corpus payload (precompute sweep) and the LRU arm's cache
     entry, so every arm measures its steady state. *)
  ignore (Lazy.force corpus_payload);
  ignore (Lazy.force corpus_raw);
  corpus_lru_hit ();
  let corpus_entries = List.concat_map (measure cfg instances) corpus_tests in
  let corpus_entries = List.sort (fun (a, _) (b, _) -> compare a b) corpus_entries in
  List.iter print_entry corpus_entries;
  let corpus_gate_ok = write_corpus_snapshot corpus_entries in
  Printf.printf "  corpus group snapshot -> %s\n%!" corpus_snapshot_file;
  (* Warm the controller payload (training + the static plan) so the
     control arms measure execution, not setup. *)
  ignore (Lazy.force control_payload);
  let (_ : ?first_phase:int -> budget:float -> unit -> Opprox.Optimizer.plan) =
    Lazy.force control_solver
  in
  let control_entries = List.concat_map (measure cfg instances) control_tests in
  let control_entries = List.sort (fun (a, _) (b, _) -> compare a b) control_entries in
  List.iter print_entry control_entries;
  let control_gate_ok = write_control_snapshot control_entries (control_suite ()) in
  Printf.printf "  control group snapshot -> %s\n%!" control_snapshot_file;
  (* Warm the search payload (trimmed transformer training) so the
     search arms measure chains and pricing, not training. *)
  ignore (Lazy.force search_payload);
  ignore (Lazy.force search_mid_schedule);
  let search_entries = List.concat_map (measure cfg instances) search_tests in
  let search_entries = List.sort (fun (a, _) (b, _) -> compare a b) search_entries in
  List.iter print_entry search_entries;
  let search_gate_ok = write_search_snapshot search_entries (search_suite ()) in
  Printf.printf "  search group snapshot -> %s\n%!" search_snapshot_file;
  (* The scratch collect arm re-simulates everything and takes seconds per
     run; give the checkpoint group a larger quota so both arms get
     enough iterations for a stable estimate. *)
  (* Build both arms' run lists outside the measured region. *)
  ignore (Lazy.force ckpt_collect_runs);
  ignore (Lazy.force ckpt_probe_runs);
  let ckpt_cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 3.0) ~kde:None () in
  let ckpt_entries =
    List.concat_map (measure ckpt_cfg instances) (ckpt_tests @ predict_tests)
  in
  let ckpt_entries = List.sort (fun (a, _) (b, _) -> compare a b) ckpt_entries in
  List.iter print_entry ckpt_entries;
  write_ckpt_snapshot ckpt_entries;
  Printf.printf "  checkpoint group snapshot -> %s\n%!" ckpt_snapshot_file;
  List.iter (fun (_, p) -> Pool.shutdown p) (Lazy.force pool_table);
  pool_gate_ok && corpus_gate_ok && conc_gate_ok && control_gate_ok && search_gate_ok

(* Fast wall-clock sanity check for CI (a full bechamel pass is minutes):
   collect the same training dataset on a 1-job and a 2-job pool, require
   bit-identical results and no inversion beyond [tolerance].  On a
   single-core runner the 2-job pool's surplus worker parks under the
   active cap, so this is exactly the regression the rework fixed: before
   it, j2 was ~2x slower than j1 here. *)
let pool_smoke () =
  let a = app "comd" in
  let config =
    {
      Training.default_config with
      joint_samples_per_phase = 2;
      inputs = Some (Array.sub a.App.training_inputs 0 2);
    }
  in
  let collect pool = Training.collect ~config ~pool a ~n_phases:2 in
  let p1 = Pool.create ~jobs:1 () and p2 = Pool.create ~jobs:2 () in
  (* Every collection simulates in a fresh memo, so both arms measure the
     same work; check determinism across job counts first. *)
  let w1 = collect p1 and w2 = collect p2 in
  let identical = w1.Training.samples = w2.Training.samples in
  let reps = 3 in
  let time pool =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (collect pool)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let t1 = time p1 in
  let t2 = time p2 in
  Pool.shutdown p1;
  Pool.shutdown p2;
  let tolerance = 1.30 in
  let ok = identical && t2 <= t1 *. tolerance in
  Printf.printf "pool smoke: j1 %.0f ms/collect, j2 %.0f ms/collect (j2/j1 %.2f, limit %.2f), %s\n%!"
    (t1 *. 1e3) (t2 *. 1e3) (t2 /. t1) tolerance
    (if identical then "datasets bit-identical" else "DATASETS DIFFER");
  if not ok then Printf.printf "pool smoke: FAILED\n%!";
  ok
