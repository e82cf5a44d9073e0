(* Tests for the work-stealing execution engine (Opprox_util.Pool) and
   its integration into Training.collect / Oracle.measured_space:
   determinism across domain counts, exception propagation across
   domains (including stolen tasks), nested-submission liveness, the
   one-exact-run-per-input guarantee, and equivalence of the sharded
   driver memos with a single-table configuration. *)

module Pool = Opprox_util.Pool
module Rng = Opprox_util.Rng
module Metrics = Opprox_obs.Metrics
module Driver = Opprox_sim.Driver
module Training = Opprox.Training
module Oracle = Opprox.Oracle
open Fixtures

(* Pools at every job count the determinism properties quantify over,
   shared across the cases below and joined by the final "shutdown"
   case.  [~active:jobs] lifts the active-worker cap so real concurrent
   stealing happens even on a single-core CI host (the cap exists for
   throughput, not correctness — these tests exercise the uncapped
   worst case). *)
let jobs_levels = [ 1; 2; 4; 8 ]
let pools = lazy (List.map (fun j -> (j, Pool.create ~jobs:j ~active:j ())) jobs_levels)
let pool_of_jobs jobs = List.assoc jobs (Lazy.force pools)

(* ------------------------------------------------------------ determinism *)

let prop_map_matches_sequential =
  qcheck_case "parallel_map f = Array.map f (any jobs, any chunk)"
    QCheck.(triple (array small_int) (int_range 1 7) (oneofl jobs_levels))
    (fun (arr, chunk, jobs) ->
      let f x = (x * 31) lxor (x asr 3) in
      Pool.parallel_map ~pool:(pool_of_jobs jobs) ~chunk f arr = Array.map f arr)

let prop_map_matches_sequential_adaptive =
  qcheck_case "parallel_map f = Array.map f (adaptive splitting, any grain)"
    QCheck.(triple (array small_int) (int_range 1 7) (oneofl jobs_levels))
    (fun (arr, grain, jobs) ->
      let f x = (x * 31) lxor (x asr 3) in
      Pool.parallel_map ~pool:(pool_of_jobs jobs) ~grain f arr = Array.map f arr)

let prop_mapi_preserves_indices =
  qcheck_case "parallel_mapi sees the right index"
    QCheck.(pair (array small_int) (oneofl jobs_levels))
    (fun (arr, jobs) ->
      let f i x = (i, x) in
      Pool.parallel_mapi ~pool:(pool_of_jobs jobs) ~chunk:2 f arr = Array.mapi f arr)

let prop_seeded_map_bit_identical =
  qcheck_case "parallel_map_seeded is a function of (seed, index) only"
    QCheck.(pair small_int (int_range 1 16))
    (fun (seed, n) ->
      let input = Array.init n (fun i -> i) in
      let f ~rng x = float_of_int x +. Rng.uniform rng +. Rng.uniform rng in
      let runs =
        List.map
          (fun jobs -> Pool.parallel_map_seeded ~pool:(pool_of_jobs jobs) ~seed f input)
          jobs_levels
      in
      List.for_all (fun r -> r = List.hd runs) runs)

let test_parallel_iter_visits_all () =
  let n = 257 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_iter ~pool:(pool_of_jobs 4) ~chunk:3 (fun i -> Atomic.incr hits.(i))
    (Array.init n (fun i -> i));
  Array.iteri (fun i a -> check_int (Printf.sprintf "slot %d hit once" i) 1 (Atomic.get a)) hits

let test_parallel_iter_visits_all_adaptive () =
  let n = 257 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.parallel_iter ~pool:(pool_of_jobs 8) (fun i -> Atomic.incr hits.(i))
    (Array.init n (fun i -> i));
  Array.iteri
    (fun i a -> check_int (Printf.sprintf "adaptive slot %d hit once" i) 1 (Atomic.get a))
    hits

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map ~pool:(pool_of_jobs 4) succ [||]);
  Alcotest.(check (array int)) "singleton" [| 8 |]
    (Pool.parallel_map ~pool:(pool_of_jobs 4) succ [| 7 |])

(* ---------------------------------------------------- forced concurrency *)

(* Two tasks that handshake through atomics can only both finish if they
   run on different domains at the same time — proving the engine really
   distributes work instead of draining it on the submitter. *)
let test_two_domains_run_concurrently () =
  let a_started = Atomic.make false and b_seen = Atomic.make false in
  Pool.parallel_iter ~pool:(pool_of_jobs 2) ~chunk:1
    (fun which ->
      if which = 0 then begin
        Atomic.set a_started true;
        while not (Atomic.get b_seen) do
          Domain.cpu_relax ()
        done
      end
      else begin
        while not (Atomic.get a_started) do
          Domain.cpu_relax ()
        done;
        Atomic.set b_seen true
      end)
    [| 0; 1 |];
  check_bool "both tasks overlapped in time" true (Atomic.get a_started && Atomic.get b_seen)

(* ------------------------------------------------------------- exceptions *)

let test_exception_propagates () =
  Alcotest.check_raises "first failure re-raised" (Failure "boom") (fun () ->
      ignore
        (Pool.parallel_map ~pool:(pool_of_jobs 4) ~chunk:2
           (fun i -> if i = 17 then failwith "boom" else i)
           (Array.init 64 (fun i -> i))))

let test_exception_propagates_adaptive () =
  Alcotest.check_raises "adaptive split re-raises" (Failure "boom") (fun () ->
      ignore
        (Pool.parallel_map ~pool:(pool_of_jobs 8)
           (fun i -> if i = 17 then failwith "boom" else i)
           (Array.init 64 (fun i -> i))))

(* The raising task provably runs on a different domain than its sibling
   (same handshake as above), so the exception crosses a steal boundary
   before reaching the caller. *)
let test_exception_from_stolen_task () =
  let started = Atomic.make false in
  Alcotest.check_raises "exception crosses domains" (Failure "stolen-boom") (fun () ->
      Pool.parallel_iter ~pool:(pool_of_jobs 2) ~chunk:1
        (fun which ->
          if which = 0 then begin
            Atomic.set started true;
            while Atomic.get started do
              Domain.cpu_relax ()
            done
          end
          else begin
            while not (Atomic.get started) do
              Domain.cpu_relax ()
            done;
            Atomic.set started false;
            failwith "stolen-boom"
          end)
        [| 0; 1 |])

let test_exception_leaves_pool_usable () =
  let pool = pool_of_jobs 4 in
  (try ignore (Pool.parallel_map ~pool (fun _ -> failwith "dead") (Array.init 8 (fun i -> i)))
   with Failure _ -> ());
  Alcotest.(check (array int)) "pool still maps" [| 2; 4; 6 |]
    (Pool.parallel_map ~pool (fun x -> 2 * x) [| 1; 2; 3 |])

(* --------------------------------------------------- nested submissions *)

(* A task that itself calls [parallel_map] on the same pool must stay
   live: the inner batch's ranges go onto the worker's own deque and the
   worker helps until they settle, so no configuration of waiting
   domains can deadlock. *)
let test_nested_submission_liveness () =
  let pool = pool_of_jobs 4 in
  let outer = Array.init 6 (fun i -> i) in
  let expected =
    Array.map (fun i -> Array.fold_left ( + ) 0 (Array.init 32 (fun j -> (i * 100) + j))) outer
  in
  let got =
    Pool.parallel_map ~pool
      (fun i ->
        let inner =
          Pool.parallel_map ~pool ~grain:4 (fun j -> (i * 100) + j) (Array.init 32 (fun j -> j))
        in
        Array.fold_left ( + ) 0 inner)
      outer
  in
  Alcotest.(check (array int)) "nested maps agree" expected got

let test_invalid_arguments () =
  Alcotest.check_raises "chunk 0" (Invalid_argument "Pool.parallel_map: chunk must be >= 1")
    (fun () ->
      ignore (Pool.parallel_map ~pool:(pool_of_jobs 2) ~chunk:0 succ (Array.init 4 (fun i -> i))));
  Alcotest.check_raises "grain 0" (Invalid_argument "Pool.parallel_map: grain must be >= 1")
    (fun () ->
      ignore (Pool.parallel_map ~pool:(pool_of_jobs 2) ~grain:0 succ (Array.init 4 (fun i -> i))));
  Alcotest.check_raises "jobs 0" (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()));
  Alcotest.check_raises "active 0" (Invalid_argument "Pool.create: active must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:2 ~active:0 ()))

let test_active_cap_clamped () =
  let p = Pool.create ~jobs:2 ~active:16 () in
  check_int "active cap clamped to jobs" 2 (Pool.active_cap p);
  Alcotest.(check (array int)) "capped pool maps" [| 2; 3 |]
    (Pool.parallel_map ~pool:p succ [| 1; 2 |]);
  Pool.shutdown p

(* ------------------------------------------------------------ env override *)

let test_env_override () =
  Unix.putenv "OPPROX_JOBS" "3";
  check_int "OPPROX_JOBS wins" 3 (Pool.default_jobs ());
  Unix.putenv "OPPROX_JOBS" "not-a-number";
  check_bool "garbage falls back to detection" true (Pool.default_jobs () >= 1);
  Unix.putenv "OPPROX_JOBS" ""

let test_bad_jobs_observable () =
  let c = Metrics.counter "pool.env.bad_jobs" in
  let before = Metrics.value c in
  Unix.putenv "OPPROX_JOBS" "banana";
  ignore (Pool.default_jobs ());
  check_int "malformed value counted once" (before + 1) (Metrics.value c);
  Unix.putenv "OPPROX_JOBS" " 7 ";
  check_int "whitespace-padded value parses" 7 (Pool.default_jobs ());
  check_int "well-formed value not counted" (before + 1) (Metrics.value c);
  Unix.putenv "OPPROX_JOBS" "";
  ignore (Pool.default_jobs ());
  check_int "empty value treated as unset, not counted" (before + 1) (Metrics.value c)

(* ------------------------------------------- Training.collect integration *)

let training_config = { Training.default_config with joint_samples_per_phase = 6 }

let same_dataset label (a : Training.t) (b : Training.t) =
  check_int (label ^ ": same run count") (Training.n_runs a) (Training.n_runs b);
  Array.iteri
    (fun i (sa : Training.sample) ->
      let sb = b.Training.samples.(i) in
      Alcotest.(check (array (float 0.0))) (label ^ ": same input") sa.input sb.input;
      check_int (label ^ ": same phase") sa.phase sb.phase;
      Alcotest.(check (array int)) (label ^ ": same levels") sa.levels sb.levels;
      check_float (label ^ ": same qos") sa.qos sb.qos;
      check_float (label ^ ": same speedup") sa.speedup sb.speedup;
      check_float (label ^ ": same iters ratio") sa.iters_ratio sb.iters_ratio;
      check_int (label ^ ": same trace class") sa.trace_class sb.trace_class)
    a.Training.samples

let test_training_parallel_equals_sequential () =
  let collect jobs =
    Training.collect ~config:training_config ~pool:(pool_of_jobs jobs) toy ~n_phases:2
  in
  let seq = collect 1 in
  List.iter
    (fun jobs -> same_dataset (Printf.sprintf "j%d" jobs) seq (collect jobs))
    [ 2; 4; 8 ]

let test_training_one_exact_run_per_input () =
  let before = counter "driver.exact.run" in
  let t = Training.collect ~config:training_config ~pool:(pool_of_jobs 4) toy ~n_phases:2 in
  check_bool "collected something" true (Training.n_runs t > 0);
  (* The hoisted baseline plus the collection's memo mean the golden
     configuration executed exactly once per training input, not once per
     sample. *)
  check_int "one exact execution per input" (Array.length toy.Opprox_sim.App.training_inputs)
    (counter "driver.exact.run" - before)

(* --------------------------------------------------- Oracle integration *)

let test_oracle_parallel_equals_sequential () =
  let space jobs =
    Oracle.clear_cache ();
    Oracle.measured_space ~pool:(pool_of_jobs jobs) toy ~input:toy.Opprox_sim.App.default_input
  in
  let seq = space 1 in
  List.iter
    (fun jobs ->
      let par = space jobs in
      check_int "same size" (List.length seq) (List.length par);
      List.iter2
        (fun (la, (ea : Driver.evaluation)) (lb, (eb : Driver.evaluation)) ->
          Alcotest.(check (array int)) "same enumeration order" la lb;
          check_float "same qos" ea.qos_degradation eb.qos_degradation;
          check_float "same speedup" ea.speedup eb.speedup)
        seq par)
    [ 2; 4; 8 ]

let test_oracle_cache_hit_skips_reruns () =
  Oracle.clear_cache ();
  let input = toy.Opprox_sim.App.default_input in
  let a = Oracle.measured_space ~pool:(pool_of_jobs 2) toy ~input in
  let before = counter "driver.exact.run" in
  let b = Oracle.measured_space ~pool:(pool_of_jobs 2) toy ~input in
  check_int "memo hit: no new exact runs" 0 (counter "driver.exact.run" - before);
  check_bool "same list" true (a == b)

(* --------------------------------------------------------------- cleanup *)

let test_shutdown () =
  List.iter (fun (_, p) -> Pool.shutdown p) (Lazy.force pools);
  (* A shut-down pool degrades to sequential execution instead of hanging. *)
  Alcotest.(check (array int)) "sequential fallback" [| 1; 4; 9 |]
    (Pool.parallel_map ~pool:(pool_of_jobs 4) (fun x -> x * x) [| 1; 2; 3 |])

let suite =
  [
    ( "pool",
      [
        prop_map_matches_sequential;
        prop_map_matches_sequential_adaptive;
        prop_mapi_preserves_indices;
        prop_seeded_map_bit_identical;
        Alcotest.test_case "iter visits all" `Quick test_parallel_iter_visits_all;
        Alcotest.test_case "iter visits all (adaptive)" `Quick
          test_parallel_iter_visits_all_adaptive;
        Alcotest.test_case "empty and singleton" `Quick test_empty_and_singleton;
        Alcotest.test_case "two domains run concurrently" `Quick
          test_two_domains_run_concurrently;
        Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
        Alcotest.test_case "exception propagates (adaptive)" `Quick
          test_exception_propagates_adaptive;
        Alcotest.test_case "exception from stolen task" `Quick test_exception_from_stolen_task;
        Alcotest.test_case "pool survives exceptions" `Quick test_exception_leaves_pool_usable;
        Alcotest.test_case "nested submission liveness" `Quick test_nested_submission_liveness;
        Alcotest.test_case "invalid arguments" `Quick test_invalid_arguments;
        Alcotest.test_case "active cap clamped" `Quick test_active_cap_clamped;
        Alcotest.test_case "OPPROX_JOBS override" `Quick test_env_override;
        Alcotest.test_case "bad OPPROX_JOBS is observable" `Quick test_bad_jobs_observable;
        Alcotest.test_case "training parallel = sequential" `Quick
          test_training_parallel_equals_sequential;
        Alcotest.test_case "one exact run per input" `Quick test_training_one_exact_run_per_input;
        Alcotest.test_case "oracle parallel = sequential" `Quick
          test_oracle_parallel_equals_sequential;
        Alcotest.test_case "oracle memo is domain-safe" `Quick test_oracle_cache_hit_skips_reruns;
        Alcotest.test_case "shutdown" `Quick test_shutdown;
      ] );
  ]
