module Rng = Opprox_util.Rng
module Dmutex = Opprox_util.Dmutex
module Metrics = Opprox_obs.Metrics

type exact_run = { output : float array; work : int; iters : int; trace : int list }

type evaluation = {
  sched : Schedule.t;
  qos_degradation : float;
  psnr : float option;
  speedup : float;
  work : int;
  outer_iters : int;
  exact_iters : int;
  trace : int list;
  work_per_ab : int array;
  work_per_phase : int array;
}

type cache_stats = { hits : int; misses : int; size : int }

(* ------------------------------------------------------------- caches *)

(* Every driver cache follows the same discipline: stable string keys,
   lookups under a per-shard mutex ({!Opprox_util.Shardmap}), computation
   outside it (two domains racing on one key duplicate a deterministic
   computation instead of serializing every distinct one behind it), FIFO
   eviction beyond the capacity so long bench matrices cannot grow memory
   without limit.  Hashing keys across shards means a hot memo hit from a
   pool worker takes an uncontended lock with high probability — under
   the old single-mutex tables the memo itself was the scaling
   bottleneck once checkpointing collapsed per-task cost. *)
module Bounded = Opprox_util.Shardmap

(* Exact phase-boundary checkpoints: the paused state of the golden
   trajectory at the first iteration of phase q, keyed by
   (app, input, n_phases, q). *)
type checkpoint = {
  snap : Env.snapshot;
  frozen : App.instance;  (* never stepped; cloned once per resume *)
}

let default_memo_shards = 16
let memo_shards_n = ref default_memo_shards
let ckpt_capacity = ref 512
let eval_capacity = 4096

(* Exact runs are pure functions of (application, input); the memo is
   unbounded like in previous revisions (one entry per distinct input). *)
let exact_cache : exact_run Bounded.t ref =
  ref (Bounded.create ~name:"driver.exact" ~shards:default_memo_shards ~capacity:max_int ())

let checkpoint_cache : checkpoint Bounded.t ref =
  ref (Bounded.create ~name:"driver.ckpt" ~shards:default_memo_shards ~capacity:!ckpt_capacity ())

(* Full-evaluation memo: schedules repeat across training sweeps, oracle
   probes and bench matrices, and an evaluation is a pure function of
   (app, input, schedule). *)
let eval_cache : evaluation Bounded.t ref =
  ref (Bounded.create ~name:"driver.eval" ~shards:default_memo_shards ~capacity:eval_capacity ())

let checkpointing_on = Atomic.make true
let eval_cache_on = Atomic.make true
let set_checkpointing b = Atomic.set checkpointing_on b
let set_eval_cache b = Atomic.set eval_cache_on b

let set_checkpoint_capacity n =
  ckpt_capacity := n;
  Bounded.set_capacity !checkpoint_cache n

let memo_shards () = !memo_shards_n

let set_memo_shards n =
  if n < 1 then invalid_arg "Driver.set_memo_shards: shards must be >= 1";
  memo_shards_n := n;
  exact_cache := Bounded.create ~name:"driver.exact" ~shards:n ~capacity:max_int ();
  checkpoint_cache := Bounded.create ~name:"driver.ckpt" ~shards:n ~capacity:!ckpt_capacity ();
  eval_cache := Bounded.create ~name:"driver.eval" ~shards:n ~capacity:eval_capacity ()

(* Cache accounting lives in the process-wide metrics registry (atomic
   counters, so pool workers bump them without the cache mutexes); tests
   and benches assert reuse against these instead of inferring it from
   wall-clock.  The accessor functions below are thin reads over the
   registry, kept for source compatibility. *)
let exact_executions = Metrics.counter "driver.exact.run"
let exact_hits = Metrics.counter "driver.exact.hit"
let ckpt_hits = Metrics.counter "driver.ckpt.hit"
let ckpt_misses = Metrics.counter "driver.ckpt.miss"
let ckpt_saves = Metrics.counter "driver.ckpt.save"
let eval_hits = Metrics.counter "driver.eval.hit"
let eval_misses = Metrics.counter "driver.eval.miss"

(* Resettable counters: Metrics.reset is registry-wide, but the cache
   accounting must be zeroable in isolation (tests bracket one collect).
   Each counter keeps a baseline subtracted on read. *)
let baselines : (string * int Atomic.t * Metrics.counter) list =
  List.map
    (fun (name, c) -> (name, Atomic.make 0, c))
    [
      ("driver.exact.run", exact_executions);
      ("driver.exact.hit", exact_hits);
      ("driver.ckpt.hit", ckpt_hits);
      ("driver.ckpt.miss", ckpt_misses);
      ("driver.ckpt.save", ckpt_saves);
      ("driver.eval.hit", eval_hits);
      ("driver.eval.miss", eval_misses);
    ]

let read c =
  let _, base, _ = List.find (fun (_, _, c') -> c' == c) baselines in
  Metrics.value c - Atomic.get base

let exact_run_count () = read exact_executions
let reset_exact_run_count () =
  let _, base, _ = List.find (fun (_, _, c') -> c' == exact_executions) baselines in
  Atomic.set base (Metrics.value exact_executions)

let exact_cache_stats () =
  { hits = read exact_hits; misses = read exact_executions; size = Bounded.size !exact_cache }

let checkpoint_stats () =
  { hits = read ckpt_hits; misses = read ckpt_misses; size = Bounded.size !checkpoint_cache }

let eval_cache_stats () =
  { hits = read eval_hits; misses = read eval_misses; size = Bounded.size !eval_cache }

let checkpoint_save_count () = read ckpt_saves

let reset_cache_stats () =
  List.iter (fun (_, base, c) -> Atomic.set base (Metrics.value c)) baselines

let input_key (app : App.t) input =
  let b = Buffer.create 64 in
  Buffer.add_string b app.name;
  Array.iter
    (fun x ->
      Buffer.add_char b '|';
      Buffer.add_string b (Int64.to_string (Int64.bits_of_float x)))
    input;
  Buffer.contents b

let clear_cache () = Bounded.clear !exact_cache
let clear_checkpoints () = Bounded.clear !checkpoint_cache
let clear_eval_cache () = Bounded.clear !eval_cache

let clear_all_caches () =
  clear_cache ();
  clear_checkpoints ();
  clear_eval_cache ()

let seed_for (app : App.t) input =
  (* Same seed for exact and approximate runs of one input: QoS differences
     must come from the approximation alone, not from RNG divergence.  The
     seed folds the IEEE-754 bits of every component through SplitMix64's
     finaliser, so it is stable across OCaml versions and processes —
     unlike [Hashtbl.hash], whose output depends on the runtime's internal
     value representation. *)
  let h =
    Array.fold_left
      (fun acc x -> Rng.mix64 (Int64.logxor acc (Int64.bits_of_float x)))
      (Rng.mix64 (Int64.of_int app.seed))
      input
  in
  Int64.to_int h land max_int

let execute (app : App.t) sched ~expected_iters input =
  let rng = Rng.create (seed_for app input) in
  let env = Env.create ~rng ~sched ~expected_iters ~n_abs:(App.n_abs app) in
  let output = app.run env input in
  (env, output)

let run_exact (app : App.t) input =
  let key = input_key app input in
  match Bounded.find !exact_cache key with
  | Some r ->
      Metrics.incr exact_hits;
      r
  | None ->
      Metrics.incr exact_executions;
      let sched = Schedule.exact ~n_abs:(App.n_abs app) in
      let env, output = execute app sched ~expected_iters:0 input in
      let r =
        {
          output;
          work = Env.total_work env;
          iters = Env.outer_iters env;
          trace = Env.trace env;
        }
      in
      ignore (Bounded.add !exact_cache key r);
      r

(* ------------------------------------------------- checkpointed path *)

(* First iteration of phase [q] under [n] phases and [i_total] exact
   iterations: the smallest [k] with [k * n / i_total = q], i.e.
   [ceil (q * i_total / n)].  The state of any schedule with an exact
   prefix covering phases [0 .. q-1] is bit-identical to the golden
   trajectory up to (not including) this iteration. *)
let boundary_iter ~n_phases ~i_total q = ((q * i_total) + n_phases - 1) / n_phases
let phase_boundary ~n_phases ~i_total q = boundary_iter ~n_phases ~i_total q

(* Run [app] under [sched], restoring the deepest cached exact-prefix
   checkpoint and saving any boundary checkpoints the run passes through.
   Returns [None] when no phase boundary is reusable (no exact prefix,
   single phase, or a zero-iteration exact run) — the caller then takes
   the scratch path. *)
let execute_checkpointed (app : App.t) mk sched ~(exact : exact_run) input =
  let n = Schedule.n_phases sched in
  let i_total = exact.iters in
  let boundary q = boundary_iter ~n_phases:n ~i_total q in
  let q_max =
    (* Deepest boundary inside the exact prefix; phase [n-1] has no
       boundary after it, and boundaries at iteration 0 are the scratch
       state — nothing to reuse there. *)
    let rec shrink q = if q >= 1 && boundary q = 0 then shrink (q - 1) else q in
    shrink (Stdlib.min (Schedule.exact_prefix sched) (n - 1))
  in
  if q_max < 1 then None
  else begin
    let base = input_key app input in
    let key q = Printf.sprintf "%s#%d#%d" base n q in
    let rec lookup q =
      if q < 1 then None
      else
        match Bounded.find !checkpoint_cache (key q) with
        | Some c -> Some (q, c)
        | None -> lookup (q - 1)
    in
    let env, inst, q_start =
      match lookup q_max with
      | Some (q, c) ->
          Metrics.incr ckpt_hits;
          let env = Env.resume c.snap ~sched ~expected_iters:i_total in
          (env, c.frozen.App.clone env, q)
      | None ->
          Metrics.incr ckpt_misses;
          let rng = Rng.create (seed_for app input) in
          let env = Env.create ~rng ~sched ~expected_iters:i_total ~n_abs:(App.n_abs app) in
          (env, (mk env input : App.instance), 0)
    in
    (* Drive through each missing boundary up to [q_max], freezing a
       checkpoint at each.  The frozen instance is bound to a throwaway
       resumed environment and never stepped; each future resume clones
       it again, so concurrent and repeated resumes cannot alias state. *)
    for q = q_start + 1 to q_max do
      let b = boundary q in
      let running = ref true in
      while !running && Env.outer_iters env < b do
        running := inst.App.step ()
      done;
      if Env.outer_iters env = b then begin
        let snap = Env.snapshot env in
        let frozen = inst.App.clone (Env.resume snap ~sched ~expected_iters:i_total) in
        if Bounded.add !checkpoint_cache (key q) { snap; frozen } then Metrics.incr ckpt_saves
      end
    done;
    while inst.App.step () do
      ()
    done;
    Some (env, inst.App.finish ())
  end

let run_sched (app : App.t) sched ~exact input =
  let via_checkpoint =
    if Atomic.get checkpointing_on then
      match app.iterative with
      | Some mk -> execute_checkpointed app mk sched ~exact input
      | None -> None
    else None
  in
  match via_checkpoint with
  | Some r -> r
  | None -> execute app sched ~expected_iters:exact.iters input

(* ------------------------------------------------------- evaluation *)

let sched_key sched =
  let b = Buffer.create 32 in
  for p = 0 to Schedule.n_phases sched - 1 do
    Buffer.add_char b ';';
    Array.iter
      (fun l ->
        Buffer.add_char b ',';
        Buffer.add_string b (string_of_int l))
      (Schedule.levels_of_phase sched p)
  done;
  Buffer.contents b

(* The per-AB / per-phase arrays are fresh per call even on a memo hit, so
   a caller mutating its result cannot corrupt the cache. *)
let copy_evaluation ev =
  { ev with work_per_ab = Array.copy ev.work_per_ab; work_per_phase = Array.copy ev.work_per_phase }

let compute_evaluation (app : App.t) sched ~(exact : exact_run) input =
  let env, output = run_sched app sched ~exact input in
  let work = Env.total_work env in
  let psnr, qos_degradation =
    match app.report_metric with
    | App.Distortion -> (None, Qos.relative_distortion ~exact:exact.output ~approx:output)
    | App.Psnr ->
        let p = Qos.psnr ~exact:exact.output ~approx:output in
        (Some p, Qos.psnr_to_degradation p)
  in
  {
    sched;
    qos_degradation;
    psnr;
    speedup = float_of_int exact.work /. float_of_int (Stdlib.max work 1);
    work;
    outer_iters = Env.outer_iters env;
    exact_iters = exact.iters;
    trace = Env.trace env;
    work_per_ab = Array.init (App.n_abs app) (Env.work_of_ab env);
    work_per_phase = Env.work_per_phase env;
  }

let evaluate ?exact (app : App.t) sched input =
  if Schedule.n_abs sched <> App.n_abs app then
    invalid_arg "Driver.evaluate: schedule AB count mismatch";
  match exact with
  | Some e ->
      (* A caller-supplied baseline may differ from the memoized exact run
         (tests do this); such evaluations bypass the memo entirely. *)
      compute_evaluation app sched ~exact:e input
  | None ->
      if not (Atomic.get eval_cache_on) then
        compute_evaluation app sched ~exact:(run_exact app input) input
      else begin
        let key = input_key app input ^ sched_key sched in
        match Bounded.find !eval_cache key with
        | Some ev ->
            Metrics.incr eval_hits;
            copy_evaluation ev
        | None ->
            Metrics.incr eval_misses;
            let ev = compute_evaluation app sched ~exact:(run_exact app input) input in
            ignore (Bounded.add !eval_cache key (copy_evaluation ev));
            ev
      end
