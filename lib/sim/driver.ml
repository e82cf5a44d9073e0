module Rng = Opprox_util.Rng
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

(* ------------------------------------------------------------- memo *)

(* Every memo table follows the same discipline: stable string keys,
   lookups under a per-shard mutex ({!Opprox_util.Shardmap}), computation
   outside it (two domains racing on one key duplicate a deterministic
   computation instead of serializing every distinct one behind it), FIFO
   eviction beyond the capacity.  A memo is shared by the pool workers of
   one stage, so a hot hit takes an uncontended shard lock with high
   probability. *)
module Shardmap = Opprox_util.Shardmap

(* Exact phase-boundary checkpoints: the paused state of the golden
   trajectory at the first iteration of phase q, keyed by
   (app, input, n_phases, q). *)
type checkpoint = {
  snap : Env.snapshot;
  frozen : App.instance;  (* never stepped; cloned once per resume *)
}

type memo = {
  exact : exact_run Shardmap.t;  (* one entry per distinct input *)
  ckpt : checkpoint Shardmap.t;
  evals : evaluation Shardmap.t;  (* keyed by (app, input, schedule) *)
}

let memo () =
  {
    exact = Shardmap.create ~name:"driver.exact" ~capacity:max_int ();
    ckpt = Shardmap.create ~name:"driver.ckpt" ~capacity:512 ();
    evals = Shardmap.create ~name:"driver.eval" ~capacity:4096 ();
  }

(* Reuse is counted in the process-wide metrics registry (atomic
   counters, so pool workers bump them without the shard locks); tests
   and benches assert it as before/after deltas. *)
let exact_executions = Metrics.counter "driver.exact.run"
let exact_hits = Metrics.counter "driver.exact.hit"
let ckpt_hits = Metrics.counter "driver.ckpt.hit"
let ckpt_misses = Metrics.counter "driver.ckpt.miss"
let ckpt_saves = Metrics.counter "driver.ckpt.save"
let eval_hits = Metrics.counter "driver.eval.hit"
let eval_misses = Metrics.counter "driver.eval.miss"

let input_key (app : App.t) input =
  let b = Buffer.create 64 in
  Buffer.add_string b app.name;
  Array.iter
    (fun x ->
      Buffer.add_char b '|';
      Buffer.add_string b (Int64.to_string (Int64.bits_of_float x)))
    input;
  Buffer.contents b

let clear_all_caches () = ()

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

let compute_exact (app : App.t) input =
  Metrics.incr exact_executions;
  let sched = Schedule.exact ~n_abs:(App.n_abs app) in
  let env, output = execute app sched ~expected_iters:0 input in
  { output; work = Env.total_work env; iters = Env.outer_iters env; trace = Env.trace env }

let run_exact ?memo (app : App.t) input =
  match memo with
  | None -> compute_exact app input
  | Some m -> (
      let key = input_key app input in
      match Shardmap.find m.exact key with
      | Some r ->
          Metrics.incr exact_hits;
          r
      | None ->
          let r = compute_exact app input in
          ignore (Shardmap.add m.exact key r);
          r)

(* ------------------------------------------------- checkpointed path *)

(* First iteration of phase [q] under [n] phases and [i_total] exact
   iterations: the smallest [k] with [k * n / i_total = q], i.e.
   [ceil (q * i_total / n)].  The state of any schedule with an exact
   prefix covering phases [0 .. q-1] is bit-identical to the golden
   trajectory up to (not including) this iteration. *)
let phase_boundary ~n_phases ~i_total q = ((q * i_total) + n_phases - 1) / n_phases

(* Run [app] under [sched], restoring the deepest cached exact-prefix
   checkpoint and saving any boundary checkpoints the run passes through.
   Returns [None] when no phase boundary is reusable (no exact prefix,
   single phase, or a zero-iteration exact run) — the caller then takes
   the scratch path. *)
let execute_checkpointed (m : memo) (app : App.t) mk sched ~(exact : exact_run) input =
  let n = Schedule.n_phases sched in
  let i_total = exact.iters in
  let boundary q = phase_boundary ~n_phases:n ~i_total q in
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
        match Shardmap.find m.ckpt (key q) with
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
        if Shardmap.add m.ckpt (key q) { snap; frozen } then Metrics.incr ckpt_saves
      end
    done;
    while inst.App.step () do
      ()
    done;
    Some (env, inst.App.finish ())
  end

let run_sched ?memo (app : App.t) sched ~exact input =
  let via_checkpoint =
    match (memo, app.iterative) with
    | Some m, Some mk -> execute_checkpointed m app mk sched ~exact input
    | _ -> None
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

let compute_evaluation ?memo (app : App.t) sched ~(exact : exact_run) input =
  let env, output = run_sched ?memo app sched ~exact input in
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

let evaluate ?memo ?exact (app : App.t) sched input =
  if Schedule.n_abs sched <> App.n_abs app then
    invalid_arg "Driver.evaluate: schedule AB count mismatch";
  match (memo, exact) with
  | _, Some e ->
      (* A caller-supplied baseline may differ from the memoized exact run
         (tests do this); such evaluations bypass the whole-evaluation
         memo. *)
      compute_evaluation ?memo app sched ~exact:e input
  | None, None -> compute_evaluation app sched ~exact:(compute_exact app input) input
  | Some m, None -> (
      let key = input_key app input ^ sched_key sched in
      match Shardmap.find m.evals key with
      | Some ev ->
          Metrics.incr eval_hits;
          copy_evaluation ev
      | None ->
          Metrics.incr eval_misses;
          let ev = compute_evaluation ~memo:m app sched ~exact:(run_exact ~memo:m app input) input in
          ignore (Shardmap.add m.evals key (copy_evaluation ev));
          ev)
