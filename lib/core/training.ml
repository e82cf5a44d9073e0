module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Config_space = Opprox_sim.Config_space
module Rng = Opprox_util.Rng
module Pool = Opprox_util.Pool
module Metrics = Opprox_obs.Metrics
module Trace = Opprox_obs.Trace

let log_src = Logs.Src.create "opprox.training" ~doc:"OPPROX training sampler"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_collects = Metrics.counter "training.collects"
let m_runs = Metrics.counter "training.runs"

type sample = {
  input : float array;
  phase : int;
  levels : int array;
  speedup : float;
  qos : float;
  iters_ratio : float;
  trace_class : int;
}

type t = {
  app : App.t;
  n_phases : int;
  samples : sample array;
  classes : Cfmodel.t;
}

type config = {
  joint_samples_per_phase : int;
  inputs : float array array option;
  seed : int;
}

let default_config = { joint_samples_per_phase = 12; inputs = None; seed = 0xDA7A }

let evaluate_sample ~memo ~classes ~app ~n_phases ~input ~phase levels =
  let sched = Schedule.single_phase_active ~n_phases ~phase levels in
  (* No [?exact] override: the driver resolves the baseline through the
     memo's (warm) exact runs, which keeps these evaluations eligible for
     both the checkpoint path and the whole-evaluation memo. *)
  let ev = Driver.evaluate ~memo app sched input in
  {
    input;
    phase;
    levels;
    speedup = ev.speedup;
    qos = ev.qos_degradation;
    iters_ratio = float_of_int ev.outer_iters /. float_of_int (Stdlib.max 1 ev.exact_iters);
    trace_class = Cfmodel.class_of_trace classes ev.trace;
  }

(* One simulator run of the sampling plan. *)
type task = { input : float array; phase : int; levels : int array }

(* The flat sampling plan, in the exact order the sequential nested loops
   used to visit it: input-major, then phase, local sweeps before joint
   samples.  All RNG consumption happens here, sequentially, so the plan
   (and therefore the collected dataset) is a function of the seed alone,
   independent of how many domains later execute it. *)
let sampling_plan ~config ~n_phases ~inputs abs =
  let rng = Rng.create config.seed in
  let tasks = ref [] in
  Array.iter
    (fun input ->
      for phase = 0 to n_phases - 1 do
        (* Exhaustive local sweeps: one AB at a time (paper: "for each AB
           it exhaustively covers the corresponding AL-space, while
           executing all other ABs accurately"). *)
        List.iter
          (fun (_ab, levels) -> tasks := { input; phase; levels } :: !tasks)
          (Config_space.local_sweeps abs);
        (* Sparse random joint samples for the interaction models. *)
        for _ = 1 to config.joint_samples_per_phase do
          let levels = Config_space.random_nonzero rng abs in
          tasks := { input; phase; levels } :: !tasks
        done
      done)
    inputs;
  Array.of_list (List.rev !tasks)

let collect ?(config = default_config) ?pool app ~n_phases =
  if n_phases < 1 then invalid_arg "Training.collect: n_phases must be >= 1";
  Trace.with_span ~cat:"training" "training.collect" @@ fun () ->
  Metrics.incr m_collects;
  let inputs = match config.inputs with Some i -> i | None -> app.App.training_inputs in
  (* One memo for this collection, shared by the pool workers and dropped
     on return. *)
  let memo = Driver.memo () in
  (* Hoist the exact baseline: one golden run per input, computed up front
     (in parallel across inputs) so the memo's exact runs are warm before
     the sampling plan fans out. *)
  let _exacts : Driver.exact_run array =
    Trace.with_span ~cat:"training" "training.exact_baselines" (fun () ->
        Pool.parallel_map ?pool ~grain:1 (Driver.run_exact ~memo app) inputs)
  in
  let classes =
    Trace.with_span ~cat:"training" "training.cfmodel" (fun () ->
        Cfmodel.build ~memo app ~inputs)
  in
  (* The plan visits phases in ascending order per input, so the first
     phase-1 run of an input creates the phase-1 boundary checkpoint, the
     first phase-2 run extends it, and so on — each exact phase prefix is
     simulated at most once per (input, n_phases). *)
  let plan = sampling_plan ~config ~n_phases ~inputs app.App.abs in
  (* Parallelism is hoisted to whole inputs: the plan is input-major and
     contiguous per input, so each group below is one input's full run
     sequence.  One domain owning a whole input walks its phases in
     ascending order — preserving the checkpoint-extension property above
     without cross-domain coordination — and each group is big enough
     (per-input sweep + joint samples) to amortize a steal.  Results are
     concatenated in plan order, so the dataset is bit-identical to the
     flat per-task map at any job count. *)
  let groups =
    let acc = ref [] in
    let start = ref 0 in
    Array.iteri
      (fun i (t : task) ->
        if i > 0 && t.input != plan.(i - 1).input then begin
          acc := (!start, i - !start) :: !acc;
          start := i
        end)
      plan;
    if Array.length plan > 0 then acc := (!start, Array.length plan - !start) :: !acc;
    Array.of_list (List.rev !acc)
  in
  let samples =
    Trace.with_span ~cat:"training" "training.sampling" (fun () ->
        Array.concat
          (Array.to_list
             (Pool.parallel_map ?pool ~grain:1
                (fun (start, len) ->
                  Array.init len (fun j ->
                      let t = plan.(start + j) in
                      evaluate_sample ~memo ~classes ~app ~n_phases ~input:t.input ~phase:t.phase
                        t.levels))
                groups)))
  in
  Metrics.add m_runs (Array.length samples);
  Log.info (fun m ->
      m "collected %d profiling runs for %s (%d phases, %d inputs)" (Array.length samples)
        app.App.name n_phases (Array.length inputs));
  { app; n_phases; samples; classes }

let samples_of_phase t phase =
  Array.of_seq (Seq.filter (fun (s : sample) -> s.phase = phase) (Array.to_seq t.samples))

let local_samples t ~ab ~phase =
  let is_local (s : sample) =
    s.phase = phase
    && s.levels.(ab) > 0
    && Array.for_all (fun l -> l = 0) (Array.mapi (fun i l -> if i = ab then 0 else l) s.levels)
  in
  Array.of_seq (Seq.filter is_local (Array.to_seq t.samples))

let n_runs t = Array.length t.samples

(* -------------------------------------------------------- serialization *)

module Sexp = Opprox_util.Sexp

let sample_to_sexp (s : sample) =
  Sexp.record
    [
      ("input", Sexp.float_array s.input);
      ("phase", Sexp.int s.phase);
      ("levels", Sexp.int_array s.levels);
      ("speedup", Sexp.float s.speedup);
      ("qos", Sexp.float s.qos);
      ("iters_ratio", Sexp.float s.iters_ratio);
      ("trace_class", Sexp.int s.trace_class);
    ]

let sample_of_sexp sexp =
  {
    input = Sexp.to_float_array (Sexp.field sexp "input");
    phase = Sexp.to_int (Sexp.field sexp "phase");
    levels = Sexp.to_int_array (Sexp.field sexp "levels");
    speedup = Sexp.to_float (Sexp.field sexp "speedup");
    qos = Sexp.to_float (Sexp.field sexp "qos");
    iters_ratio = Sexp.to_float (Sexp.field sexp "iters_ratio");
    trace_class = Sexp.to_int (Sexp.field sexp "trace_class");
  }

let to_sexp t =
  Sexp.record
    [
      ("app", Sexp.string t.app.App.name);
      ("n_phases", Sexp.int t.n_phases);
      ("samples", Sexp.list (Array.to_list (Array.map sample_to_sexp t.samples)));
      ("classes", Cfmodel.to_sexp t.classes);
    ]

let of_sexp ~resolve sexp =
  {
    app = resolve (Sexp.to_string_atom (Sexp.field sexp "app"));
    n_phases = Sexp.to_int (Sexp.field sexp "n_phases");
    samples =
      Array.of_list (List.map sample_of_sexp (Sexp.to_list (Sexp.field sexp "samples")));
    classes = Cfmodel.of_sexp (Sexp.field sexp "classes");
  }
