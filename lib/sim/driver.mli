(** Running applications and measuring speedup / QoS degradation.

    The driver owns the protocol the whole system depends on: for a given
    input, first obtain the {e exact} run (golden output, instruction-count
    baseline, and outer-loop iteration count); then execute approximate
    runs whose phase boundaries are derived from the exact iteration count,
    and score them against the golden output.

    Deterministic work is memoised in a {!memo}, a value the caller
    creates, passes and drops.  The offline stages that re-simulate
    shared prefixes ([Phases.search], [Training.collect]) each create one
    for their call, share it with their pool workers (the tables are
    sharded, one mutex per shard) and let it go when they return, so
    nothing a stage simulated outlives it; stages that score everything
    against one baseline ([Controller.run], [Oracle.measured_space])
    pass it with [?exact] and need none.  A memo holds three layers:

    - {b exact runs} per (application, input), one entry per distinct
      input;
    - {b exact phase-boundary checkpoints} per (application, input,
      n_phases, boundary phase): the paused golden trajectory at the first
      iteration of a phase.  A schedule whose leading phases are all exact
      (e.g. the training sampler's single-phase-active probes) resumes from
      the deepest cached boundary instead of re-simulating the prefix
      (FIFO-bounded at 512 entries);
    - {b whole evaluations} per (application, input, schedule)
      (FIFO-bounded at 4096 entries).

    Without a memo, {!run_exact} and {!evaluate} simulate from scratch:
    that is the reference path the bit-identity tests compare against.
    The determinism contract is hard: a resumed or memoised run is
    bit-identical to the scratch run — output, work units, outer
    iterations and trace — so a memo is observable only through the
    [driver.*] counters of {!Opprox_obs.Metrics} and the clock. *)

type exact_run = {
  output : float array;
  work : int;
  iters : int;  (** outer-loop iterations of the exact run *)
  trace : int list;  (** AB call-context sequence (control-flow signature) *)
}

type evaluation = {
  sched : Schedule.t;
  qos_degradation : float;  (** percent, >= 0, 0 = golden *)
  psnr : float option;  (** only for [Psnr] applications *)
  speedup : float;  (** exact work / approximate work *)
  work : int;
  outer_iters : int;
  exact_iters : int;
  trace : int list;
  work_per_ab : int array;
  work_per_phase : int array;
}

type memo
(** The three memo tables of one stage; safe to share across domains. *)

val memo : unit -> memo
(** A fresh, empty memo. *)

val run_exact : ?memo:memo -> App.t -> float array -> exact_run
(** Exact execution of one input, looked up in and added to [?memo]
    when one is given. *)

val evaluate :
  ?memo:memo -> ?exact:exact_run -> App.t -> Schedule.t -> float array -> evaluation
(** [evaluate app sched input] runs [app] on [input] under [sched] and
    scores it against the exact run (computed, or supplied via [?exact]).
    The schedule's AB count must match the app's.

    With [?memo], an iterative app whose schedule has a non-empty exact
    phase prefix resumes from the memo's deepest checkpoint and saves the
    boundary checkpoints it passes through, and evaluations with [?exact]
    omitted are memoised whole; a caller-supplied baseline bypasses that
    memo (the result depends on the baseline).  Without [?memo] the run
    starts from scratch.

    Counters: [driver.exact.run] (exact executions), [driver.exact.hit];
    [driver.ckpt.hit] / [driver.ckpt.miss] (exactly one per memoised run
    whose exact prefix covers at least one boundary iteration),
    [driver.ckpt.save] (boundary checkpoints inserted, first writer per
    key); [driver.eval.hit] / [driver.eval.miss]. *)

val clear_all_caches : unit -> unit
(** Does nothing: memos are scoped to the stage that creates them, so no
    process-wide table is left to clear.  Kept only because the
    end-to-end benchmark ([bench/e2e/offline.ml]) still calls it. *)

val input_key : App.t -> float array -> string
(** Stable memo key for an (application, input) pair: the application
    name plus the IEEE-754 bit pattern of every input component.  Shared
    with {!Oracle}'s measured-space memo. *)

val phase_boundary : n_phases:int -> i_total:int -> int -> int
(** [phase_boundary ~n_phases ~i_total q] is the first outer iteration of
    phase [q] when [i_total] exact iterations are split over [n_phases]
    phases: [ceil (q * i_total / n_phases)].  This is the boundary the
    checkpoint cache keys on; the runtime controller uses it to step a
    live instance phase by phase and to snapshot at exactly the
    iterations the driver's own checkpoints would. *)

val seed_for : App.t -> float array -> int
(** The deterministic RNG seed the driver uses for a given input: the
    app seed and the IEEE-754 bits of every input component folded through
    SplitMix64's finaliser.  Stable across processes and OCaml versions
    (no dependence on [Hashtbl.hash]); exposed so tests can reproduce
    runs. *)
