(** Running applications and measuring speedup / QoS degradation.

    The driver owns the protocol the whole system depends on: for a given
    input, first obtain the {e exact} run (golden output, instruction-count
    baseline, and outer-loop iteration count); then execute approximate
    runs whose phase boundaries are derived from the exact iteration count,
    and score them against the golden output.

    Three memo layers avoid re-simulating deterministic work, all
    domain-safe (mutex + stable string keys) and observable through
    {!cache_stats}:

    - {b exact runs} per (application, input) — unbounded, one entry per
      distinct input;
    - {b exact phase-boundary checkpoints} per (application, input,
      n_phases, boundary phase): the paused golden trajectory at the first
      iteration of a phase.  A schedule whose leading phases are all exact
      (e.g. the training sampler's single-phase-active probes) resumes from
      the deepest cached boundary instead of re-simulating the prefix;
    - {b whole evaluations} per (application, input, schedule).

    The determinism contract is hard: a resumed run is bit-identical to
    the scratch run — output, work units, outer iterations and trace — so
    caching is observable only through the counters and the clock. *)

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

val run_exact : App.t -> float array -> exact_run
(** Memoized exact execution of one input. *)

val evaluate : ?exact:exact_run -> App.t -> Schedule.t -> float array -> evaluation
(** [evaluate app sched input] runs [app] on [input] under [sched] and
    scores it against the exact run (computed, or supplied via [?exact] to
    bypass the cache).  The schedule's AB count must match the app's.

    When the app is iterative and the schedule has a non-empty exact phase
    prefix, the run resumes from a memoized checkpoint when one exists and
    saves the boundary checkpoints it passes through.  Evaluations with
    [?exact] omitted are additionally memoized whole; a caller-supplied
    baseline bypasses that memo (the result depends on the baseline). *)

(** {2 Cache control and observability} *)

type cache_stats = {
  hits : int;  (** lookups served from the cache *)
  misses : int;  (** lookups that fell through to real execution *)
  size : int;  (** entries currently resident *)
}

val clear_cache : unit -> unit
(** Drop memoized exact runs (used by timing benchmarks).  Safe to call
    concurrently with lookups from other domains. *)

val clear_checkpoints : unit -> unit
(** Drop memoized phase-boundary checkpoints. *)

val clear_eval_cache : unit -> unit
(** Drop memoized whole evaluations. *)

val clear_all_caches : unit -> unit
(** All three of the above. *)

val set_checkpointing : bool -> unit
(** Enable/disable checkpoint reuse (default on).  Disabling forces every
    run down the scratch path — the bit-identity tests and the scratch arm
    of the checkpoint benchmarks rely on it. *)

val set_eval_cache : bool -> unit
(** Enable/disable the whole-evaluation memo (default on; FIFO-bounded at
    4096 entries). *)

val set_checkpoint_capacity : int -> unit
(** Bound the checkpoint table (FIFO eviction; default 512 entries).
    Lowering the capacity evicts immediately. *)

val memo_shards : unit -> int
(** Number of independent shards each memo table hashes its keys across
    (default 16).  Each shard has its own mutex, so concurrent hot hits
    from pool workers take uncontended locks with high probability. *)

val set_memo_shards : int -> unit
(** Rebuild all three memo tables with the given shard count.  {b Drops
    every cached entry} (counters are untouched).  Sharding only
    partitions keys across locks: hit/miss/save accounting and results
    are identical at any shard count (property-tested against 1 shard). *)

val exact_cache_stats : unit -> cache_stats
val checkpoint_stats : unit -> cache_stats
(** A miss is counted only when checkpointing {e applied} (iterative app,
    exact prefix covering at least one boundary iteration) but no boundary
    was cached — i.e. exactly one of hit/miss per checkpointable run. *)

val eval_cache_stats : unit -> cache_stats

val checkpoint_save_count : unit -> int
(** Boundary checkpoints actually inserted (first writer per key). *)

val reset_cache_stats : unit -> unit
(** Zero every hit/miss/save counter (cache contents are untouched). *)

val exact_run_count : unit -> int
(** Number of exact executions actually performed by this process (cache
    misses, not lookups).  Training asserts "one exact run per input"
    against this counter. *)

val reset_exact_run_count : unit -> unit

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
