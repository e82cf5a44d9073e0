(** The plan-serving daemon.

    OPPROX's deployment story is "train offline, optimize at
    job-submission time from the stored models".  This server is that
    submission-time step turned into a long-lived service: trained
    pipelines are loaded {e once} at startup (audited by the
    {!Opprox_analysis} model lints on the way in), and each request —
    app, input, budget — costs one plan-cache lookup or one optimizer
    solve, never a process start or a model load.

    {2 Request path}

    + {b Admission} — an atomic in-flight counter; a request arriving
      while [max_inflight] are already in flight is shed with an explicit
      [Overloaded] reply (never queued invisibly, never crashed into).
    + {b Validation} — {!Opprox_analysis.Lint_request} at the boundary:
      bad budget, unknown app, stale models hash, malformed input each
      produce a structured [SRV***]-coded [Error] reply.
    + {b Corpus} — with [corpus_path] set, the precomputed plan corpus
      ({!Opprox_corpus.Corpus}) answers first: an exact fingerprint hit
      is served straight off the mmap (no lock, no LRU churn,
      [corpus.hits]); failing that, the nearest budget-grid cell {e at
      or below} the requested budget is re-audited
      ({!Opprox.Optimizer.lint}) and served ([corpus.nn_hits]) — the
      tightened plan can only be more conservative than what a fresh
      solve would return.
    + {b Cache} — {!Plancache} keyed by the canonical fingerprint of
      (app, input bits, models hash, budget bits).  With
      [cache_snapshot] set, the LRU is restored from the snapshot at
      startup and saved after the shutdown drain.  A snapshot is rejected
      wholesale ([plancache.restore.rejected], an empty LRU) when its
      models hashes differ from the served ones, when it does not decode,
      or when any restored plan fails the {!Opprox.Optimizer.lint} audit.
    + {b Deadline} — cooperative: checked after the lookups miss and
      again, per request, when the solve comes back.  A missed deadline
      replies [Timeout] (the solved plan still enters the cache, so the
      retry hits).
    + {b Solve} — {!Opprox.optimize} on a {!Opprox_util.Pool} worker
      domain, which runs the solve and nothing else: everything above,
      the cache insert and every reply run on the caller — for the socket
      transport, the select loop.  The loop keeps one solve per
      fingerprint in flight: a miss on a key already being solved waits
      for that solve ([server.singleflight.coalesced]) and is answered
      from it as solved; any other miss starts one
      ([server.singleflight.leaders]).  The in-process {!handle} solves
      inline and coalesces nothing.

    The same path backs both transports: the Unix-domain-socket select
    loop ({!serve}) and the in-process loopback ({!handle}) that tests
    and the bench suite hammer without forking.

    Every request is instrumented through {!Opprox_obs}: [server.*]
    counters/histograms/gauge, [plancache.*] counters, and a
    [server.request] / [server.solve] span pair per request. *)

type config = {
  jobs : int option;
      (** size of the pool that runs solves (cache misses and telemetry
          re-solves); [None] = the shared {!Opprox_util.Pool.default}
          pool.  A worker only solves; connections, the cache and the
          replies stay on the select loop.  With one job, solves run on
          the select loop itself. *)
  max_inflight : int;
      (** admission bound, counted per open connection; default 64, at
          most {!max_inflight_limit} *)
  cache_capacity : int;  (** plan-cache entries; default 512 *)
  cache_shards : int;
      (** default 8; only the select loop and in-process {!handle}
          calls touch the cache *)
  default_deadline_ms : float option;
      (** applied to requests that carry no deadline; default [None] *)
  idle_timeout_s : float;
      (** a connection with no traffic in either direction for this long
          is closed by the select loop's deadline sweep — so an idle
          client, or one that stops reading its replies, cannot hold an
          admission slot forever; a connection waiting on its solve is
          never idle.  Default 30 s *)
  drain_timeout_s : float;
      (** bound on waiting for in-flight requests at shutdown; default 10 s *)
  corpus_path : string option;
      (** precomputed plan corpus to consult before cache and solve;
          default [None].  {!create} raises [Failure] on a structurally
          invalid file — a bad corpus must fail at startup. *)
  cache_snapshot : string option;
      (** path for LRU persistence: restored at startup when the file
          exists, saved after the shutdown drain; default [None] *)
}

val default_config : config

val max_inflight_limit : int
(** Largest accepted [max_inflight] (960): [select] watches only
    descriptors below FD_SETSIZE (1024), and 64 are kept for the
    daemon's other open files. *)

type t

val create : ?config:config -> Opprox.trained list -> t
(** Build a server holding the given trained pipelines.  Each model set
    is audited ({!Opprox.Models.lint}): findings are logged, and
    Error-severity findings raise
    {!Opprox_analysis.Diagnostic.Lint_error} — a corrupt model file must
    fail at startup, not per request.  Raises [Invalid_argument] on
    duplicate app names, an empty list, or a [max_inflight] outside
    [1 .. max_inflight_limit]. *)

val apps : t -> string list
(** Application names served, sorted. *)

val models_hash : t -> string -> string option
(** MD5 (hex) of the serialized model set for one app — what replies
    report and [SRV003] checks client assertions against. *)

val handle : t -> Protocol.request -> Protocol.response
(** In-process loopback: the full admission / validation / cache /
    deadline / solve path without any socket.  Never raises on request
    defects — they come back as [Error] replies; programming errors
    inside the server itself still raise. *)

val handle_telemetry : t -> Protocol.telemetry -> Protocol.response
(** Streaming-recontrol loopback: answer one phase-boundary telemetry
    frame from a controlled run.  Drift at or below the frame's
    [drift_tol] is acknowledged with [PlanDelta No_change]; drift past it
    re-solves the remaining phases against the remaining budget on the
    run's actual input ({!Opprox.Optimizer.solver} with [~first_phase])
    and replies [PlanDelta (Replan _)].  Unknown apps, bad inputs, and
    malformed fields come back as [SRV***]-coded [Error] replies.  The
    socket path dispatches [(kind telemetry)] frames here
    ([server.telemetry] / [server.plan_deltas] metrics). *)

val serve : t -> socket:string -> unit
(** Bind [socket] (an existing stale socket file is replaced), then serve
    until {!stop} from one [select] loop on the calling domain.  The loop
    watches the listen socket, every admitted connection, and a wake-up
    pipe; an idle connection costs a file descriptor, never a domain.

    Each connection keeps its own read buffer ({!Protocol.Splitter}): one
    [read] per readable event, and a frame is handled only once it is
    complete.  Validation, the corpus / LRU lookups, the cache insert
    and every reply run on the loop; a pool worker only runs the solve of
    a miss (or a telemetry re-solve) and hands its result back through the
    pipe.  Identical misses share one solve.  A connection's frames are
    answered in order — pipelined frames wait for the solve ahead of
    them.  Replies are written non-blocking: a client that does not read
    keeps at most one reply pending and is not read from until it
    drains, so it never stalls other connections.

    Admission is checked per accepted connection; shed connections get
    one [Overloaded] frame and are closed.  Frame-level garbage gets an
    [SRV004] reply, including a frame cut short by EOF.  SIGPIPE is
    ignored, so a peer that hangs up costs only its own connection.  On
    {!stop}: stop accepting, close idle connections at once, wait up to
    [drain_timeout_s] for dispatched solves and unwritten replies (a
    connection still waiting then is closed without a reply), save the
    cache snapshot, remove the socket file, return.  Raises
    [Unix.Unix_error] if the socket cannot be bound. *)

val stop : t -> unit
(** Request shutdown — one atomic store, safe from a signal handler.
    {!serve} notices within ~50 ms. *)

val install_signal_handlers : t -> unit
(** Route SIGINT and SIGTERM to {!stop} for a graceful drain. *)

val cache_stats : t -> Plancache.stats
val cache_clear : t -> unit

val corpus : t -> Opprox_corpus.Corpus.t option
(** The loaded plan corpus, when [corpus_path] was set. *)

val save_cache_snapshot : t -> string -> unit
(** Write the live LRU (values plus per-shard recency order) and the
    served (app, models hash) pairs to a snapshot file, atomically.
    Raises [Failure] on IO errors.  {!serve} calls this after the drain
    when [cache_snapshot] is set. *)

val restore_cache_snapshot : t -> string -> bool
(** Replay a snapshot into the live LRU, auditing every plan against its
    models ({!Opprox.Optimizer.lint}).  [false] — with a warning, a
    [plancache.restore.rejected] bump and an emptied LRU — when the file
    is unreadable, does not decode, is stamped with models hashes that
    differ from the served pipelines, or holds a plan that fails the
    audit; a bad file never raises.  {!create} calls this at startup when
    [cache_snapshot] names an existing file. *)

val inflight : t -> int
(** Requests currently admitted (socket connections being served plus
    in-process {!handle} calls in progress). *)
