module App = Opprox_sim.App
module Diagnostic = Opprox_analysis.Diagnostic
module Lint_request = Opprox_analysis.Lint_request
module Metrics = Opprox_obs.Metrics
module Trace = Opprox_obs.Trace
module Dmutex = Opprox_util.Dmutex
module Guarded = Opprox_util.Guarded
module Pool = Opprox_util.Pool
module Sexp = Opprox_util.Sexp

let log_src = Logs.Src.create "opprox.serve" ~doc:"OPPROX plan-serving daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_requests = Metrics.counter "server.requests"
let m_connections = Metrics.counter "server.connections"
let m_overloaded = Metrics.counter "server.overloaded"
let m_timeouts = Metrics.counter "server.timeouts"
let m_errors = Metrics.counter "server.errors"
let m_inflight = Metrics.gauge "server.inflight"
let m_request_us = Metrics.histogram "server.request_us"
let m_solve_us = Metrics.histogram "server.solve_us"
let m_sf_leaders = Metrics.counter "server.singleflight.leaders"
let m_sf_coalesced = Metrics.counter "server.singleflight.coalesced"
let m_telemetry = Metrics.counter "server.telemetry"
let m_deltas = Metrics.counter "server.plan_deltas"
let m_corpus_hits = Metrics.counter "corpus.hits"
let m_corpus_misses = Metrics.counter "corpus.misses"
let m_corpus_nn_hits = Metrics.counter "corpus.nn_hits"
let m_restore_rejected = Metrics.counter "plancache.restore.rejected"

module Corpus = Opprox_corpus.Corpus
module Key = Opprox_corpus.Key

type config = {
  jobs : int option;
  max_inflight : int;
  cache_capacity : int;
  cache_shards : int;
  default_deadline_ms : float option;
  idle_timeout_s : float;
  drain_timeout_s : float;
  corpus_path : string option;
  cache_snapshot : string option;
}

let default_config =
  {
    jobs = None;
    max_inflight = 64;
    cache_capacity = 512;
    cache_shards = 8;
    default_deadline_ms = None;
    idle_timeout_s = 30.0;
    drain_timeout_s = 10.0;
    corpus_path = None;
    cache_snapshot = None;
  }

type served = { trained : Opprox.trained; hash : string }

type t = {
  config : config;
  served : (string, served) Hashtbl.t;
  target : Lint_request.target;
  cache : Protocol.response Plancache.t;
      (* cached values are always [Plan {cache = Miss; ...}] templates;
         hits re-stamp the cache status and elapsed time *)
  corpus : Corpus.t option;
  pool : Pool.t option;  (* [None]: the shared default pool *)
  inflight : int Atomic.t;
  stopping : bool Atomic.t;
}

(* --------------------------------------------------------- cache snapshots *)

let sorted_served t =
  Hashtbl.fold (fun app s acc -> (app, s.hash) :: acc) t.served []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The snapshot records the models the LRU was warmed against; a restore
   into a server holding different models is rejected wholesale (the
   entries could never hit anyway — their fingerprints embed the hash —
   so restoring them would only displace live capacity). *)
let save_cache_snapshot t path =
  Sexp.save path
    (Sexp.record
       [
         ( "models",
           Sexp.list
             (List.map
                (fun (app, h) -> Sexp.list [ Sexp.string app; Sexp.string h ])
                (sorted_served t)) );
         ("cache", Plancache.to_sexp Protocol.response_to_sexp t.cache);
       ])

(* Exceptions no request or file defect can cause; everything else is
   answered or reported, never allowed to take the daemon down. *)
let fatal = function
  | Stdlib.Exit | Stack_overflow | Out_of_memory | Assert_failure _ -> true
  | _ -> false

(* Every restored plan is audited against the models it claims, as a
   nearest-neighbour corpus hit is: a snapshot is served unchecked from
   then on, so one bad entry rejects it whole. *)
let restore_cache_snapshot t path =
  let audit = function
    | Protocol.Plan p as reply -> (
        match Seq.find (fun s -> s.hash = p.models_hash) (Hashtbl.to_seq_values t.served) with
        | None -> failwith "a cached plan names no served models"
        | Some s -> (
            match
              Diagnostic.errors (Opprox.Optimizer.lint ~models:s.trained.Opprox.models p.plan)
            with
            | [] -> reply
            | d :: _ ->
                failwith (Format.asprintf "a cached plan fails the audit: %a" Diagnostic.pp d)))
    | _ -> failwith "a cached value is not a plan"
  in
  match
    let sexp = Sexp.load path in
    let recorded =
      List.map
        (fun e ->
          match Sexp.to_list e with
          | [ app; h ] -> (Sexp.to_string_atom app, Sexp.to_string_atom h)
          | _ -> failwith "malformed models entry")
        (Sexp.to_list (Sexp.field sexp "models"))
    in
    List.iter
      (fun (app, h) ->
        match Hashtbl.find_opt t.served app with
        | Some s when s.hash = h -> ()
        | _ ->
            failwith
              (Printf.sprintf "models hash mismatch for %s (snapshot predates a retrain?)" app))
      recorded;
    Plancache.restore
      (fun v -> audit (Protocol.response_of_sexp v))
      t.cache (Sexp.field sexp "cache")
  with
  | n ->
      Log.app (fun m -> m "restored %d cached plan(s) from %s" n path);
      true
  | exception e when not (fatal e) ->
      Plancache.clear t.cache;
      Metrics.incr m_restore_rejected;
      Log.warn (fun m ->
          m "cache snapshot %s rejected: %s" path
            (match e with Failure msg -> msg | e -> Printexc.to_string e));
      false

(* [select] watches only descriptors below FD_SETSIZE (1024).  Admitted
   connections share that range with everything else the daemon holds
   open — standard streams, the listen socket, the wake-up pipe, log and
   model files, one connection being shed — for which 64 are kept. *)
let max_inflight_limit = 1024 - 64

let create ?(config = default_config) pipelines =
  if pipelines = [] then invalid_arg "Server.create: no trained pipelines";
  if config.max_inflight < 1 then invalid_arg "Server.create: max_inflight must be >= 1";
  if config.max_inflight > max_inflight_limit then
    invalid_arg
      (Printf.sprintf
         "Server.create: max_inflight must be <= %d (select watches descriptors below 1024)"
         max_inflight_limit);
  let served = Hashtbl.create (List.length pipelines) in
  List.iter
    (fun (tr : Opprox.trained) ->
      let name = tr.Opprox.app.App.name in
      if Hashtbl.mem served name then
        invalid_arg (Printf.sprintf "Server.create: duplicate models for %s" name);
      (* Loading already audited (Models.of_sexp); re-audit here so
         in-process construction from a fresh [train] gets the same
         fail-at-startup guarantee as the daemon's load path. *)
      let diags = Opprox.Models.lint tr.Opprox.models in
      List.iter (fun d -> Log.info (fun m -> m "%s: %a" name Diagnostic.pp d)) diags;
      Diagnostic.raise_errors ~strict:false diags;
      (* The corpus precompute stamps its entries with the same digest;
         the two must never drift, so both call one helper. *)
      let hash = Opprox_corpus.Precompute.models_hash tr in
      Hashtbl.add served name { trained = tr; hash })
    pipelines;
  let known_apps = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) served []) in
  let target =
    {
      Lint_request.known_apps;
      param_arity =
        (fun app ->
          Option.map
            (fun s -> Array.length s.trained.Opprox.app.App.param_names)
            (Hashtbl.find_opt served app));
      expected_hash = (fun app -> Option.map (fun s -> s.hash) (Hashtbl.find_opt served app));
    }
  in
  let corpus =
    match config.corpus_path with
    | None -> None
    | Some path ->
        let c = Corpus.load path in
        (* A stale stamp can never produce a wrong answer — the hash is
           part of every fingerprint, so lookups just miss — but it turns
           the corpus into dead weight; say so at startup. *)
        List.iter
          (fun (app, h) ->
            match Hashtbl.find_opt served app with
            | Some s when s.hash <> h ->
                Log.warn (fun m ->
                    m "corpus %s: stale models hash for %s (CORP001); its plans cannot hit"
                      path app)
            | _ -> ())
          (Corpus.apps c);
        Log.app (fun m ->
            m "corpus %s: %d precomputed plans over %d app(s)" path (Corpus.length c)
              (List.length (Corpus.apps c)));
        Some c
  in
  let t =
    {
      config;
      served;
      target;
      cache = Plancache.create ~shards:config.cache_shards ~capacity:config.cache_capacity ();
      corpus;
      pool = Option.map (fun jobs -> Pool.create ~jobs ()) config.jobs;
      inflight = Atomic.make 0;
      stopping = Atomic.make false;
    }
  in
  (match config.cache_snapshot with
  | Some path when Sys.file_exists path -> ignore (restore_cache_snapshot t path)
  | _ -> ());
  t

let apps t = t.target.Lint_request.known_apps
let models_hash t app = t.target.Lint_request.expected_hash app
let cache_stats t = Plancache.stats t.cache
let cache_clear t = Plancache.clear t.cache
let corpus t = t.corpus
let inflight t = Atomic.get t.inflight

(* ------------------------------------------------------------ request path *)

(* What a solve produced: a plan, or the diagnostics it failed with. *)
type solved = (Opprox.Optimizer.plan, Diagnostic.t list) result

(* A solve the lookups could not avoid.  A pool worker runs [solve] and
   nothing else; the caller — the select loop, or [handle] inline — runs
   [commit] once per solve, then [finish] once per request waiting on it. *)
type job = {
  key : string option;
      (* a plan request's fingerprint: a duplicate arriving while this
         solve runs waits for it instead of starting its own *)
  solve : unit -> solved;
  commit : solved -> unit;
  finish : solved -> Protocol.response;
}

(* What the request ladder decided on the calling domain: the reply, or a
   solve still to run. *)
type step = Reply of Protocol.response | Solve of job

let timed_solve f : solved =
  let t_solve = Trace.now_us () in
  match Trace.with_span ~cat:"server" "server.solve" f with
  | plan ->
      Metrics.observe m_solve_us (Trace.now_us () -. t_solve);
      Ok plan
  | exception Diagnostic.Lint_error ds -> Error ds
  | exception e when not (fatal e) -> Error [ Lint_request.internal (Printexc.to_string e) ]

let error_reply ds =
  Metrics.incr m_errors;
  Protocol.Error ds

(* Validate + lookups for one admitted request, and the deadline-checked
   solve when they all miss.  [t0_us] is when the request entered the
   server (frame fully read, or [handle] called); the deadline and the
   latency histogram both measure from there. *)
let process t (req : Protocol.request) ~t0_us =
  Metrics.incr m_requests;
  Trace.with_span ~cat:"server" "server.request" (fun () ->
      let elapsed_ms () = (Trace.now_us () -. t0_us) /. 1000.0 in
      let view =
        {
          Lint_request.app = req.Protocol.app;
          budget = req.Protocol.budget;
          input = req.Protocol.input;
          models_hash = req.Protocol.models_hash;
          deadline_ms = req.Protocol.deadline_ms;
        }
      in
      let diags = Lint_request.check t.target view in
      if Diagnostic.errors diags <> [] then Reply (error_reply diags)
      else begin
        let served = Hashtbl.find t.served req.Protocol.app in
        let input =
          match req.Protocol.input with
          | Some i -> i
          | None -> served.trained.Opprox.app.App.default_input
        in
        let deadline_ms =
          match req.Protocol.deadline_ms with
          | Some d -> Some d
          | None -> t.config.default_deadline_ms
        in
        let timed_out () =
          match deadline_ms with Some d -> elapsed_ms () > d | None -> false
        in
        let timeout () =
          Metrics.incr m_timeouts;
          Protocol.Timeout
            { elapsed_ms = elapsed_ms (); deadline_ms = Option.get deadline_ms }
        in
        let group = Key.group ~app:req.Protocol.app ~input ~models_hash:served.hash in
        let key = Key.of_group ~group ~budget:req.Protocol.budget in
        (* Lookup-first, most- to least-precomputed: corpus exact hit,
           then the adjacent budget-grid cell (conservative tightening,
           re-audited before reply), then the LRU.  Only a miss through
           all three pays a solve. *)
        let corpus_lookup () =
          match t.corpus with
          | None -> None
          | Some c -> (
              match Corpus.find c key with
              | Some plan ->
                  Metrics.incr m_corpus_hits;
                  Some (plan, Protocol.Corpus)
              | None -> (
                  match Corpus.find_nn c ~group ~budget:req.Protocol.budget with
                  | Some (nn_budget, plan) ->
                      let diags =
                        Opprox.Optimizer.lint ~models:served.trained.Opprox.models plan
                      in
                      if Diagnostic.errors diags = [] then begin
                        Metrics.incr m_corpus_nn_hits;
                        Some (plan, Protocol.Nearest)
                      end
                      else begin
                        Log.warn (fun m ->
                            m "corpus nn candidate (budget %g) failed the plan audit; solving"
                              nn_budget);
                        Metrics.incr m_corpus_misses;
                        None
                      end
                  | None ->
                      Metrics.incr m_corpus_misses;
                      None))
        in
        let lookup () =
          if req.Protocol.no_cache then None
          else
            match corpus_lookup () with
            | Some (plan, status) ->
                Some
                  (Protocol.Plan
                     { plan; cache = status; models_hash = served.hash; elapsed_ms = 0.0 })
            | None -> (
                match Plancache.find t.cache key with
                | Some (Protocol.Plan p) -> Some (Protocol.Plan { p with cache = Protocol.Hit })
                | Some _ | None -> None)
        in
        let solved_reply plan elapsed_ms =
          Protocol.Plan { plan; cache = Protocol.Miss; models_hash = served.hash; elapsed_ms }
        in
        match lookup () with
        | Some (Protocol.Plan p) -> Reply (Protocol.Plan { p with elapsed_ms = elapsed_ms () })
        | Some r -> Reply r
        | None when timed_out () -> Reply (timeout ())
        | None ->
            Solve
              {
                key = Some key;
                solve =
                  (fun () ->
                    timed_solve (fun () ->
                        Opprox.optimize ~input served.trained ~budget:req.Protocol.budget));
                commit =
                  (function
                  | Ok plan -> Plancache.add t.cache key (solved_reply plan 0.0)
                  | Error _ -> ());
                finish =
                  (function
                  | Error ds -> error_reply ds
                  (* The plan is kept (so the retry hits the cache), but a
                     missed deadline still gets an honest timeout reply. *)
                  | Ok _ when timed_out () -> timeout ()
                  | Ok plan -> solved_reply plan (elapsed_ms ()));
              }
      end)

(* ---------------------------------------------------------- telemetry path *)

(* Answer one phase-boundary telemetry frame from a controlled run:
   below-tolerance drift is acknowledged with [No_change]; anything past
   it re-solves the remaining phases against the remaining budget on the
   input the run is actually executing.  The suffix solve reuses the
   plan-request machinery's models but none of its caches — telemetry
   budgets are continuous (remaining budget after an arbitrary drift),
   so fingerprint reuse would be noise.  Only the re-solve is a [Solve]
   step. *)
let process_telemetry t (tm : Protocol.telemetry) ~t0_us =
  Metrics.incr m_telemetry;
  Trace.with_span ~cat:"server" "server.telemetry" (fun () ->
      let elapsed_ms () = (Trace.now_us () -. t0_us) /. 1000.0 in
      let view =
        {
          Lint_request.app = tm.Protocol.t_app;
          budget = tm.Protocol.plan_budget;
          input = tm.Protocol.t_input;
          models_hash = None;
          deadline_ms = None;
        }
      in
      let shape_diags =
        let bad fmt = Printf.ksprintf (fun m -> [ Lint_request.malformed m ]) fmt in
        if tm.Protocol.n_phases < 1 then bad "telemetry: n_phases %d < 1" tm.Protocol.n_phases
        else if tm.Protocol.phase < 0 || tm.Protocol.phase >= tm.Protocol.n_phases then
          bad "telemetry: phase %d outside 0..%d" tm.Protocol.phase (tm.Protocol.n_phases - 1)
        else if not (Float.is_finite tm.Protocol.drift && tm.Protocol.drift >= 0.0) then
          bad "telemetry: non-finite or negative drift"
        else if not (Float.is_finite tm.Protocol.remaining_budget) then
          bad "telemetry: non-finite remaining budget"
        else []
      in
      let diags = shape_diags @ Lint_request.check t.target view in
      if Diagnostic.errors diags <> [] then Reply (error_reply diags)
      else if tm.Protocol.drift <= tm.Protocol.drift_tol then
        Reply (Protocol.PlanDelta { delta = Protocol.No_change; elapsed_ms = elapsed_ms () })
      else begin
        let trained = (Hashtbl.find t.served tm.Protocol.t_app).trained in
        let input =
          match tm.Protocol.t_input with
          | Some i -> i
          | None -> trained.Opprox.app.App.default_input
        in
        let from_phase = tm.Protocol.phase + 1 in
        Solve
          {
            key = None;
            solve =
              (fun () ->
                timed_solve (fun () ->
                    Opprox.Optimizer.solver ~models:trained.Opprox.models ~roi:trained.Opprox.roi
                      ~input () ~first_phase:from_phase
                      ~budget:(Float.max 0.0 tm.Protocol.remaining_budget)
                      ()));
            commit = ignore;
            finish =
              (function
              | Error ds -> error_reply ds
              | Ok plan ->
                  Metrics.incr m_deltas;
                  Log.info (fun m ->
                      m
                        "%s: drift %.2f > tol %.2f after phase %d; replanned phases %d.. \
                         against budget %.3f"
                        tm.Protocol.t_app tm.Protocol.drift tm.Protocol.drift_tol
                        tm.Protocol.phase from_phase tm.Protocol.remaining_budget);
                  Protocol.PlanDelta
                    { delta = Protocol.Replan { from_phase; plan }; elapsed_ms = elapsed_ms () });
          }
      end)

(* Admission around one request: bump the in-flight counter, shed when
   over the bound. *)
let with_admission t f =
  let n = Atomic.fetch_and_add t.inflight 1 in
  Metrics.set m_inflight (float_of_int (n + 1));
  Fun.protect
    ~finally:(fun () ->
      let n = Atomic.fetch_and_add t.inflight (-1) in
      Metrics.set m_inflight (float_of_int (n - 1)))
    (fun () ->
      if n >= t.config.max_inflight then begin
        Metrics.incr m_overloaded;
        Protocol.Overloaded { inflight = n; limit = t.config.max_inflight }
      end
      else f ())

(* The in-process path runs a solve on the calling domain, with no
   coalescing: concurrent duplicates each solve. *)
let run_step = function
  | Reply r -> r
  | Solve job ->
      let solved = job.solve () in
      job.commit solved;
      job.finish solved

let run_inline t process x =
  let t0_us = Trace.now_us () in
  let resp = with_admission t (fun () -> run_step (process t x ~t0_us)) in
  Metrics.observe m_request_us (Trace.now_us () -. t0_us);
  resp

let handle t req = run_inline t process req
let handle_telemetry t tm = run_inline t process_telemetry tm

(* ------------------------------------------------------------- socket side *)

(* One admitted connection; only the select loop touches it. *)
type conn = {
  fd : Unix.file_descr;
  frames : Protocol.Splitter.t;
  mutable out : string;  (* the reply being written, from [out_off] on *)
  mutable out_off : int;
  mutable busy : bool;  (* a request waits on a solve; later frames wait behind it *)
  mutable eof : bool;  (* the peer has sent its last byte *)
  mutable closing : bool;  (* close once [out] is flushed *)
  mutable last_io_us : float;  (* the idle deadline runs from here *)
}

(* A dispatched solve and the requests waiting on it, newest first: the
   one that started it, then every duplicate that arrived while it ran. *)
type flight = { mutable waiting : (conn * float * job) list (* connection, t0_us, job *) }

(* The select loop's state.  Workers touch only [handback], under [lock],
   and the wake-up pipe's write end. *)
type reactor = {
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* every admitted connection *)
  flights : (string, flight) Hashtbl.t;  (* plan solves running, by fingerprint *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lock : Dmutex.t;
  handback : (flight * solved) list option Guarded.t;
      (* solves finished by workers, newest first; [None] once the loop
         has exited, and a solve finishing later is dropped *)
}

let pending c = c.out_off < String.length c.out

(* Close a connection and give back its admission slot. *)
let release t fd =
  let n = Atomic.fetch_and_add t.inflight (-1) in
  Metrics.set m_inflight (float_of_int (n - 1));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Write as much of the pending reply as the socket takes now; the rest
   waits for the write set.  A transport error — EPIPE from a peer that
   hung up, SIGPIPE being ignored — drops the reply and marks the
   connection for closing. *)
let rec flush c =
  if pending c then
    match Unix.single_write_substring c.fd c.out c.out_off (String.length c.out - c.out_off) with
    | n ->
        c.out_off <- c.out_off + n;
        c.last_io_us <- Trace.now_us ();
        flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush c
    | exception Unix.Unix_error (e, _, _) ->
        Log.debug (fun m -> m "connection dropped: %s" (Unix.error_message e));
        c.out <- "";
        c.out_off <- 0;
        c.closing <- true

let send c ~t0_us resp =
  Metrics.observe m_request_us (Trace.now_us () -. t0_us);
  c.out <- Protocol.encode_frame (Protocol.response_to_sexp resp);
  c.out_off <- 0;
  flush c

(* Decode one complete frame.  A well-framed but invalid payload gets an
   SRV004/SRV005 reply and the connection stays open. *)
let step_of_frame t frame ~t0_us =
  let malformed msg = Reply (error_reply [ Lint_request.malformed msg ]) in
  match Protocol.frame_version frame with
  | v when v <> Protocol.version -> Reply (error_reply [ Lint_request.bad_version ~got:v ])
  | _ -> (
      match (try Protocol.frame_kind frame with Failure _ -> "<malformed>") with
      | "telemetry" -> (
          match Protocol.telemetry_of_sexp frame with
          | exception Failure msg -> malformed msg
          | tm -> process_telemetry t tm ~t0_us)
      | "request" -> (
          match Protocol.request_of_sexp frame with
          | exception Failure msg -> malformed msg
          | req -> process t req ~t0_us)
      | k -> malformed (Printf.sprintf "unknown frame kind %S" k))

(* Worker side: queue a finished solve for the loop and wake it.  The
   wake byte is written under the lock, so it never lands in a pipe the
   exiting loop has closed. *)
let hand_back r f solved =
  Dmutex.lock r.lock;
  (match Guarded.get r.handback with
  | Some finished -> (
      Guarded.set r.handback (Some ((f, solved) :: finished));
      (* A full pipe already guarantees a wake-up. *)
      try ignore (Unix.single_write_substring r.wake_w "!" 0 1) with Unix.Unix_error _ -> ())
  | None -> ());
  Dmutex.unlock r.lock

(* Park the connection on the solve already running for its fingerprint,
   or start one on a pool worker. *)
let dispatch t r c ~t0_us job =
  c.busy <- true;
  match Option.bind job.key (Hashtbl.find_opt r.flights) with
  | Some f ->
      Metrics.incr m_sf_coalesced;
      f.waiting <- (c, t0_us, job) :: f.waiting
  | None ->
      let f = { waiting = [ (c, t0_us, job) ] } in
      Option.iter
        (fun key ->
          Metrics.incr m_sf_leaders;
          Hashtbl.replace r.flights key f)
        job.key;
      Pool.async ?pool:t.pool (fun () ->
          match job.solve () with
          | solved -> hand_back r f solved
          | exception e ->
              hand_back r f (Error [ Lint_request.internal (Printexc.to_string e) ]);
              raise e)

(* Answer the connection's buffered frames in order until one waits on a
   solve, a reply is left half-written, or no complete frame is left.  A
   drain starts nothing new. *)
let rec pump t r c =
  if not (c.busy || c.closing || pending c || Atomic.get t.stopping) then
    let frame_error msg =
      (* A frame that cannot be split or parsed ends the connection,
         after one reply. *)
      send c ~t0_us:(Trace.now_us ()) (error_reply [ Lint_request.malformed msg ]);
      c.closing <- true
    in
    match Protocol.Splitter.next c.frames with
    | exception Failure msg -> frame_error msg
    | Some frame ->
        let t0_us = Trace.now_us () in
        (match step_of_frame t frame ~t0_us with
        | Reply resp -> send c ~t0_us resp
        | Solve job -> dispatch t r c ~t0_us job);
        pump t r c
    | None when c.eof -> (
        match Protocol.Splitter.finish c.frames with
        | () -> c.closing <- true
        | exception Failure msg -> frame_error msg)
    | None -> ()

(* A solve is back: cache its plan, answer every request waiting on it in
   arrival order, each against its own deadline, then go on with each
   connection's next frames. *)
let complete t r f solved =
  let waiting = List.rev f.waiting in
  (match waiting with
  | (_, _, lead) :: _ ->
      Option.iter (Hashtbl.remove r.flights) lead.key;
      lead.commit solved
  | [] -> ());
  List.iter
    (fun (c, t0_us, job) ->
      c.busy <- false;
      send c ~t0_us (job.finish solved))
    waiting;
  List.iter (fun (c, _, _) -> pump t r c) waiting

let on_readable t r c =
  match Protocol.Splitter.read c.frames c.fd with
  | n ->
      if n = 0 then c.eof <- true else c.last_io_us <- Trace.now_us ();
      pump t r c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Log.debug (fun m -> m "connection dropped: %s" (Unix.error_message e));
      c.closing <- true

(* Take the solves workers have finished, in hand-back order, and leave
   [next] in their place. *)
let swap_handback r next =
  Dmutex.lock r.lock;
  let finished = Option.value ~default:[] (Guarded.get r.handback) in
  Guarded.set r.handback next;
  Dmutex.unlock r.lock;
  List.rev finished

let take_handbacks t r =
  (* Bytes left over only cost a spare wake-up. *)
  (try ignore (Unix.read r.wake_r (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ());
  List.iter (fun (f, solved) -> complete t r f solved) (swap_handback r (Some []))

let accept t r lsock =
  match Unix.accept ~cloexec:true lsock with
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      ()
  | fd, _ ->
      Metrics.incr m_connections;
      Unix.set_nonblock fd;
      let n = Atomic.fetch_and_add t.inflight 1 in
      Metrics.set m_inflight (float_of_int (n + 1));
      if n >= t.config.max_inflight then begin
        (* Shed at accept: one explicit reply, which a fresh socket's
           buffer always takes, and no queueing. *)
        Metrics.incr m_overloaded;
        let frame =
          Protocol.encode_frame
            (Protocol.response_to_sexp
               (Protocol.Overloaded { inflight = n; limit = t.config.max_inflight }))
        in
        (try ignore (Unix.single_write_substring fd frame 0 (String.length frame))
         with Unix.Unix_error _ -> ());
        release t fd
      end
      else
        Hashtbl.replace r.conns fd
          {
            fd;
            frames = Protocol.Splitter.create ();
            out = "";
            out_off = 0;
            busy = false;
            eof = false;
            closing = false;
            last_io_us = Trace.now_us ();
          }

(* Close what is done: connections flushed after EOF or an error, idle
   past [idle_timeout_s] (a reply the peer will not read counts as idle),
   or idle when a drain starts.  Connections waiting on a solve are left. *)
let sweep t r ~now_us =
  let stopping = Atomic.get t.stopping in
  let idle_us = t.config.idle_timeout_s *. 1e6 in
  Hashtbl.filter_map_inplace
    (fun fd c ->
      let idle = now_us -. c.last_io_us > idle_us in
      if c.busy || (pending c && not idle) then Some c
      else if c.closing || stopping || pending c || idle then begin
        if idle then
          Log.debug (fun m -> m "connection idle past %.0fs; closing" t.config.idle_timeout_s);
        release t fd;
        None
      end
      else Some c)
    r.conns

let run_reactor t r lsock =
  let drain_deadline_us = ref Float.infinity in
  let rec loop () =
    let now_us = Trace.now_us () in
    let stopping = Atomic.get t.stopping in
    if stopping && !drain_deadline_us = Float.infinity then
      drain_deadline_us := now_us +. (t.config.drain_timeout_s *. 1e6);
    sweep t r ~now_us;
    if not (stopping && (Hashtbl.length r.conns = 0 || now_us >= !drain_deadline_us)) then begin
      let reads, writes =
        Hashtbl.fold
          (fun fd c (rs, ws) ->
            if c.busy then (rs, ws)
            else if pending c then (rs, fd :: ws)
            else if c.closing || c.eof || stopping then (rs, ws)
            else (fd :: rs, ws))
          r.conns
          ((r.wake_r :: (if stopping then [] else [ lsock ])), [])
      in
      (* The timeout bounds how late a [stop] or an idle deadline is noticed. *)
      (match Unix.select reads writes [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, writable, _ ->
          List.iter
            (fun fd ->
              if fd = r.wake_r then take_handbacks t r
              else if fd = lsock then accept t r lsock
              else Option.iter (on_readable t r) (Hashtbl.find_opt r.conns fd))
            readable;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt r.conns fd with
              | Some c when not c.busy ->
                  flush c;
                  pump t r c
              | _ -> ())
            writable);
      loop ()
    end
  in
  loop ()

(* Stop the loop for good: from here on a finishing solve is dropped.
   Closes every connection and returns how many still held a request — one
   waiting on a solve, or a reply not fully written. *)
let close_reactor t r =
  ignore (swap_handback r None);
  let unfinished =
    Hashtbl.fold
      (fun fd c n ->
        release t fd;
        if c.busy || pending c then n + 1 else n)
      r.conns 0
  in
  Hashtbl.reset r.conns;
  Hashtbl.reset r.flights;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r.wake_r; r.wake_w ];
  unfinished

let stop t = Atomic.set t.stopping true

let install_signal_handlers t =
  let handler = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler

let serve t ~socket =
  Atomic.set t.stopping false;
  (* A peer that hangs up before its reply must cost only its own
     connection (EPIPE), not the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists socket then Unix.unlink socket;
  let lsock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lsock with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind lsock (Unix.ADDR_UNIX socket);
      Unix.listen lsock 64;
      Unix.set_nonblock lsock;
      Log.app (fun m ->
          m "serving %s on %s (max in-flight %d, cache %d)"
            (String.concat ", " (apps t))
            socket t.config.max_inflight t.config.cache_capacity);
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      let lock = Dmutex.create ~name:"server.handback" () in
      let r =
        {
          conns = Hashtbl.create 64;
          flights = Hashtbl.create 16;
          wake_r;
          wake_w;
          lock;
          handback = Guarded.create ~name:"server.handback" ~locks:[ lock ] (Some []);
        }
      in
      (* On [stop] the loop drains: it stops accepting, closes idle
         connections, and waits up to [drain_timeout_s] for dispatched
         solves and unwritten replies. *)
      let unfinished =
        match run_reactor t r lsock with
        | () -> close_reactor t r
        | exception e ->
            ignore (close_reactor t r);
            raise e
      in
      if unfinished > 0 then
        Log.warn (fun m -> m "drain timed out with %d request(s) in flight" unfinished)
      else Log.app (fun m -> m "drained; shutting down");
      (* Persist the warm LRU after the drain settles, so the snapshot
         includes every request answered on this run. *)
      (match t.config.cache_snapshot with
      | None -> ()
      | Some path -> (
          try
            save_cache_snapshot t path;
            Log.app (fun m -> m "saved %d cached plan(s) to %s" (Plancache.size t.cache) path)
          with Failure msg | Sys_error msg ->
            Log.warn (fun m -> m "cache snapshot %s not saved: %s" path msg)));
      match t.pool with Some p -> Pool.shutdown p | None -> ())
