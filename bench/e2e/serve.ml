(* The serving workloads: `opprox serve` in a child process, driven over
   its Unix socket by the open-loop generator. *)

module Client = Opprox_serve.Client
module Protocol = Opprox_serve.Protocol
module Server = Opprox_serve.Server
module Corpus = Opprox_corpus.Corpus
module Key = Opprox_corpus.Key
module Optimizer = Opprox.Optimizer
module App = Opprox_sim.App

(* The pipelines every serving workload loads: comd and kmeans trained
   at the default configuration, and their corpus over the budget grid. *)
type artifacts = { models : string list; corpus : string; trained : Opprox.trained list }

type spec = {
  rate : float;  (** reference rate, requests per second *)
  limit_ms : float;  (** latency limit at p99 *)
  lookups : bool;  (** corpus loaded, hot key mix; otherwise fresh keys *)
  idle_conn : bool;
}

let spec = function
  | "serve-hot" -> { rate = 2000.0; limit_ms = 2.0; lookups = true; idle_conn = false }
  | "serve-cold" -> { rate = 100.0; limit_ms = 20.0; lookups = false; idle_conn = false }
  | "serve-idle-conn" -> { rate = 500.0; limit_ms = 2.0; lookups = true; idle_conn = true }
  | w -> invalid_arg ("Serve.spec: " ^ w)

let source_name = Protocol.cache_source_string
let all_sources = [ Protocol.Corpus; Protocol.Nearest; Protocol.Hit; Protocol.Miss ]

(* One run of a serving workload. *)
type t = {
  sp : spec;
  art : artifacts;
  opprox : string;
  dir : string;
  smoke : bool;
  workload : string;
  corpus : Corpus.t option;
  args : string list;  (** the daemon's models and corpus flags *)
  probe : Protocol.request;  (** the first request of every cold start *)
  warm : Protocol.request list;
      (** below-grid keys, solved once before measuring so the LRU answers
          them *)
  schedule : rate:float -> seconds:float -> Keys.shot array;
      (** the seeded schedule, continued on every call *)
  mutable problems : string list;  (** output checks that failed *)
}

let check t ok fmt = Printf.ksprintf (fun m -> if not ok then t.problems <- m :: t.problems) fmt

let trained_of t app =
  List.find (fun (tr : Opprox.trained) -> tr.app.App.name = app) t.art.trained

(* ------------------------------------------------------------- daemons *)

let start t ~tag = Daemon.start ~opprox:t.opprox ~dir:t.dir ~tag ~probe:t.probe t.args

let warm_up t client =
  List.iter
    (fun (req : Protocol.request) ->
      match Client.request client req with
      | Protocol.Plan { cache = Protocol.Miss; _ } -> ()
      | _ -> check t false "warm-up: %s at budget %g was not solved" req.app req.budget)
    t.warm

(* The metrics dump of a drained daemon; [] after a failed drain. *)
let stop t daemon =
  match Daemon.stop daemon with
  | Ok dump -> dump
  | Error m ->
      check t false "%s" m;
      []

(* Set-up time: the median of [n] cold starts, spawn to first plan.  The
   last daemon stays up for the measurement. *)
let cold_starts t n =
  let rec go i setups =
    let daemon, client, s = start t ~tag:(Printf.sprintf "%s-%d" t.workload i) in
    if i = n then (daemon, client, Array.of_list (s :: setups))
    else begin
      Client.close client;
      ignore (stop t daemon);
      go (i + 1) (s :: setups)
    end
  in
  go 1 []

(* ------------------------------------------------------- reference step *)

(* Run the reference schedule on [client]'s daemon.  For the idle
   workload, an idle connection must reach the daemon's one worker first
   so the busy one queues behind it: close the set-up connection, open
   the idle one, and only then the busy one.  Returns the connection
   that stays busy. *)
let reference_step t daemon client shots =
  if not t.sp.idle_conn then (client, Gen.run ~keep_every:50 client ~t0:(Host.now_s ()) shots)
  else begin
    Client.close client;
    let idle = Daemon.connect daemon in
    Unix.sleepf 0.5;
    let busy = Daemon.connect daemon in
    (* A smoke run cannot wait out the daemon's 30 s idle timeout: a
       helper domain hangs the idle connection up after a moment. *)
    let closer =
      if t.smoke then Some (Domain.spawn (fun () -> Unix.sleepf 0.3; Client.close idle))
      else None
    in
    let records = Gen.run ~keep_every:50 busy ~t0:(Host.now_s ()) shots in
    Option.iter Domain.join closer;
    Client.close idle;
    (busy, records)
  end

(* The plan a correct daemon returns for [shot], computed in-process from
   the same files. *)
let reference t (shot : Keys.shot) =
  let req = shot.req in
  let tr = trained_of t req.app in
  let input = Option.get req.input in
  let group = Key.group ~app:req.app ~input ~models_hash:(Opprox_corpus.Precompute.models_hash tr) in
  match (shot.cls, t.corpus) with
  | Keys.On_grid, Some c -> Corpus.find c (Key.of_group ~group ~budget:req.budget)
  | Keys.Off_grid, Some c -> Option.map snd (Corpus.find_nn c ~group ~budget:req.budget)
  | (Keys.On_grid | Keys.Off_grid), None -> None
  | (Keys.Below_grid | Keys.Fresh), _ -> Some (Opprox.optimize ~input tr ~budget:req.budget)

let same_plan a b =
  Opprox_util.Sexp.(to_string (Optimizer.plan_to_sexp a) = to_string (Optimizer.plan_to_sexp b))

(* Every reply a plan from the source its key class predicts; every kept
   plan bitwise the in-process reference. *)
let check_replies t records =
  Array.iter
    (fun (x : Gen.record) ->
      let req = x.shot.req in
      match x.source with
      | None -> ()
      | Some got ->
          let want = Keys.source x.shot.cls in
          check t (got = want) "%s at budget %g came from %s, not %s" req.app req.budget
            (source_name got) (source_name want);
          Option.iter
            (fun served ->
              check t
                (match reference t x.shot with Some r -> same_plan served r | None -> false)
                "%s at budget %g: the served plan differs from the in-process reference" req.app
                req.budget)
            x.plan)
    records

(* ------------------------------------------------------------- quality *)

(* The plans the daemon serves for a fixed set of keys. *)
let audit t client =
  List.filter_map
    (fun ((p : Keys.pair), budget) ->
      (* a fresh key may have been drawn before: solved or cached *)
      let expect =
        if not t.sp.lookups then [ Protocol.Miss; Protocol.Hit ]
        else if budget < Keys.grid.(0) then [ Protocol.Hit ]
        else [ Protocol.Corpus ]
      in
      match Client.request client (Keys.request p budget) with
      | Protocol.Plan { plan; cache; _ } ->
          check t (List.mem cache expect) "audit: %s at budget %g came from %s" p.app budget
            (source_name cache);
          Some (p, plan)
      | _ ->
          check t false "audit: %s at budget %g got no plan" p.app budget;
          None)
    (Array.to_list (Keys.cross (Keys.pairs t.art.trained) Keys.audit_budgets))

(* Run each audited plan and measure it. *)
let quality t plans =
  Stats.quality
    (Array.of_list
       (List.map
          (fun ((p : Keys.pair), (plan : Optimizer.plan)) ->
            let ev = Opprox.apply ~input:p.input (trained_of t p.app) plan in
            (ev.Opprox_sim.Driver.speedup, ev.Opprox_sim.Driver.qos_degradation, plan.budget))
          plans))

(* --------------------------------------------------------------- traced *)

(* Rounds of one second of fresh schedule, each sent to a fresh daemon and
   then replayed, untraced, traced and through [Server.handle].  The
   socket and the replays see the same host, and fresh processes on both
   sides keep one process's placement on the cores from deciding the
   comparison. *)
let replay_rounds t =
  let corpus = if t.sp.lookups then Some t.art.corpus else None in
  let rounds =
    List.init (if t.smoke then 1 else 6) (fun k ->
        let chunk = t.schedule ~rate:t.sp.rate ~seconds:(if t.smoke then 0.1 else 1.0) in
        let daemon, client, _ = start t ~tag:(Printf.sprintf "%s-round-%d" t.workload k) in
        warm_up t client;
        let socket = Gen.run client ~t0:(Host.now_s ()) chunk in
        Client.close client;
        ignore (stop t daemon);
        let pass mode = Replay.pass ~dir:t.dir ~models:t.art.models ~corpus ~mode chunk in
        (socket, pass Replay.Plain, pass Replay.Traced, pass Replay.Handle))
  in
  let cat f = Array.concat (List.map f rounds) in
  ( cat (fun (s, _, _, _) -> s),
    Replay.summarize
      ~plain:(cat (fun (_, p, _, _) -> p))
      ~traced:(cat (fun (_, _, r, _) -> r))
      ~handle:(cat (fun (_, _, _, h) -> h)) )

(* Double the rate from 100 rps while steps pass, then climb by x1.1.
   A step lasts 3 s, longer at low rates so that it holds 1000 requests:
   enough for a p99 with ten beyond it.  One connection carries at most
   about 10^4 rps, a cached reply taking ~0.1 ms. *)
let ladder t client =
  fst
    (Stats.ladder ~start:100.0 ~max_rate:(if t.smoke then 200.0 else 1e4) (fun rate ->
         Gen.step client ~limit_ms:t.sp.limit_ms ~rate
           (t.schedule ~rate ~seconds:(if t.smoke then 0.1 else Float.max 3.0 (1000.0 /. rate)))))

(* Median over [reps] in-process repetitions of what the daemon does
   before it can answer: load the pipelines, map the corpus, build the
   server. *)
let setup_layers t ~reps =
  let corpus_path = if t.sp.lookups then Some t.art.corpus else None in
  let samples =
    Array.init reps (fun _ ->
        let trained, load_s =
          Host.time (fun () ->
              List.map (Opprox.load ~resolve:Opprox_apps.Registry.find) t.art.models)
        in
        let _, corpus_s = Host.time (fun () -> Option.map Corpus.load corpus_path) in
        let _, create_s =
          Host.time (fun () ->
              Server.create ~config:{ Server.default_config with corpus_path } trained)
        in
        (load_s, (if t.sp.lookups then corpus_s else 0.0), create_s))
  in
  let med f = Stats.median (Array.map f samples) in
  [
    ("models.load_s", med (fun (s, _, _) -> s));
    ("corpus.load_s", med (fun (_, s, _) -> s));
    ("server.create_s", med (fun (_, _, s) -> s));
  ]

(* ------------------------------------------------------------- metrics *)

let or_zero q xs = Option.value (Stats.percentile (Array.of_list xs) q) ~default:0.0

let answered_by src f records =
  List.filter_map
    (fun (x : Gen.record) -> if x.source = Some src then Some (f x) else None)
    (Array.to_list records)

let dump_ratio dump num dens =
  let get n = Option.value (List.assoc_opt n dump) ~default:0.0 in
  let den = List.fold_left (fun acc n -> acc +. get n) 0.0 dens in
  if den = 0.0 then 0.0 else get num /. den

(* The socket latency of the replayed rounds, from the actual send (the
   generator's wait for its connection is load, reported as lateness),
   against the replayed layers outside the handler plus the handler's own
   time as the daemon reports it. *)
let unattributed (socket, (rp : Replay.result)) src =
  let sent_us =
    or_zero 0.5 (answered_by src (fun x -> (x.r.finished -. x.r.sent) *. 1e6) socket)
  in
  match List.assoc_opt src rp.outer_us with
  | Some outer when sent_us > 0.0 ->
      1.0 -. ((outer +. or_zero 0.5 (answered_by src (fun x -> x.elapsed_us) socket)) /. sent_us)
  | _ -> 0.0

let layer_metrics t ~records ~dump ~rounds ~max_rate =
  let rp = snd rounds in
  let rs = Array.map (fun (x : Gen.record) -> x.r) records in
  let answered = Array.of_list (List.filter (fun (x : Gen.record) -> x.source <> None) (Array.to_list records)) in
  let median f = Stats.median (Array.map f answered) in
  let latency src = answered_by src (fun x -> Stats.latency_ms x.r) records in
  let get n = Option.value (List.assoc_opt n dump) ~default:0.0 in
  List.map (fun (l, us) -> (l ^ "_us", us)) rp.Replay.layer_us
  @ [
      ("server.handle_us", rp.handle_us);
      ("server.elapsed_us", median (fun x -> x.elapsed_us));
      ("client.outside_server_us", median (fun x -> ((x.r.finished -. x.r.sent) *. 1e6) -. x.elapsed_us));
      ("loadgen.send_late_p99_ms", or_zero 0.99 (List.map Stats.late_ms (Array.to_list rs)));
      ("optimizer.solves", get "optimizer.solves");
      ("optimizer.predict_hit_ratio", dump_ratio dump "optimizer.predict.hit" [ "optimizer.predict.hit"; "optimizer.predict.miss" ]);
      ("plancache.evictions", get "plancache.eviction");
      ("plancache.hit_ratio", dump_ratio dump "plancache.hit" [ "plancache.hit"; "plancache.miss" ]);
      ("corpus.exact_hit_ratio", dump_ratio dump "corpus.hits" [ "corpus.hits"; "corpus.nn_hits"; "corpus.misses" ]);
      ("corpus.nn_hit_ratio", dump_ratio dump "corpus.nn_hits" [ "corpus.hits"; "corpus.nn_hits"; "corpus.misses" ]);
      ("server.errors", get "server.errors");
      ("max_rate_rps", max_rate);
      ("slo_attainment", Stats.slo_attainment ~limit_ms:t.sp.limit_ms rs);
      ("error_rate", Stats.error_rate rs);
      ("trace.overhead_ratio", rp.overhead_ratio);
    ]
  @ List.concat_map
      (fun src ->
        let name = source_name src in
        [
          ("source." ^ name ^ ".p50_ms", or_zero 0.5 (latency src));
          ("source." ^ name ^ ".p99_ms", or_zero 0.99 (latency src));
          ("trace.unattributed_share." ^ name, unattributed rounds src);
        ])
      all_sources
  @ setup_layers t ~reps:(if t.smoke then 2 else 5)

(* ----------------------------------------------------------------- run *)

let run ~opprox ~dir ~smoke ~trace ~seed ~seconds art workload =
  let sp = spec workload in
  (* One domain while the generator runs: a second one, even parked,
     must join every collection, stealing the daemon's cores. *)
  Opprox_util.Pool.set_default_jobs 1;
  let pairs = Keys.pairs art.trained in
  let rng = Opprox_util.Rng.create seed and fresh = Keys.fresh () in
  let t =
    {
      sp;
      art;
      opprox;
      dir;
      smoke;
      workload;
      corpus = (if sp.lookups then Some (Corpus.load art.corpus) else None);
      args =
        List.concat_map (fun m -> [ "--models"; m ]) art.models
        @ if sp.lookups then [ "--corpus"; art.corpus ] else [];
      (* the cold probe sits outside the fresh-key range *)
      probe = Keys.request pairs.(0) (if sp.lookups then 10.0 else 30.0);
      warm = Replay.warm_requests art.trained ~lookups:sp.lookups;
      schedule =
        (fun ~rate ~seconds ->
          if sp.lookups then Keys.hot rng pairs ~rate ~seconds
          else Keys.cold rng pairs fresh ~rate ~seconds);
      problems = [];
    }
  in
  let daemon, client, setups = cold_starts t (if smoke then 2 else 11) in
  warm_up t client;
  (* untimed, so the step starts in steady state *)
  ignore (Gen.run client ~t0:(Host.now_s ()) (t.schedule ~rate:sp.rate ~seconds:(if smoke then 0.1 else 1.5)));
  let shots = t.schedule ~rate:sp.rate ~seconds in
  let kernel_ms = if trace then Host.kernel_ms 25 else 0.0 in
  let client, records = reference_step t daemon client shots in
  let rounds = if trace then Some (replay_rounds t) else None in
  let max_rate = if trace && not sp.idle_conn then ladder t client else 0.0 in
  let audited = audit t client in
  let rss_mb = Daemon.rss_mb daemon in
  Client.close client;
  let dump = stop t daemon in
  check_replies t records;
  let quality = quality t audited in
  let answered = List.filter (fun (x : Gen.record) -> x.source <> None) (Array.to_list records) in
  let latencies = Array.of_list (List.map (fun (x : Gen.record) -> Stats.latency_ms x.r) answered) in
  let pct q =
    match Stats.percentile latencies q with
    | Some v -> v
    | None ->
        check t smoke "p%g needs more than %d answered requests" (q *. 100.0) (Array.length latencies);
        0.0
  in
  let e2e =
    [
      ("setup_s", Stats.median setups);
      ("p50_ms", pct 0.5);
      ("p95_ms", pct 0.95);
      ("rss_mb", rss_mb);
      ("measured_speedup", quality.speedup);
      ("budget_met_share", quality.met_share);
    ]
  in
  let layers =
    match rounds with
    | None -> []
    | Some rounds ->
        (* The idle workload's stall is its point; the gate covers the
           others. *)
        List.iter
          (fun src ->
            let u = unattributed rounds src in
            check t (smoke || sp.idle_conn || Float.abs u <= 0.25)
              "trace: %.0f%% of the %s latency is outside every measured layer" (u *. 100.0)
              (source_name src))
          all_sources;
        (* Windows of 1100 expected requests: each supports a p99, and the
           median over windows shrugs off a stall that hits one of them. *)
        let p99 =
          match
            Stats.window_quantile ~q:0.99 ~window_s:(1100.0 /. sp.rate) ~span_s:seconds
              (Array.of_list
                 (List.map (fun (x : Gen.record) -> (x.shot.due, Stats.latency_ms x.r)) answered))
          with
          | Some v -> v
          | None ->
              check t smoke "a window holds fewer than 1000 answered requests";
              0.0
        in
        ("p99_ms", p99) :: ("host.kernel_ms", kernel_ms)
        :: layer_metrics t ~records ~dump ~rounds ~max_rate
  in
  let failed =
    Array.fold_left (fun n (x : Gen.record) -> if x.source = None then n + 1 else n) 0 records
  in
  { Host.e2e; layers; attempted = Array.length records; failed; problems = List.rev t.problems }
