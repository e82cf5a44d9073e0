(* Replay of a workload's requests through the serving layers' public
   functions, one span per call.

   The calls follow the order the daemon makes them for a socket request:
   the client encodes and writes a frame, the server reads and decodes
   it, [Server.process]'s ladder runs (validation, fingerprint, corpus,
   nearest neighbour and its re-audit, LRU, solve and insert), and the
   reply is encoded, written, read and decoded by the client.

   The server half runs in a child process laid out like the daemon: the
   request path on the worker of a two-job pool while the main domain
   idles in a 50 ms select loop.  That layout is not free — with it the
   daemon solves up to half again slower than one domain does — so a
   replay in the benchmark's own process would time different work.  The
   client half stays in this process, on one domain like the generator,
   and frames cross a socketpair, so framing and hand-offs pay what they
   pay over the daemon's socket. *)

module Protocol = Opprox_serve.Protocol
module Plancache = Opprox_serve.Plancache
module Server = Opprox_serve.Server
module Corpus = Opprox_corpus.Corpus
module Key = Opprox_corpus.Key
module Lint_request = Opprox_analysis.Lint_request
module Diagnostic = Opprox_analysis.Diagnostic
module Trace = Opprox_obs.Trace
module App = Opprox_sim.App

(* Every layer span, in call order; [server.handle] times the whole
   request handler in a separate pass. *)
let layers =
  [
    "client.write_request";
    "transport.wakeup";
    "protocol.read_frame";
    "protocol.request_of_sexp";
    "lint_request.check";
    "key.fingerprint";
    "corpus.find";
    "corpus.find_nn";
    "optimizer.lint";
    "plancache.find";
    "optimizer.solve";
    "plancache.add";
    "protocol.response_to_sexp";
    "protocol.write_frame";
    "client.read_response";
  ]

(* The layers outside the daemon's request handler. *)
let outer =
  [
    "client.write_request";
    "transport.wakeup";
    "protocol.read_frame";
    "protocol.request_of_sexp";
    "protocol.response_to_sexp";
    "protocol.write_frame";
    "client.read_response";
  ]

(* ------------------------------------------------------------------ spans *)

type spans = { mutable open_ : float ref list; mutable self : (string * float) list }

(* A span's self time is its duration minus the time its child spans
   cover; every span is also recorded in the Chrome trace. *)
let span sp name f =
  let child = ref 0.0 in
  sp.open_ <- child :: sp.open_;
  let t0 = Trace.now_us () in
  Fun.protect
    ~finally:(fun () ->
      let dur = Trace.now_us () -. t0 in
      sp.open_ <- List.tl sp.open_;
      (match sp.open_ with parent :: _ -> parent := !parent +. dur | [] -> ());
      sp.self <- (name, dur -. !child) :: sp.self)
    (fun () -> Trace.with_span ~cat:"bench" name f)

type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

(* ---------------------------------------------------------------- request *)

type served = { trained : Opprox.trained; hash : string }

type ctx = {
  served : (string, served) Hashtbl.t;
  target : Lint_request.target;
  corpus : Corpus.t option;
  cache : Protocol.response Plancache.t;
}

let process { span } ctx (req : Protocol.request) =
  let view =
    {
      Lint_request.app = req.app;
      budget = req.budget;
      input = req.input;
      models_hash = req.models_hash;
      deadline_ms = req.deadline_ms;
    }
  in
  let diags = span "lint_request.check" (fun () -> Lint_request.check ctx.target view) in
  if Diagnostic.errors diags <> [] then Protocol.Error diags
  else begin
    let s = Hashtbl.find ctx.served req.app in
    let input = Option.value req.input ~default:s.trained.Opprox.app.App.default_input in
    let group, key =
      span "key.fingerprint" (fun () ->
          let group = Key.group ~app:req.app ~input ~models_hash:s.hash in
          (group, Key.of_group ~group ~budget:req.budget))
    in
    let plan p cache = Protocol.Plan { plan = p; cache; models_hash = s.hash; elapsed_ms = 0.0 } in
    let from_corpus =
      match ctx.corpus with
      | None -> None
      | Some c -> (
          match span "corpus.find" (fun () -> Corpus.find c key) with
          | Some p -> Some (plan p Protocol.Corpus)
          | None -> (
              match span "corpus.find_nn" (fun () -> Corpus.find_nn c ~group ~budget:req.budget) with
              | Some (_, p) ->
                  let diags =
                    span "optimizer.lint" (fun () ->
                        Opprox.Optimizer.lint ~models:s.trained.Opprox.models p)
                  in
                  if Diagnostic.errors diags = [] then Some (plan p Protocol.Nearest) else None
              | None -> None))
    in
    match from_corpus with
    | Some reply -> reply
    | None -> (
        match span "plancache.find" (fun () -> Plancache.find ctx.cache key) with
        | Some (Protocol.Plan p) -> Protocol.Plan { p with cache = Protocol.Hit }
        | Some _ | None ->
            let p =
              span "optimizer.solve" (fun () ->
                  Opprox.optimize ~input s.trained ~budget:req.budget)
            in
            let reply = plan p Protocol.Miss in
            span "plancache.add" (fun () -> Plancache.add ctx.cache key reply);
            reply)
  end

(* The daemon's state for [trained] and [corpus], with [warm] already
   answered once (the below-grid keys a workload solves before its
   reference step). *)
let create trained corpus ~warm =
  let served = Hashtbl.create 4 in
  List.iter
    (fun (tr : Opprox.trained) ->
      Hashtbl.replace served tr.Opprox.app.App.name
        { trained = tr; hash = Opprox_corpus.Precompute.models_hash tr })
    trained;
  let target =
    {
      Lint_request.known_apps = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) served []);
      param_arity =
        (fun app ->
          Option.map
            (fun s -> Array.length s.trained.Opprox.app.App.param_names)
            (Hashtbl.find_opt served app));
      expected_hash = (fun app -> Option.map (fun s -> s.hash) (Hashtbl.find_opt served app));
    }
  in
  let ctx =
    {
      served;
      target;
      corpus;
      cache =
        Plancache.create ~shards:Server.default_config.Server.cache_shards
          ~capacity:Server.default_config.Server.cache_capacity ();
    }
  in
  List.iter (fun req -> ignore (process untraced ctx req)) warm;
  ctx

(* The below-grid keys each lookup workload solves once before measuring. *)
let warm_requests trained ~lookups =
  if lookups then
    Array.to_list
      (Array.map (fun (p, b) -> Keys.request p b) (Keys.cross (Keys.pairs trained) Keys.below_grid))
  else []

(* ---------------------------------------------------------- replay server *)

type mode = Plain | Traced | Handle

let mode_name = function Plain -> "plain" | Traced -> "traced" | Handle -> "handle"

(* One request as the server half saw it: when it woke to read the frame,
   when it finished writing the reply, and its spans. *)
type half = { woke_at : float; replied_at : float; server_self : (string * float) list }

(* Answer frames on [fd] until the client hangs up.  Waiting happens
   outside every span, as in the daemon, whose clock starts once a frame
   is read. *)
let serve_frames ~mode ~answer fd =
  let rec loop acc =
    ignore (Unix.select [ fd ] [] [] (-1.0));
    let woke_at = Trace.now_us () in
    let sp = { open_ = []; self = [] } in
    let ({ span } as spanner) = if mode = Traced then { span = (fun n f -> span sp n f) } else untraced in
    match span "protocol.read_frame" (fun () -> Protocol.read_frame fd) with
    | None -> List.rev acc
    | Some frame ->
        let req =
          span "protocol.request_of_sexp" (fun () ->
              ignore (Protocol.frame_version frame, Protocol.frame_kind frame);
              Protocol.request_of_sexp frame)
        in
        let reply = answer spanner sp req in
        let sexp = span "protocol.response_to_sexp" (fun () -> Protocol.response_to_sexp reply) in
        span "protocol.write_frame" (fun () -> Protocol.write_frame fd sexp);
        loop ({ woke_at; replied_at = Trace.now_us (); server_self = sp.self } :: acc)
  in
  loop []

(* [e2e.exe --replay-server RESULTS MODE CORPUS|- MODEL...]: the server
   half, answering on stdin (one end of the client's socketpair) and
   writing one line per request to RESULTS. *)
let server_main argv =
  match Array.to_list argv with
  | _ :: _ :: results :: mode :: corpus :: models ->
      let mode =
        match mode with "plain" -> Plain | "traced" -> Traced | _ -> Handle
      in
      let trained = List.map (Opprox.load ~resolve:Opprox_apps.Registry.find) models in
      let corpus = if corpus = "-" then None else Some (Corpus.load corpus) in
      let warm = warm_requests trained ~lookups:(corpus <> None) in
      let answer =
        match mode with
        | Plain | Traced ->
            let ctx = create trained corpus ~warm in
            fun spanner _ req -> process spanner ctx req
        | Handle ->
            let server =
              Server.create
                ~config:{ Server.default_config with corpus_path = Option.map Corpus.path corpus }
                trained
            in
            List.iter (fun req -> ignore (Server.handle server req)) warm;
            fun _ sp req ->
              let t0 = Trace.now_us () in
              let reply = Server.handle server req in
              sp.self <- ("server.handle", Trace.now_us () -. t0) :: sp.self;
              reply
      in
      Trace.set_enabled (mode = Traced);
      let fd = Unix.stdin in
      Protocol.write_frame fd (Opprox_util.Sexp.atom "ready");
      let halves = ref [] and finished = Atomic.make false in
      let pool = Opprox_util.Pool.create ~jobs:2 () in
      Opprox_util.Pool.async ~pool (fun () ->
          Fun.protect
            ~finally:(fun () -> Atomic.set finished true)
            (fun () -> halves := serve_frames ~mode ~answer fd));
      while not (Atomic.get finished) do
        ignore (Unix.select [] [] [] 0.05)
      done;
      Opprox_util.Pool.shutdown pool;
      let oc = open_out results in
      List.iter
        (fun h ->
          Printf.fprintf oc "%.3f %.3f" h.woke_at h.replied_at;
          List.iter (fun (n, us) -> Printf.fprintf oc " %s %.3f" n us) h.server_self;
          output_char oc '\n')
        !halves;
      close_out oc;
      if mode = Traced then Trace.export (results ^ ".trace.json");
      exit 0
  | _ ->
      prerr_endline "e2e --replay-server RESULTS MODE CORPUS|- MODEL...";
      exit 2

(* ----------------------------------------------------------------- client *)

type sample = {
  source : Protocol.cache_status option;  (** [None]: no plan *)
  self : (string * float) list;  (** self time per layer, us *)
  total : float;  (** round trip, us *)
}

let source_of = function Protocol.Plan { cache; _ } -> Some cache | _ -> None

let read_halves path =
  List.map
    (fun line ->
      match String.split_on_char ' ' line with
      | woke :: replied :: rest ->
          let rec pairs = function
            | n :: v :: rest -> (n, float_of_string v) :: pairs rest
            | _ -> []
          in
          { woke_at = float_of_string woke; replied_at = float_of_string replied; server_self = pairs rest }
      | _ -> failwith ("malformed replay record in " ^ path))
    (Host.read_lines path)

(* One pass over [shots] on their own schedule, as the generator sent
   them: idle gaps between requests cost the next one (cold caches,
   sleeping cores) here as they do over the socket.  The two hand-offs
   between the processes (end of write to wake-up) are the transport
   layer. *)
let pass ~dir ~models ~corpus ~mode (shots : Keys.shot array) =
  let client, server = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let results = Filename.concat dir ("replay-" ^ mode_name mode) in
  let log = Unix.openfile (results ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close server;
        Unix.close log)
      (fun () ->
        Daemon.create_process
          (Array.of_list
             ([ Sys.executable_name; "--replay-server"; results; mode_name mode ]
             @ (Option.value corpus ~default:"-" :: models)))
          server log log)
  in
  let traced = mode = Traced in
  (* Closing the client hangs the server half up, which then exits. *)
  let sent =
    Fun.protect
      ~finally:(fun () ->
        Trace.set_enabled false;
        Unix.close client)
      (fun () ->
        if Protocol.read_frame client = None then
          failwith "the replay server exited before answering";
        Trace.set_enabled traced;
        let start = Host.now_s () in
        Array.map
          (fun (shot : Keys.shot) ->
            Gen.wait_until (start +. shot.due);
            let sp = { open_ = []; self = [] } in
            let { span } = if traced then { span = (fun n f -> span sp n f) } else untraced in
            let t0 = Trace.now_us () in
            span "client.write_request" (fun () ->
                Protocol.write_frame client (Protocol.request_to_sexp shot.req));
            let written_at = Trace.now_us () in
            ignore (Unix.select [ client ] [] [] (-1.0));
            let woke_at = Trace.now_us () in
            let reply =
              span "client.read_response" (fun () ->
                  Protocol.response_of_sexp (Option.get (Protocol.read_frame client)))
            in
            (source_of reply, sp.self, written_at, woke_at, Trace.now_us () -. t0))
          shots)
  in
  if Daemon.wait pid <> Unix.WEXITED 0 then
    failwith ("the replay server failed; see " ^ results ^ ".log");
  Array.of_list
    (List.mapi
       (fun i h ->
         let source, client_self, written_at, woke_at, total = sent.(i) in
         let wakeup = h.woke_at -. written_at +. (woke_at -. h.replied_at) in
         { source; self = ("transport.wakeup", wakeup) :: (h.server_self @ client_self); total })
       (read_halves results))

(* ---------------------------------------------------------------- summary *)

type result = {
  layer_us : (string * float) list;  (** median self time per layer, [0] when it never ran *)
  outer_us : (Protocol.cache_status * float) list;
      (** per source: the median over requests of the time spent in the
          layers outside the handler (a sum of medians would come out low,
          every layer's time being skewed right) *)
  handle_us : float;  (** median [Server.handle] in the daemon's layout *)
  overhead_ratio : float;  (** traced / untraced median round trip *)
}

let median_or_zero = function [] -> 0.0 | xs -> Stats.median (Array.of_list xs)

let medians samples names =
  List.map
    (fun name ->
      ( name,
        median_or_zero
          (Array.fold_left
             (fun acc x -> match List.assoc_opt name x.self with Some us -> us :: acc | None -> acc)
             [] samples) ))
    names

let summarize ~plain ~traced ~handle =
  let total x = x.total in
  let sources =
    List.sort_uniq compare (List.filter_map (fun x -> x.source) (Array.to_list traced))
  in
  {
    layer_us = medians traced layers;
    outer_us =
      List.map
        (fun src ->
          ( src,
            median_or_zero
              (Array.fold_left
                 (fun acc x ->
                   if x.source = Some src then
                     List.fold_left
                       (fun sum (n, us) -> if List.mem n outer then sum +. us else sum)
                       0.0 x.self
                     :: acc
                   else acc)
                 [] traced) ))
        sources;
    handle_us = List.assoc "server.handle" (medians handle [ "server.handle" ]);
    overhead_ratio = Stats.median (Array.map total traced) /. Stats.median (Array.map total plain);
  }
