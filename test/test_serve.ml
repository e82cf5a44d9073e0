(* Tests for the plan-serving daemon (Opprox_serve): the sharded LRU
   plan cache against a reference model, wire-codec roundtrips, frame IO
   over a socketpair, the full in-process request path (validation,
   cache, deadlines, admission), and a daemon end-to-end over a real
   Unix-domain socket. *)

module Plancache = Opprox_serve.Plancache
module Key = Opprox_corpus.Key
module Protocol = Opprox_serve.Protocol
module Server = Opprox_serve.Server
module Client = Opprox_serve.Client
module Diagnostic = Opprox_analysis.Diagnostic
module Schedule = Opprox_sim.Schedule
open Fixtures

(* ------------------------------------------------------------- plancache *)

(* Reference model for a single-shard LRU: an association list kept in
   recency order (most recent first). *)
module Model = struct
  type t = { cap : int; mutable entries : (int * int) list }

  let create cap = { cap; entries = [] }

  let find m k =
    match List.assoc_opt k m.entries with
    | None -> None
    | Some v ->
        m.entries <- (k, v) :: List.remove_assoc k m.entries;
        Some v

  let add m k v =
    m.entries <- (k, v) :: List.remove_assoc k m.entries;
    if List.length m.entries > m.cap then
      m.entries <- List.filteri (fun i _ -> i < m.cap) m.entries
end

type op = Find of int | Add of int

let op_gen =
  QCheck.(
    map
      (fun (is_add, k) -> if is_add then Add k else Find k)
      (pair bool (int_range 0 7)))

let prop_lru_matches_model =
  qcheck_case ~count:300 "single-shard LRU = reference model"
    QCheck.(pair (int_range 1 5) (list_of_size (Gen.int_range 0 60) op_gen))
    (fun (cap, ops) ->
      let cache = Plancache.create ~shards:1 ~capacity:cap () in
      let model = Model.create cap in
      let key k = Printf.sprintf "k%d" k in
      List.for_all
        (fun (i, op) ->
          match op with
          | Find k -> Plancache.find cache (key k) = Model.find model k
          | Add k ->
              Plancache.add cache (key k) i;
              Model.add model k i;
              true)
        (List.mapi (fun i op -> (i, op)) ops)
      && Plancache.size cache = List.length model.Model.entries)

let test_counters_exact () =
  let c = Plancache.create ~shards:1 ~capacity:2 () in
  ignore (Plancache.find c "a");
  (* miss *)
  Plancache.add c "a" 1;
  Plancache.add c "b" 2;
  ignore (Plancache.find c "a");
  (* hit; "a" now most recent *)
  Plancache.add c "c" 3;
  (* evicts "b" *)
  check_bool "a survives" true (Plancache.mem c "a");
  check_bool "b evicted" false (Plancache.mem c "b");
  let s = Plancache.stats c in
  check_int "hits" 1 s.Plancache.hits;
  check_int "misses" 1 s.Plancache.misses;
  check_int "insertions" 3 s.Plancache.insertions;
  check_int "evictions" 1 s.Plancache.evictions;
  check_int "size" 2 (Plancache.size c)

let test_capacity_bound_concurrent () =
  let capacity = 16 in
  let c = Plancache.create ~shards:4 ~capacity () in
  let n_domains = 4 and per_domain = 500 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              Plancache.add c (Printf.sprintf "d%d-%d" d i) i;
              ignore (Plancache.find c (Printf.sprintf "d%d-%d" d i))
            done))
  in
  List.iter Domain.join domains;
  let s = Plancache.stats c in
  check_bool "size <= capacity" true (Plancache.size c <= capacity);
  check_int "insertions" (n_domains * per_domain) s.Plancache.insertions;
  check_int "evictions = insertions - size"
    (s.Plancache.insertions - Plancache.size c)
    s.Plancache.evictions

let test_fingerprint_stability () =
  let fp input budget =
    Key.fingerprint ~app:"toy" ~input ~budget ~models_hash:"abc"
  in
  (* Bit-identical floats, however reconstructed, give the same key. *)
  let b = float_of_string (string_of_float 10.0) in
  check_bool "reconstructed budget" true (fp [| 1.5 |] 10.0 = fp [| 1.5 |] b);
  (* One ulp of difference anywhere changes the key. *)
  let bump x = Int64.float_of_bits (Int64.succ (Int64.bits_of_float x)) in
  check_bool "budget ulp" false (fp [| 1.5 |] 10.0 = fp [| 1.5 |] (bump 10.0));
  check_bool "input ulp" false (fp [| 1.5 |] 10.0 = fp [| bump 1.5 |] 10.0);
  check_bool "app" false
    (fp [| 1.5 |] 10.0
    = Key.fingerprint ~app:"toy2" ~input:[| 1.5 |] ~budget:10.0 ~models_hash:"abc");
  check_bool "hash" false
    (fp [| 1.5 |] 10.0
    = Key.fingerprint ~app:"toy" ~input:[| 1.5 |] ~budget:10.0 ~models_hash:"abd")

let test_create_validation () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Plancache.create: capacity must be >= 1") (fun () ->
      ignore (Plancache.create ~capacity:0 ()));
  let c = Plancache.create ~shards:64 ~capacity:3 () in
  check_bool "shards clamped to capacity" true (Plancache.shards c <= 3)

(* -------------------------------------------------------------- protocol *)

let trained = lazy (Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy)

let roundtrip_request req =
  Protocol.request_of_sexp
    (Opprox_util.Sexp.of_string (Opprox_util.Sexp.to_string (Protocol.request_to_sexp req)))

let roundtrip_response resp =
  Protocol.response_of_sexp
    (Opprox_util.Sexp.of_string (Opprox_util.Sexp.to_string (Protocol.response_to_sexp resp)))

let test_request_roundtrip () =
  let full =
    Protocol.request ~input:[| 1.5; -0.25 |] ~deadline_ms:40.0 ~models_hash:"cafe"
      ~no_cache:true ~app:"toy" ~budget:12.5 ()
  in
  check_bool "full request" true (roundtrip_request full = full);
  let minimal = Protocol.request ~app:"toy" ~budget:10.0 () in
  check_bool "minimal request" true (roundtrip_request minimal = minimal);
  (* A frame without an explicit version parses as the current one. *)
  let no_v =
    Protocol.request_of_sexp (Opprox_util.Sexp.of_string "((app toy) (budget 10))")
  in
  check_bool "versionless frame" true (no_v.Protocol.app = "toy");
  check_int "frame_version default" Protocol.version
    (Protocol.frame_version (Opprox_util.Sexp.of_string "((app toy) (budget 10))"))

let test_response_roundtrip () =
  let plan = Opprox.optimize (Lazy.force trained) ~budget:10.0 in
  let reply =
    Protocol.Plan { plan; cache = Protocol.Miss; models_hash = "cafe"; elapsed_ms = 1.25 }
  in
  (match roundtrip_response reply with
  | Protocol.Plan p ->
      check_bool "cache status" true (p.cache = Protocol.Miss);
      check_float "elapsed" 1.25 p.elapsed_ms;
      check_bool "schedule" true
        (Schedule.equal plan.Opprox.Optimizer.schedule p.plan.Opprox.Optimizer.schedule)
  | _ -> Alcotest.fail "expected Plan");
  let err = Protocol.Error [ Opprox_analysis.Lint_request.malformed "boom" ] in
  (match roundtrip_response err with
  | Protocol.Error [ d ] -> Alcotest.(check string) "code" "SRV004" d.Diagnostic.code
  | _ -> Alcotest.fail "expected Error");
  check_bool "timeout" true
    (roundtrip_response (Protocol.Timeout { elapsed_ms = 3.0; deadline_ms = 2.0 })
    = Protocol.Timeout { elapsed_ms = 3.0; deadline_ms = 2.0 });
  check_bool "overloaded" true
    (roundtrip_response (Protocol.Overloaded { inflight = 9; limit = 8 })
    = Protocol.Overloaded { inflight = 9; limit = 8 })

(* Wire byte-identity: every reply shape, every cache status, plans from
   the committed kmeans fixture at four budgets.  The frame must be the
   reference codec's bytes (Test_serialize.Ref, the codec before its hot
   paths were rewritten), every numeric atom the reference float text, and
   decoding must give back a plan that prints the same. *)

let kmeans_fixture =
  lazy (Opprox.load ~resolve:Opprox_apps.Registry.find "fixtures/trained_kmeans.sexp")

let ref_frame sexp =
  let payload = Test_serialize.Ref.to_string sexp in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (String.length payload));
  Bytes.to_string header ^ payload

let numeric_atom a =
  a <> ""
  && String.for_all (function '0' .. '9' | '.' | 'e' | '+' | '-' -> true | _ -> false) a
  && Option.is_some (float_of_string_opt a)

let rec check_float_atoms = function
  | Opprox_util.Sexp.Atom a when numeric_atom a ->
      Alcotest.(check string) "reference float text"
        (Opprox_util.Sexp.to_string_atom (Test_serialize.Ref.float (float_of_string a))) a
  | Opprox_util.Sexp.Atom _ -> ()
  | Opprox_util.Sexp.List items -> List.iter check_float_atoms items

let plan_text plan = Opprox_util.Sexp.to_string (Opprox.Optimizer.plan_to_sexp plan)

let test_wire_bytes_match_reference () =
  let trained = Lazy.force kmeans_fixture in
  let plans = List.map (fun budget -> Opprox.optimize trained ~budget) [ 2.5; 5.0; 10.0; 20.0 ] in
  let diags =
    [
      Opprox_analysis.Lint_request.malformed "payload \"((v 1)\" at byte 7\n\tunparsed";
      Opprox_analysis.Lint_request.bad_version ~got:2;
      Diagnostic.v ~app:"kmeans" ~phase:1 ~detail:"" ~code:"SRV005" Diagnostic.Warning
        "budget %g below the %s floor" 0.1 "corpus";
    ]
  in
  let responses =
    List.concat_map
      (fun plan ->
        List.map
          (fun cache ->
            Protocol.Plan { plan; cache; models_hash = "0123abcd"; elapsed_ms = 0.04321 })
          [ Protocol.Corpus; Protocol.Nearest; Protocol.Hit; Protocol.Miss ]
        @ [
            Protocol.PlanDelta
              { delta = Protocol.Replan { from_phase = 1; plan }; elapsed_ms = 2.0 };
          ])
      plans
    @ [
        Protocol.PlanDelta { delta = Protocol.No_change; elapsed_ms = 0.0 };
        Protocol.PlanDelta { delta = Protocol.No_change; elapsed_ms = -0.0 };
        Protocol.Error diags;
        Protocol.Error [];
        Protocol.Timeout { elapsed_ms = 12.5; deadline_ms = 1e-3 };
        Protocol.Overloaded { inflight = 65; limit = 64 };
      ]
  in
  List.iter
    (fun resp ->
      let sexp = Protocol.response_to_sexp resp in
      let frame = Protocol.encode_frame sexp in
      Alcotest.(check string) "frame = reference bytes" (ref_frame sexp) frame;
      check_float_atoms sexp;
      let payload = String.sub frame 4 (String.length frame - 4) in
      check_bool "parse = reference parse" true
        (Opprox_util.Sexp.of_string payload = Test_serialize.Ref.of_string payload);
      match (resp, Protocol.response_of_sexp (Opprox_util.Sexp.of_string payload)) with
      | Protocol.Plan a, Protocol.Plan b ->
          check_bool "cache status" true (a.cache = b.cache);
          Alcotest.(check string) "plan text" (plan_text a.plan) (plan_text b.plan)
      | ( Protocol.PlanDelta { delta = Protocol.Replan a; _ },
          Protocol.PlanDelta { delta = Protocol.Replan b; _ } ) ->
          check_int "from phase" a.from_phase b.from_phase;
          Alcotest.(check string) "replan text" (plan_text a.plan) (plan_text b.plan)
      | _, back ->
          Alcotest.(check string) "reply re-encodes to the same bytes" frame
            (Protocol.encode_frame (Protocol.response_to_sexp back)))
    responses

(* Frame IO over a socketpair: framing survives the wire, EOF is clean,
   truncation and absurd lengths are Failures, not hangs or allocations. *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let sexp = Opprox_util.Sexp.of_string "((app toy) (budget 10) (v 1))" in
      Protocol.write_frame a sexp;
      Protocol.write_frame a sexp;
      (match Protocol.read_frame b with
      | Some s -> check_bool "first frame" true (Opprox_util.Sexp.to_string s = Opprox_util.Sexp.to_string sexp)
      | None -> Alcotest.fail "expected a frame");
      ignore (Protocol.read_frame b);
      Unix.close a;
      check_bool "clean EOF" true (Protocol.read_frame b = None))

let test_frame_truncation () =
  with_socketpair (fun a b ->
      (* Length prefix promising 100 bytes, then only 5 and EOF. *)
      let prefix = Bytes.make 4 '\000' in
      Bytes.set prefix 3 (Char.chr 100);
      ignore (Unix.write a prefix 0 4);
      ignore (Unix.write_substring a "((a))" 0 5);
      Unix.close a;
      match Protocol.read_frame b with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure on truncated frame")

let test_frame_oversize () =
  with_socketpair (fun a b ->
      let prefix = Bytes.make 4 '\255' in
      ignore (Unix.write a prefix 0 4);
      match Protocol.read_frame b with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure on oversized frame")

(* The incremental splitter: frames that arrive a byte at a time, several
   frames in one read, and the same failures as [read_frame]. *)
let test_splitter () =
  let frame text = Protocol.encode_frame (Opprox_util.Sexp.of_string text) in
  with_socketpair (fun a b ->
      let sp = Protocol.Splitter.create () in
      let one = frame "((app toy) (budget 10))" in
      String.iteri
        (fun i ch ->
          check_bool "no frame before the last byte" true (Protocol.Splitter.next sp = None);
          ignore (Unix.write_substring a (String.make 1 ch) 0 1);
          check_int (Printf.sprintf "byte %d" i) 1 (Protocol.Splitter.read sp b))
        one;
      check_bool "frame once complete" true (Protocol.Splitter.next sp <> None);
      check_bool "buffer consumed" true (Protocol.Splitter.next sp = None);
      (* Two frames and the start of a third in one read. *)
      let third = frame "((app toy) (budget 30))" in
      let burst = frame "((budget 1))" ^ frame "((budget 2))" ^ String.sub third 0 7 in
      ignore (Unix.write_substring a burst 0 (String.length burst));
      check_int "one read" (String.length burst) (Protocol.Splitter.read sp b);
      check_bool "first" true (Protocol.Splitter.next sp <> None);
      check_bool "second" true (Protocol.Splitter.next sp <> None);
      check_bool "third incomplete" true (Protocol.Splitter.next sp = None);
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      check_int "EOF" 0 (Protocol.Splitter.read sp b);
      match Protocol.Splitter.finish sp with
      | () -> Alcotest.fail "expected Failure on a partial frame at EOF"
      | exception Failure msg ->
          Alcotest.(check string) "message"
            (Printf.sprintf "frame truncated (3 of %d payload bytes)" (String.length third - 4))
            msg);
  with_socketpair (fun a b ->
      let sp = Protocol.Splitter.create () in
      ignore (Unix.write a (Bytes.make 4 '\255') 0 4);
      ignore (Protocol.Splitter.read sp b);
      match Protocol.Splitter.next sp with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected Failure on an oversized length prefix")

(* ---------------------------------------------------------------- server *)

let make_server ?config () = Server.create ?config [ Lazy.force trained ]

let code_of = function
  | Protocol.Error (d :: _) -> d.Diagnostic.code
  | Protocol.Error [] -> "no-diagnostic"
  | Protocol.Plan _ -> "plan"
  | Protocol.PlanDelta _ -> "plan_delta"
  | Protocol.Timeout _ -> "timeout"
  | Protocol.Overloaded _ -> "overloaded"

let test_cold_then_hit () =
  let server = make_server () in
  let client = Client.loopback server in
  let req = Protocol.request ~app:"toy" ~budget:10.0 () in
  (match Client.request client req with
  | Protocol.Plan { plan; cache = Protocol.Miss; models_hash; _ } ->
      (* The served plan is the same one a local solve produces. *)
      let local = Opprox.optimize (Lazy.force trained) ~budget:10.0 in
      check_bool "same schedule" true
        (Schedule.equal plan.Opprox.Optimizer.schedule local.Opprox.Optimizer.schedule);
      check_float "same predicted speedup" local.Opprox.Optimizer.predicted_speedup
        plan.Opprox.Optimizer.predicted_speedup;
      check_bool "hash reported" true
        (Some models_hash = Server.models_hash server "toy")
  | resp -> Alcotest.fail ("expected cold Plan, got " ^ code_of resp));
  (match Client.request client req with
  | Protocol.Plan { cache = Protocol.Hit; _ } -> ()
  | resp -> Alcotest.fail ("expected cache hit, got " ^ code_of resp));
  (* An explicit input equal to the default shares the cache entry. *)
  (match
     Client.request client
       (Protocol.request ~input:toy.Opprox_sim.App.default_input ~app:"toy" ~budget:10.0 ())
   with
  | Protocol.Plan { cache = Protocol.Hit; _ } -> ()
  | resp -> Alcotest.fail ("expected default-input hit, got " ^ code_of resp));
  let s = Server.cache_stats server in
  check_int "hits" 2 s.Plancache.hits;
  check_int "misses" 1 s.Plancache.misses;
  check_int "inflight settled" 0 (Server.inflight server)

let test_no_cache_bypasses_lookup () =
  let server = make_server () in
  let client = Client.loopback server in
  let req = Protocol.request ~no_cache:true ~app:"toy" ~budget:10.0 () in
  (match Client.request client req with
  | Protocol.Plan { cache = Protocol.Miss; _ } -> ()
  | resp -> Alcotest.fail ("expected Miss, got " ^ code_of resp));
  (match Client.request client req with
  | Protocol.Plan { cache = Protocol.Miss; _ } -> ()
  | resp -> Alcotest.fail ("expected Miss again, got " ^ code_of resp));
  (* ...but the solves still populated the cache for ordinary requests. *)
  (match Client.request client (Protocol.request ~app:"toy" ~budget:10.0 ()) with
  | Protocol.Plan { cache = Protocol.Hit; _ } -> ()
  | resp -> Alcotest.fail ("expected Hit, got " ^ code_of resp));
  let s = Server.cache_stats server in
  check_int "no lookups missed" 1 s.Plancache.hits;
  (* The second bypassed solve overwrote the first's entry in place. *)
  check_int "one key inserted" 1 s.Plancache.insertions

let test_validation_errors () =
  let server = make_server () in
  let client = Client.loopback server in
  let expect code req =
    Alcotest.(check string) code code (code_of (Client.request client req))
  in
  expect "SRV001" (Protocol.request ~app:"toy" ~budget:0.0 ());
  expect "SRV001" (Protocol.request ~app:"toy" ~budget:150.0 ());
  expect "SRV001" (Protocol.request ~app:"toy" ~budget:Float.nan ());
  expect "SRV002" (Protocol.request ~app:"nonesuch" ~budget:10.0 ());
  expect "SRV003" (Protocol.request ~models_hash:"deadbeef" ~app:"toy" ~budget:10.0 ());
  expect "SRV006" (Protocol.request ~input:[| 1.0; 2.0 |] ~app:"toy" ~budget:10.0 ());
  expect "SRV006" (Protocol.request ~input:[| Float.infinity |] ~app:"toy" ~budget:10.0 ());
  expect "SRV007" (Protocol.request ~deadline_ms:(-1.0) ~app:"toy" ~budget:10.0 ());
  (* A correct client-asserted hash passes. *)
  let hash = Option.get (Server.models_hash server "toy") in
  (match Client.request client (Protocol.request ~models_hash:hash ~app:"toy" ~budget:10.0 ()) with
  | Protocol.Plan _ -> ()
  | resp -> Alcotest.fail ("expected Plan with correct hash, got " ^ code_of resp));
  (* Rejected requests never reach cache or solver. *)
  check_int "no cache traffic" 1 (Server.cache_stats server).Plancache.misses

let test_deadline_timeout () =
  let server = make_server () in
  let client = Client.loopback server in
  (match
     Client.request client (Protocol.request ~deadline_ms:1e-6 ~app:"toy" ~budget:10.0 ())
   with
  | Protocol.Timeout { deadline_ms; elapsed_ms } ->
      check_float "deadline echoed" 1e-6 deadline_ms;
      check_bool "elapsed past deadline" true (elapsed_ms > deadline_ms)
  | resp -> Alcotest.fail ("expected Timeout, got " ^ code_of resp));
  (* A generous deadline answers normally. *)
  match
    Client.request client (Protocol.request ~deadline_ms:60_000.0 ~app:"toy" ~budget:10.0 ())
  with
  | Protocol.Plan _ -> ()
  | resp -> Alcotest.fail ("expected Plan, got " ^ code_of resp)

let test_default_deadline_config () =
  let config = { Server.default_config with Server.default_deadline_ms = Some 1e-6 } in
  let server = make_server ~config () in
  let client = Client.loopback server in
  (match Client.request client (Protocol.request ~app:"toy" ~budget:10.0 ()) with
  | Protocol.Timeout _ -> ()
  | resp -> Alcotest.fail ("expected Timeout from server default, got " ^ code_of resp));
  (* An explicit per-request deadline overrides the default. *)
  match
    Client.request client (Protocol.request ~deadline_ms:60_000.0 ~app:"toy" ~budget:10.0 ())
  with
  | Protocol.Plan _ -> ()
  | resp -> Alcotest.fail ("expected Plan, got " ^ code_of resp)

let test_concurrent_handles () =
  let server =
    make_server ~config:{ Server.default_config with Server.max_inflight = 2 } ()
  in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            List.init 10 (fun i ->
                Server.handle server
                  (Protocol.request ~no_cache:true ~app:"toy"
                     ~budget:(5.0 +. float_of_int ((d * 10) + i))
                     ()))))
  in
  let responses = List.concat_map Domain.join domains in
  (* Under contention every reply is either a plan or an explicit shed —
     never an exception, never a corrupted cache. *)
  List.iter
    (fun resp ->
      match resp with
      | Protocol.Plan _ | Protocol.Overloaded _ -> ()
      | _ -> Alcotest.fail ("unexpected reply under load: " ^ code_of resp))
    responses;
  check_int "inflight settled" 0 (Server.inflight server);
  check_bool "cache within capacity" true
    ((Server.cache_stats server).Plancache.insertions <= 40)

let test_create_rejects_duplicates () =
  let tr = Lazy.force trained in
  Alcotest.check_raises "duplicate apps"
    (Invalid_argument "Server.create: duplicate models for toy") (fun () ->
      ignore (Server.create [ tr; tr ]));
  Alcotest.check_raises "empty" (Invalid_argument "Server.create: no trained pipelines")
    (fun () -> ignore (Server.create []));
  (* select cannot watch descriptors at or above FD_SETSIZE. *)
  Alcotest.check_raises "max_inflight past FD_SETSIZE"
    (Invalid_argument
       "Server.create: max_inflight must be <= 960 (select watches descriptors below 1024)")
    (fun () ->
      ignore
        (Server.create ~config:{ Server.default_config with Server.max_inflight = 5000 } [ tr ]));
  ignore
    (Server.create
       ~config:{ Server.default_config with Server.max_inflight = Server.max_inflight_limit }
       [ tr ])

(* -------------------------------------------------------- socket end-to-end *)

let temp_socket () =
  let path = Filename.temp_file "opprox_serve" ".sock" in
  Sys.remove path;
  path

let rec connect_retry ~socket n =
  match Client.connect ~socket with
  | client -> client
  | exception Unix.Unix_error _ when n > 0 ->
      Unix.sleepf 0.05;
      connect_retry ~socket (n - 1)

let test_socket_end_to_end () =
  let socket = temp_socket () in
  let server =
    make_server ~config:{ Server.default_config with Server.max_inflight = 1; jobs = Some 2 } ()
  in
  let daemon = Domain.spawn (fun () -> Server.serve server ~socket) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join daemon)
    (fun () ->
      let client = connect_retry ~socket 100 in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* Cold then hot over the wire. *)
          (match Client.request client (Protocol.request ~app:"toy" ~budget:10.0 ()) with
          | Protocol.Plan { cache = Protocol.Miss; _ } -> ()
          | resp -> Alcotest.fail ("expected Miss over socket, got " ^ code_of resp));
          (match Client.request client (Protocol.request ~app:"toy" ~budget:10.0 ()) with
          | Protocol.Plan { cache = Protocol.Hit; _ } -> ()
          | resp -> Alcotest.fail ("expected Hit over socket, got " ^ code_of resp));
          (* With max_inflight 1 and this connection holding the slot, a
             second connection is shed at accept: the daemon volunteers
             one Overloaded frame and closes without reading anything. *)
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX socket);
              match Protocol.read_frame fd with
              | Some frame -> (
                  match Protocol.response_of_sexp frame with
                  | Protocol.Overloaded { limit; _ } -> check_int "limit" 1 limit
                  | resp -> Alcotest.fail ("expected Overloaded, got " ^ code_of resp))
              | None -> Alcotest.fail "shed connection closed without a frame"));
      (* Wait for the loop to release the closed connection's admission
         slot, or the next connect is shed too. *)
      let rec settle n =
        if Server.inflight server > 0 && n > 0 then begin
          Unix.sleepf 0.01;
          settle (n - 1)
        end
      in
      settle 200;
      (* Frame-level garbage gets a structured SRV004 reply. *)
      let garbage = connect_retry ~socket 100 in
      Fun.protect
        ~finally:(fun () -> Client.close garbage)
        (fun () ->
          match Client.send_raw garbage "((v 1) (app" with
          | Protocol.Error (d :: _) ->
              Alcotest.(check string) "SRV004" "SRV004" d.Diagnostic.code
          | resp -> Alcotest.fail ("expected SRV004, got " ^ code_of resp)));
  check_bool "socket file removed at shutdown" false (Sys.file_exists socket)

(* ------------------------------------------------------- connection handling *)

(* A daemon on a temp socket for the length of [f], stopped and joined
   afterwards.  [jobs = Some 2] gives the pool a single worker, which is
   what the daemon runs with under [opprox serve -j 2]. *)
let with_daemon ?(config = { Server.default_config with Server.jobs = Some 2 })
    ?(apps = [ trained ]) f =
  let socket = temp_socket () in
  let server = Server.create ~config (List.map Lazy.force apps) in
  let daemon = Domain.spawn (fun () -> Server.serve server ~socket) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join daemon)
    (fun () ->
      Client.close (connect_retry ~socket 100);
      f server socket)

(* A raw client socket whose reads give up after [timeout] seconds, so a
   stalled daemon fails the test instead of hanging it. *)
let raw_connect ?(timeout = 1.0) socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  fd

let with_raw ?timeout socket f =
  let fd = raw_connect ?timeout socket in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ()) (fun () -> f fd)

let read_reply fd =
  match Protocol.read_frame fd with
  | Some sexp -> Protocol.response_of_sexp sexp
  | None -> Alcotest.fail "connection closed without a reply"
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Alcotest.fail "no reply before the client's receive timeout"

let request_frame ?no_cache ?deadline_ms ?(app = "toy") budget =
  Protocol.encode_frame
    (Protocol.request_to_sexp (Protocol.request ?no_cache ?deadline_ms ~app ~budget ()))

let write_string fd s = ignore (Unix.write_substring fd s 0 (String.length s))

(* One request on a fresh connection, answered within [within] seconds. *)
let expect_plan_within ?(within = 1.0) socket budget =
  with_raw ~timeout:within socket (fun fd ->
      let t0 = Unix.gettimeofday () in
      write_string fd (request_frame budget);
      (match read_reply fd with
      | Protocol.Plan _ -> ()
      | resp -> Alcotest.fail ("expected Plan, got " ^ code_of resp));
      let dt = Unix.gettimeofday () -. t0 in
      check_bool (Printf.sprintf "answered in %.3f s (< %.1f s)" dt within) true (dt < within))

(* Give the daemon time to accept a connection just opened. *)
let settle_accept () = Unix.sleepf 0.1

let test_idle_conn_does_not_stall () =
  with_daemon (fun _ socket ->
      with_raw socket (fun _idle ->
          settle_accept ();
          expect_plan_within socket 10.0;
          expect_plan_within socket 10.0))

let test_peer_hangup () =
  with_daemon (fun _ socket ->
      (* An uncached solve whose client is gone before the reply: the
         write fails with EPIPE, which must not kill the process. *)
      with_raw socket (fun fd -> write_string fd (request_frame ~no_cache:true 7.0));
      Unix.sleepf 0.2;
      expect_plan_within socket 10.0)

let test_unread_replies_do_not_stall () =
  with_daemon (fun _ socket ->
      expect_plan_within socket 10.0;
      with_raw socket (fun flood ->
          (* Pipeline cache hits without ever reading: replies back up
             until the daemon's writes to this client would block. *)
          Unix.set_nonblock flood;
          let frame = request_frame 10.0 in
          let rec go off frames stalls =
            if frames < 100_000 && stalls < 5 then
              match
                Unix.single_write_substring flood frame off (String.length frame - off)
              with
              | n when off + n = String.length frame -> go 0 (frames + 1) 0
              | n -> go (off + n) frames 0
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  Unix.sleepf 0.02;
                  go off frames (stalls + 1)
            else frames
          in
          let frames = go 0 0 0 in
          check_bool (Printf.sprintf "flood backed up (%d frames)" frames) true (frames < 100_000);
          expect_plan_within socket 10.0))

let test_split_frame () =
  with_daemon (fun _ socket ->
      with_raw socket (fun fd ->
          let frame = request_frame 10.0 in
          let cut = 10 in
          write_string fd (String.sub frame 0 cut);
          settle_accept ();
          (* Half a frame must not hold the loop. *)
          expect_plan_within socket 12.0;
          Unix.sleepf 0.1;
          write_string fd (String.sub frame cut (String.length frame - cut));
          match read_reply fd with
          | Protocol.Plan { plan; _ } -> check_float "budget" 10.0 plan.Opprox.Optimizer.budget
          | resp -> Alcotest.fail ("expected Plan, got " ^ code_of resp)))

let test_eof_mid_frame () =
  with_daemon (fun _ socket ->
      let frame = request_frame 10.0 in
      List.iter
        (fun (what, cut) ->
          with_raw socket (fun fd ->
              write_string fd (String.sub frame 0 cut);
              Unix.shutdown fd Unix.SHUTDOWN_SEND;
              match read_reply fd with
              | Protocol.Error (d :: _) -> Alcotest.(check string) what "SRV004" d.Diagnostic.code
              | resp -> Alcotest.fail (what ^ ": expected SRV004, got " ^ code_of resp)))
        [ ("EOF in the length prefix", 2); ("EOF in the payload", 10) ])

let test_pipelined_in_order () =
  with_daemon (fun _ socket ->
      let client = connect_retry ~socket 100 in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* Two solves on the worker with an inline rejection between
             them: replies come back in request order. *)
          let budgets = [ 11.0; 150.0; 13.0; 11.0 ] in
          let replies =
            Client.batch client
              (List.map (fun budget -> Protocol.request ~app:"toy" ~budget ()) budgets)
          in
          List.iter2
            (fun budget reply ->
              match reply with
              | Protocol.Plan { plan; _ } ->
                  check_float "reply order" budget plan.Opprox.Optimizer.budget
              | Protocol.Error (d :: _) when budget > 100.0 ->
                  Alcotest.(check string) "rejected in place" "SRV001" d.Diagnostic.code
              | resp -> Alcotest.fail ("unexpected " ^ code_of resp))
            budgets replies))

let test_idle_timeout () =
  let config =
    { Server.default_config with Server.jobs = Some 2; idle_timeout_s = 0.2 }
  in
  with_daemon ~config (fun server socket ->
      with_raw ~timeout:2.0 socket (fun fd ->
          let t0 = Unix.gettimeofday () in
          check_bool "closed by the daemon" true (Protocol.read_frame fd = None);
          check_bool "after the idle timeout" true (Unix.gettimeofday () -. t0 >= 0.15));
      Unix.sleepf 0.1;
      check_int "admission slot released" 0 (Server.inflight server))

let test_stop_with_idle_conn () =
  let socket = temp_socket () in
  let server =
    make_server ~config:{ Server.default_config with Server.jobs = Some 2; drain_timeout_s = 5.0 } ()
  in
  let daemon = Domain.spawn (fun () -> Server.serve server ~socket) in
  Client.close (connect_retry ~socket 100);
  with_raw ~timeout:2.0 socket (fun idle ->
      settle_accept ();
      let t0 = Unix.gettimeofday () in
      Server.stop server;
      Domain.join daemon;
      let dt = Unix.gettimeofday () -. t0 in
      check_bool (Printf.sprintf "stop returned in %.3f s" dt) true (dt < 1.0);
      check_bool "idle connection closed" true (Protocol.read_frame idle = None))

let counter name =
  match Opprox_obs.Metrics.find name with Some (Opprox_obs.Metrics.Counter n) -> n | _ -> 0

let with_raws n socket f =
  let fds = List.init n (fun _ -> raw_connect ~timeout:10.0 socket) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () -> f fds)

let test_one_solve_per_fingerprint () =
  with_daemon (fun server socket ->
      let solves0 = counter "optimizer.solves" in
      let coalesced0 = counter "server.singleflight.coalesced" in
      with_raws 7 socket (fun fds ->
          settle_accept ();
          (* Six connections ask for one fresh key at once, a seventh for
             another, with one pool worker behind the loop. *)
          List.iteri
            (fun i fd -> write_string fd (request_frame (if i < 6 then 21.0 else 22.0)))
            fds;
          let plans =
            List.map
              (fun fd ->
                match read_reply fd with
                | Protocol.Plan { plan; _ } -> plan
                | resp -> Alcotest.fail ("expected Plan, got " ^ code_of resp))
              fds
          in
          let dups = List.filteri (fun i _ -> i < 6) plans in
          let first = plan_text (List.hd dups) in
          List.iter
            (fun p -> Alcotest.(check string) "duplicates share a plan" first (plan_text p))
            dups;
          check_int "one solve per fingerprint" 2 (counter "optimizer.solves" - solves0);
          check_int "every duplicate waited for the solve or hit the cache" 5
            (counter "server.singleflight.coalesced" - coalesced0
            + (Server.cache_stats server).Plancache.hits)))

(* Wait until the daemon has dispatched [target] solves in all: the
   leaders counter is process-wide, and the daemon runs in this process. *)
let await_leaders target =
  let rec go n =
    if counter "server.singleflight.leaders" < target && n > 0 then begin
      Unix.sleepf 0.001;
      go (n - 1)
    end
  in
  go 10_000;
  check_int "solves dispatched" target (counter "server.singleflight.leaders")

(* Hold the daemon's one worker on 200 distinct kmeans solves (30 ms or
   more of work at 0.15 ms a solve), each dispatched before [f] runs, so
   a solve [f] starts finishes well after [f]'s next requests arrive and
   after a 5 ms deadline.  The daemon must admit that many connections:
   start it with [busy_config]. *)
let busy_config = { Server.default_config with Server.jobs = Some 2; max_inflight = 256 }

let with_busy_worker socket f =
  let n = 200 in
  with_raws n socket (fun ahead ->
      let leaders0 = counter "server.singleflight.leaders" in
      List.iteri
        (fun i fd ->
          write_string fd (request_frame ~app:"kmeans" (30.0 +. (0.25 *. float_of_int i))))
        ahead;
      await_leaders (leaders0 + n);
      f ();
      List.iter
        (fun fd ->
          match read_reply fd with
          | Protocol.Plan _ -> ()
          | resp -> Alcotest.fail ("expected Plan, got " ^ code_of resp))
        ahead)

(* Send a kmeans request and wait until the loop has dispatched it, so
   it is in flight before its duplicate is sent. *)
let start_leader leader budget =
  let leaders0 = counter "server.singleflight.leaders" in
  write_string leader (request_frame ~app:"kmeans" budget);
  await_leaders (leaders0 + 1)

let test_parked_request_own_deadline () =
  with_daemon ~config:busy_config ~apps:[ kmeans_fixture ] (fun _ socket ->
      with_raws 2 socket (fun fds ->
          let leader = List.nth fds 0 and dup = List.nth fds 1 in
          settle_accept ();
          let coalesced0 = counter "server.singleflight.coalesced" in
          with_busy_worker socket (fun () ->
              start_leader leader 7.7;
              write_string dup (request_frame ~app:"kmeans" ~deadline_ms:5.0 7.7);
              (match read_reply dup with
              | Protocol.Timeout { deadline_ms; _ } -> check_float "own deadline" 5.0 deadline_ms
              | resp -> Alcotest.fail ("expected Timeout, got " ^ code_of resp));
              match read_reply leader with
              | Protocol.Plan { cache = Protocol.Miss; _ } -> ()
              | resp -> Alcotest.fail ("expected the leader's Plan, got " ^ code_of resp));
          check_int "the duplicate waited for the solve" 1
            (counter "server.singleflight.coalesced" - coalesced0);
          (* The solve still entered the LRU: the retry hits. *)
          write_string dup (request_frame ~app:"kmeans" ~deadline_ms:5.0 7.7);
          match read_reply dup with
          | Protocol.Plan { cache = Protocol.Hit; _ } -> ()
          | resp -> Alcotest.fail ("expected a cache hit, got " ^ code_of resp)))

let test_pipelined_behind_parked () =
  with_daemon ~config:busy_config ~apps:[ kmeans_fixture ] (fun _ socket ->
      with_raws 2 socket (fun fds ->
          let leader = List.nth fds 0 and piped = List.nth fds 1 in
          settle_accept ();
          let coalesced0 = counter "server.singleflight.coalesced" in
          with_busy_worker socket (fun () ->
              start_leader leader 7.7;
              (* A duplicate that waits for the leader, then an inline
                 rejection and a fresh solve pipelined behind it. *)
              write_string piped
                (String.concat ""
                   (List.map (fun b -> request_frame ~app:"kmeans" b) [ 7.7; 150.0; 12.5 ]));
              ignore (read_reply leader));
          check_int "the duplicate waited for the solve" 1
            (counter "server.singleflight.coalesced" - coalesced0);
          List.iter
            (fun budget ->
              match read_reply piped with
              | Protocol.Plan { plan; _ } ->
                  check_float "reply order" budget plan.Opprox.Optimizer.budget
              | Protocol.Error (d :: _) when budget > 100.0 ->
                  Alcotest.(check string) "rejected in place" "SRV001" d.Diagnostic.code
              | resp -> Alcotest.fail ("unexpected " ^ code_of resp))
            [ 7.7; 150.0; 12.5 ]))

let suite =
  [
    ( "plancache",
      [
        prop_lru_matches_model;
        Alcotest.test_case "counters exact" `Quick test_counters_exact;
        Alcotest.test_case "capacity bound (4 domains)" `Quick test_capacity_bound_concurrent;
        Alcotest.test_case "fingerprint stability" `Quick test_fingerprint_stability;
        Alcotest.test_case "create validation" `Quick test_create_validation;
      ] );
    ( "serve-protocol",
      [
        Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
        Alcotest.test_case "wire bytes match the reference codec" `Quick
          test_wire_bytes_match_reference;
        Alcotest.test_case "frame roundtrip + EOF" `Quick test_frame_roundtrip;
        Alcotest.test_case "truncated frame" `Quick test_frame_truncation;
        Alcotest.test_case "oversized frame" `Quick test_frame_oversize;
        Alcotest.test_case "incremental splitter" `Quick test_splitter;
      ] );
    ( "serve-server",
      [
        Alcotest.test_case "cold solve then cache hit" `Quick test_cold_then_hit;
        Alcotest.test_case "no-cache bypass" `Quick test_no_cache_bypasses_lookup;
        Alcotest.test_case "SRV validation errors" `Quick test_validation_errors;
        Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
        Alcotest.test_case "server default deadline" `Quick test_default_deadline_config;
        Alcotest.test_case "concurrent handles" `Quick test_concurrent_handles;
        Alcotest.test_case "create validation" `Quick test_create_rejects_duplicates;
        Alcotest.test_case "socket end-to-end" `Quick test_socket_end_to_end;
      ] );
    ( "serve-connections",
      [
        Alcotest.test_case "idle connection does not stall" `Quick
          test_idle_conn_does_not_stall;
        Alcotest.test_case "peer hang-up before reply" `Quick test_peer_hangup;
        Alcotest.test_case "unread replies do not stall" `Quick
          test_unread_replies_do_not_stall;
        Alcotest.test_case "frame split across writes" `Quick test_split_frame;
        Alcotest.test_case "EOF mid-frame gets SRV004" `Quick test_eof_mid_frame;
        Alcotest.test_case "pipelined replies in order" `Quick test_pipelined_in_order;
        Alcotest.test_case "idle timeout closes" `Quick test_idle_timeout;
        Alcotest.test_case "stop with an idle connection" `Quick test_stop_with_idle_conn;
        Alcotest.test_case "one solve per fingerprint" `Quick test_one_solve_per_fingerprint;
        Alcotest.test_case "parked request keeps its own deadline" `Quick
          test_parked_request_own_deadline;
        Alcotest.test_case "pipelined frames behind a parked request" `Quick
          test_pipelined_behind_parked;
      ] );
  ]
