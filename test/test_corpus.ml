(* Tests for the precomputed plan corpus (Opprox_corpus) and the
   lookup-first serving path built on it: fingerprint/corpus roundtrips,
   nearest-neighbour budget fallback, CORP diagnostics, singleflight
   solve coalescing, and LRU snapshot/restore across server restarts. *)

module Corpus = Opprox_corpus.Corpus
module Key = Opprox_corpus.Key
module Precompute = Opprox_corpus.Precompute
module Plancache = Opprox_serve.Plancache
module Protocol = Opprox_serve.Protocol
module Server = Opprox_serve.Server
module Client = Opprox_serve.Client
module Singleflight = Opprox_serve.Singleflight
module Diagnostic = Opprox_analysis.Diagnostic
module Metrics = Opprox_obs.Metrics
module Schedule = Opprox_sim.Schedule
module Sexp = Opprox_util.Sexp
open Fixtures

let trained =
  lazy (Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy)

let models_hash () = Precompute.models_hash (Lazy.force trained)

let temp_corpus () = Filename.temp_file "opprox_corpus" ".opx"

(* Every float field survives the packed binary encoding bit-exactly, so
   plan equality is structural up to the schedule's representation. *)
let plan_equal (a : Opprox.Optimizer.plan) (b : Opprox.Optimizer.plan) =
  Schedule.equal a.Opprox.Optimizer.schedule b.Opprox.Optimizer.schedule
  && a.Opprox.Optimizer.choices = b.Opprox.Optimizer.choices
  && a.Opprox.Optimizer.predicted_speedup = b.Opprox.Optimizer.predicted_speedup
  && a.Opprox.Optimizer.predicted_qos = b.Opprox.Optimizer.predicted_qos
  && a.Opprox.Optimizer.budget = b.Opprox.Optimizer.budget

let counter_value name =
  match Metrics.find name with Some (Metrics.Counter n) -> n | _ -> 0

let bump_ulp x = Int64.float_of_bits (Int64.succ (Int64.bits_of_float x))

(* ------------------------------------------------------------------- key *)

let test_key_composition () =
  let app = "toy" and input = [| 1.5; -0.25 |] and models_hash = "cafe" in
  let group = Key.group ~app ~input ~models_hash in
  check_bool "fingerprint = group | budget" true
    (Key.fingerprint ~app ~input ~budget:10.0 ~models_hash
    = Key.of_group ~group ~budget:10.0);
  check_bool "budget ulp changes key" false
    (Key.of_group ~group ~budget:10.0 = Key.of_group ~group ~budget:(bump_ulp 10.0));
  check_bool "hash deterministic" true
    (Int64.equal (Key.hash64 group) (Key.hash64 group));
  check_bool "hash separates groups" false
    (Int64.equal (Key.hash64 group)
       (Key.hash64 (Key.group ~app:"toy2" ~input ~models_hash)))

(* Float bits enter a key as the text of [Printf.sprintf "%Lx"]: lowercase,
   no leading zeros, the sign bit read as unsigned.  Corpus files written
   before the hand-rolled printer must keep exact hits, so the two are
   compared over random bits and the patterns at the printer's edges:
   zero, one nibble, every nibble, the sign bit alone, and NaNs. *)
let prop_key_float_bits =
  let edges =
    [ 0L; 1L; 0xfL; 0x10L; -1L; Int64.min_int; Int64.max_int; 0x7ff8000000000000L;
      0xfff8000000000000L; 0x7ff0000000000001L; 0x8000000000000001L ]
  in
  qcheck_case ~count:2000 "key float bits = %Lx"
    (QCheck.make ~print:(Printf.sprintf "%Lx")
       QCheck.Gen.(frequency [ (4, ui64); (1, oneofl edges) ]))
    (fun bits ->
      let x = Int64.float_of_bits bits in
      let hex = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
      Key.of_group ~group:"g" ~budget:x = "g|" ^ hex
      && Key.group ~app:"a" ~input:[| x; x |] ~models_hash:"h"
         = Printf.sprintf "a|%s.%s.|h" hex hex)

(* ---------------------------------------------------------------- corpus *)

let sweep_entries budgets =
  let entries, progress =
    Precompute.sweep ~budgets (* default inputs: default_input + training grid *)
      [ Lazy.force trained ]
  in
  check_int "sweep apps" 1 progress.Precompute.apps;
  check_bool "sweep produced plans" true (progress.Precompute.cells > 0);
  entries

let write_corpus budgets =
  let entries = sweep_entries budgets in
  let path = temp_corpus () in
  Corpus.write path entries;
  (path, entries)

let fingerprint_of (e : Corpus.entry) =
  Key.fingerprint ~app:e.Corpus.app ~input:e.Corpus.input ~budget:e.Corpus.budget
    ~models_hash:e.Corpus.models_hash

let test_write_load_roundtrip () =
  let path, entries = write_corpus [| 5.0; 10.0; 20.0 |] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = Corpus.load path in
      check_int "length" (List.length entries) (Corpus.length c);
      check_bool "apps" true (Corpus.apps c = [ ("toy", models_hash ()) ]);
      check_bool "models_hash" true (Corpus.models_hash c "toy" = Some (models_hash ()));
      check_bool "budget grid" true (Corpus.budgets c = [| 5.0; 10.0; 20.0 |]);
      List.iter
        (fun (e : Corpus.entry) ->
          let fp = fingerprint_of e in
          check_bool "mem" true (Corpus.mem c fp);
          match Corpus.find c fp with
          | Some plan -> check_bool "plan roundtrips" true (plan_equal plan e.Corpus.plan)
          | None -> Alcotest.fail ("lookup lost " ^ fp))
        entries;
      check_bool "unknown fingerprint" true (Corpus.find c "toy|3ff8|beef|24" = None))

(* QCheck roundtrip over random budget grids: write -> load behaves as
   the in-memory map, and an off-by-one-ulp budget never matches. *)
let prop_corpus_roundtrip =
  qcheck_case ~count:8 "corpus write -> load = in-memory map"
    QCheck.(list_of_size (Gen.int_range 1 3) (float_range 3.0 60.0))
    (fun budgets ->
      let budgets = Array.of_list (List.sort_uniq compare budgets) in
      let inputs _ = [ toy.Opprox_sim.App.default_input ] in
      let entries, _ = Precompute.sweep ~inputs ~budgets [ Lazy.force trained ] in
      QCheck.assume (entries <> []);
      let path = temp_corpus () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Corpus.write path entries;
          let c = Corpus.load path in
          Corpus.length c = List.length entries
          && List.for_all
               (fun (e : Corpus.entry) ->
                 let fp = fingerprint_of e in
                 let ulp_fp =
                   Key.fingerprint ~app:e.Corpus.app ~input:e.Corpus.input
                     ~budget:(bump_ulp e.Corpus.budget) ~models_hash:e.Corpus.models_hash
                 in
                 (match Corpus.find c fp with
                 | Some plan -> plan_equal plan e.Corpus.plan
                 | None -> false)
                 && (Corpus.find c ulp_fp = None
                    || List.exists
                         (fun (o : Corpus.entry) -> fingerprint_of o = ulp_fp)
                         entries))
               entries))

let test_write_validation () =
  let entries = sweep_entries [| 10.0 |] in
  let path = temp_corpus () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Corpus.write path [] with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "empty corpus accepted");
      (match Corpus.write path (entries @ entries) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "duplicate fingerprints accepted");
      let forged =
        List.map (fun (e : Corpus.entry) -> { e with Corpus.models_hash = "aa" }) entries
      in
      match Corpus.write path (entries @ forged) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "two models hashes for one app accepted")

(* ----------------------------------------------------- nearest neighbour *)

let test_find_nn_grid () =
  let path, entries = write_corpus [| 5.0; 10.0; 20.0 |] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let c = Corpus.load path in
      let group =
        Key.group ~app:"toy" ~input:toy.Opprox_sim.App.default_input
          ~models_hash:(models_hash ())
      in
      let expect_cell requested cell =
        match Corpus.find_nn c ~group ~budget:requested with
        | Some (b, plan) ->
            check_float (Printf.sprintf "nn(%g) grid budget" requested) cell b;
            check_float "plan matches grid cell" cell plan.Opprox.Optimizer.budget
        | None -> Alcotest.fail (Printf.sprintf "nn(%g): expected a plan" requested)
      in
      expect_cell 10.0 10.0;
      (* exact grid point *)
      expect_cell 12.5 10.0;
      (* between cells: tighten down *)
      expect_cell 100.0 20.0;
      (* above the grid: its top cell *)
      check_bool "below the whole grid" true (Corpus.find_nn c ~group ~budget:4.9 = None);
      check_bool "unknown group" true
        (Corpus.find_nn c
           ~group:(Key.group ~app:"nonesuch" ~input:[| 1.0 |] ~models_hash:"00")
           ~budget:10.0
        = None);
      ignore entries)

(* One corpus shared by the NN property and the coverage lints. *)
let nn_corpus =
  lazy
    (let path, _ = write_corpus [| 5.0; 10.0; 20.0 |] in
     at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
     Corpus.load path)

let prop_nn_never_exceeds_budget =
  qcheck_case ~count:200 "nn plan budget <= requested budget"
    QCheck.(float_range 0.1 120.0)
    (fun requested ->
      let c = Lazy.force nn_corpus in
      let group =
        Key.group ~app:"toy" ~input:toy.Opprox_sim.App.default_input
          ~models_hash:(models_hash ())
      in
      match Corpus.find_nn c ~group ~budget:requested with
      | None -> requested < 5.0 (* only below the whole grid may it give up *)
      | Some (b, plan) ->
          b <= requested
          && plan.Opprox.Optimizer.budget = b
          && Array.exists (fun g -> g = b) (Corpus.budgets c))

(* ----------------------------------------------------------- diagnostics *)

let codes ds = List.map (fun d -> d.Diagnostic.code) ds

let test_lint_corpus_file () =
  let path, _ = write_corpus [| 5.0; 10.0 |] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_bool "clean file lints clean" true
        (Corpus.lint_file ~expected_hashes:[ ("toy", models_hash ()) ] path = []);
      (* Stale models hash: CORP001. *)
      check_bool "stale hash" true
        (List.mem "CORP001"
           (codes (Corpus.lint_file ~expected_hashes:[ ("toy", "deadbeef") ] path)));
      (* Served app the corpus never covered: CORP003 warning. *)
      let ds = Corpus.lint_file ~expected_hashes:[ ("nonesuch", "00") ] path in
      check_bool "uncovered app" true (List.mem "CORP003" (codes ds));
      check_bool "uncovered app is a warning" true
        (List.for_all (fun d -> d.Diagnostic.severity <> Diagnostic.Error) ds);
      (* Truncation: CORP002 from lint, Failure from load. *)
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let cut = Filename.temp_file "opprox_corpus" ".cut" in
      Fun.protect
        ~finally:(fun () -> Sys.remove cut)
        (fun () ->
          Out_channel.with_open_bin cut (fun oc ->
              Out_channel.output_string oc (String.sub bytes 0 (String.length bytes / 2)));
          check_bool "truncated file" true (List.mem "CORP002" (codes (Corpus.lint_file cut)));
          (match Corpus.load cut with
          | exception Failure _ -> ()
          | _ -> Alcotest.fail "load accepted a truncated corpus");
          (* Garbage magic. *)
          Out_channel.with_open_bin cut (fun oc ->
              Out_channel.output_string oc
                ("XXXXXXXX" ^ String.sub bytes 8 (String.length bytes - 8)));
          check_bool "bad magic" true (List.mem "CORP002" (codes (Corpus.lint_file cut)))))

let test_lint_coverage () =
  let c = Lazy.force nn_corpus in
  check_bool "covered request" true (Corpus.lint_coverage c ~app:"toy" ~budget:10.0 = []);
  check_bool "off-grid but answerable" true
    (Corpus.lint_coverage c ~app:"toy" ~budget:12.5 = []);
  check_bool "below the grid" true
    (List.mem "CORP003" (codes (Corpus.lint_coverage c ~app:"toy" ~budget:1.0)));
  check_bool "unknown app" true
    (List.mem "CORP003" (codes (Corpus.lint_coverage c ~app:"nonesuch" ~budget:10.0)))

(* ----------------------------------------------------------- singleflight *)

let test_singleflight_one_solve () =
  let flight = Singleflight.create () in
  let n = 6 in
  let calls = Atomic.make 0 in
  let entered = Atomic.make 0 in
  let f () =
    Atomic.incr calls;
    (* Hold the flight open until every domain has reached [run], then a
       beat longer, so stragglers park rather than lead a second flight.
       Poll with a sleep, not [Domain.cpu_relax]: sleeping enters a
       blocking section, so on a single-core host the runtime can still
       run stop-the-world sections (and the remaining [Domain.spawn]s)
       while this leader waits. *)
    while Atomic.get entered < n do
      Unix.sleepf 0.002
    done;
    Unix.sleepf 0.1;
    42
  in
  let worker () =
    Atomic.incr entered;
    Singleflight.run flight "hot-key" f
  in
  let domains = List.init (n - 1) (fun _ -> Domain.spawn worker) in
  (* Run this domain's worker in a separate binding: [::] evaluates right
     to left, so inlining it after the joins would deadlock the gate. *)
  let mine = worker () in
  let outcomes = mine :: List.map Domain.join domains in
  check_int "exactly one execution" 1 (Atomic.get calls);
  check_int "one leader" 1
    (List.length (List.filter (function Singleflight.Led _ -> true | _ -> false) outcomes));
  List.iter
    (fun o ->
      match o with
      | Singleflight.Led v | Singleflight.Joined v -> check_int "shared result" 42 v)
    outcomes;
  check_int "no flights left" 0 (Singleflight.inflight flight);
  (* The entry is gone, so a later caller leads a fresh flight. *)
  match Singleflight.run flight "hot-key" (fun () -> Atomic.incr calls; 7) with
  | Singleflight.Led 7 -> check_int "fresh flight ran" 2 (Atomic.get calls)
  | _ -> Alcotest.fail "expected a fresh leader"

let test_singleflight_leader_failure () =
  let flight = Singleflight.create () in
  (match Singleflight.run flight "k" (fun () -> failwith "boom") with
  | exception Failure msg -> Alcotest.(check string) "leader exn" "boom" msg
  | _ -> Alcotest.fail "expected the leader's exception");
  (* The failed flight is forgotten; the key is reusable. *)
  match Singleflight.run flight "k" (fun () -> 1) with
  | Singleflight.Led 1 -> ()
  | _ -> Alcotest.fail "expected a fresh flight after failure"

let test_server_coalesces_hot_key () =
  let server = Server.create [ Lazy.force trained ] in
  let solves0 = counter_value "optimizer.solves" in
  let leaders0 = counter_value "server.singleflight.leaders" in
  let coalesced0 = counter_value "server.singleflight.coalesced" in
  let n = 6 in
  let gate = Atomic.make 0 in
  let req = Protocol.request ~app:"toy" ~budget:33.0 () in
  let worker () =
    Atomic.incr gate;
    (* Sleep-poll (see above): a busy-spin here can starve the runtime's
       stop-the-world handshake on a single-core host. *)
    while Atomic.get gate < n do
      Unix.sleepf 0.002
    done;
    Server.handle server req
  in
  let domains = List.init (n - 1) (fun _ -> Domain.spawn worker) in
  (* Separate binding: [::] evaluates right to left (see the singleflight
     test above); joining before this worker runs would deadlock the gate. *)
  let mine = worker () in
  let responses = mine :: List.map Domain.join domains in
  List.iter
    (fun resp ->
      match resp with
      | Protocol.Plan _ -> ()
      | _ -> Alcotest.fail "expected every coalesced reply to be a Plan")
    responses;
  let solves = counter_value "optimizer.solves" - solves0 in
  let leaders = counter_value "server.singleflight.leaders" - leaders0 in
  let coalesced = counter_value "server.singleflight.coalesced" - coalesced0 in
  (* Domains that lose the race entirely (arrive after the flight
     published) hit the cache instead; nobody solves twice. *)
  check_int "one solve under the storm" 1 solves;
  check_int "one leader" 1 leaders;
  (* A request losing the race entirely (arriving after the flight
     published) hits the cache instead of joining; nobody solves twice. *)
  check_int "everyone else joined or hit the cache" (n - 1)
    (coalesced + (Server.cache_stats server).Plancache.hits);
  check_int "one cache insertion" 1 (Server.cache_stats server).Plancache.insertions

(* ------------------------------------------------------ snapshot/restore *)

let test_plancache_snapshot_recency () =
  let c = Plancache.create ~shards:1 ~capacity:2 () in
  Plancache.add c "a" 1;
  Plancache.add c "b" 2;
  ignore (Plancache.find c "a");
  (* "a" most recent, "b" next to evict *)
  let snap = Plancache.to_sexp (fun v -> Sexp.Atom (string_of_int v)) c in
  let fresh = Plancache.create ~shards:1 ~capacity:2 () in
  let restored =
    Plancache.restore
      (function Sexp.Atom s -> int_of_string s | _ -> failwith "atom expected")
      fresh snap
  in
  check_int "entries restored" 2 restored;
  check_bool "values survive" true
    (Plancache.find fresh "a" = Some 1 && Plancache.find fresh "b" = Some 2);
  (* Re-establish the pre-snapshot recency, then overflow: the restored
     cache must evict exactly what the live cache would have. *)
  ignore (Plancache.find fresh "a");
  Plancache.add fresh "c" 3;
  check_bool "LRU order preserved" true
    (Plancache.mem fresh "a" && not (Plancache.mem fresh "b") && Plancache.mem fresh "c")

let test_server_snapshot_roundtrip () =
  let snap = Filename.temp_file "opprox_snap" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove snap)
    (fun () ->
      let server = Server.create [ Lazy.force trained ] in
      let client = Client.loopback server in
      List.iter
        (fun budget ->
          match Client.request client (Protocol.request ~app:"toy" ~budget ()) with
          | Protocol.Plan _ -> ()
          | _ -> Alcotest.fail "warmup solve failed")
        [ 6.0; 11.0 ];
      Server.save_cache_snapshot server snap;
      (* Restart: a fresh server restores the snapshot and serves the
         warmed keys from cache without solving. *)
      let solves0 = counter_value "optimizer.solves" in
      let config = { Server.default_config with Server.cache_snapshot = Some snap } in
      let restarted = Server.create ~config [ Lazy.force trained ] in
      let client' = Client.loopback restarted in
      List.iter
        (fun budget ->
          match Client.request client' (Protocol.request ~app:"toy" ~budget ()) with
          | Protocol.Plan { cache = Protocol.Hit; _ } -> ()
          | Protocol.Plan { cache; _ } ->
              Alcotest.fail
                ("expected restored Hit, got " ^ Protocol.cache_status_string cache)
          | _ -> Alcotest.fail "expected a Plan after restore")
        [ 6.0; 11.0 ];
      check_int "no solves after restore" 0 (counter_value "optimizer.solves" - solves0);
      (* Restore replays through [add], so per-instance insertions count
         exactly the restored entries. *)
      check_int "restored entries" 2 (Server.cache_stats restarted).Plancache.insertions)

let test_snapshot_hash_mismatch_rejected () =
  let snap = Filename.temp_file "opprox_snap" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove snap)
    (fun () ->
      let server = Server.create [ Lazy.force trained ] in
      let client = Client.loopback server in
      (match Client.request client (Protocol.request ~app:"toy" ~budget:9.0 ()) with
      | Protocol.Plan _ -> ()
      | _ -> Alcotest.fail "warmup solve failed");
      Server.save_cache_snapshot server snap;
      (* Tamper with the recorded models hash (same length, so only the
         hash bytes change). *)
      let body = In_channel.with_open_bin snap In_channel.input_all in
      let hash = models_hash () in
      let forged = String.init (String.length hash) (fun i -> "0123456789abcdef".[i mod 16]) in
      let buf = Buffer.create (String.length body) in
      let i = ref 0 in
      while !i < String.length body do
        if
          !i + String.length hash <= String.length body
          && String.sub body !i (String.length hash) = hash
        then begin
          Buffer.add_string buf forged;
          i := !i + String.length hash
        end
        else begin
          Buffer.add_char buf body.[!i];
          incr i
        end
      done;
      let tampered = Buffer.contents buf in
      check_bool "tampering changed the snapshot" true (tampered <> body);
      Out_channel.with_open_bin snap (fun oc -> Out_channel.output_string oc tampered);
      let rejected0 = counter_value "plancache.restore.rejected" in
      let fresh = Server.create [ Lazy.force trained ] in
      check_bool "stale snapshot rejected" false (Server.restore_cache_snapshot fresh snap);
      check_int "rejection counted" 1
        (counter_value "plancache.restore.rejected" - rejected0);
      check_int "nothing restored" 0 (Server.cache_stats fresh).Plancache.insertions)

(* ------------------------------------------------- server + corpus path *)

let test_server_corpus_lookup_path () =
  let path, _ = write_corpus [| 5.0; 10.0; 20.0 |] in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let config = { Server.default_config with Server.corpus_path = Some path } in
      let server = Server.create ~config [ Lazy.force trained ] in
      let client = Client.loopback server in
      let solves0 = counter_value "optimizer.solves" in
      let hits0 = counter_value "corpus.hits" in
      let nn0 = counter_value "corpus.nn_hits" in
      let misses0 = counter_value "corpus.misses" in
      let source budget =
        match Client.request client (Protocol.request ~app:"toy" ~budget ()) with
        | Protocol.Plan { cache; _ } -> Protocol.cache_source_string cache
        | _ -> "error"
      in
      check_bool "corpus loaded" true (Server.corpus server <> None);
      (* On the grid: answered straight from the mmap. *)
      Alcotest.(check string) "exact corpus hit" "corpus" (source 10.0);
      check_int "no solve for the exact hit" 0 (counter_value "optimizer.solves" - solves0);
      (* Off the grid but above a cell: conservative nearest neighbour. *)
      Alcotest.(check string) "nn fallback" "nn" (source 12.5);
      check_int "no solve for the nn hit" 0 (counter_value "optimizer.solves" - solves0);
      (* Below the whole grid: cold solve, then the LRU. *)
      Alcotest.(check string) "cold below grid" "solved" (source 4.2);
      Alcotest.(check string) "then cached" "cache" (source 4.2);
      check_int "exactly one solve total" 1 (counter_value "optimizer.solves" - solves0);
      check_int "corpus.hits" 1 (counter_value "corpus.hits" - hits0);
      check_int "corpus.nn_hits" 1 (counter_value "corpus.nn_hits" - nn0);
      (* The two below-grid requests consulted the corpus and found
         nothing (the second one was a cache hit... which short-circuits
         before the corpus only if the cache is consulted first — it is
         not; corpus runs first, so both count). *)
      check_int "corpus.misses" 2 (counter_value "corpus.misses" - misses0))

let suite =
  [
    ( "corpus",
      [
        Alcotest.test_case "key composition" `Quick test_key_composition;
        prop_key_float_bits;
        Alcotest.test_case "write/load roundtrip" `Quick test_write_load_roundtrip;
        prop_corpus_roundtrip;
        Alcotest.test_case "write validation" `Quick test_write_validation;
        Alcotest.test_case "nearest-neighbour grid" `Quick test_find_nn_grid;
        prop_nn_never_exceeds_budget;
        Alcotest.test_case "CORP file lints" `Quick test_lint_corpus_file;
        Alcotest.test_case "CORP coverage lint" `Quick test_lint_coverage;
      ] );
    ( "corpus-serving",
      [
        Alcotest.test_case "singleflight: one execution" `Quick test_singleflight_one_solve;
        Alcotest.test_case "singleflight: leader failure" `Quick
          test_singleflight_leader_failure;
        Alcotest.test_case "server coalesces a hot key" `Quick test_server_coalesces_hot_key;
        Alcotest.test_case "plancache snapshot recency" `Quick
          test_plancache_snapshot_recency;
        Alcotest.test_case "server snapshot roundtrip" `Quick test_server_snapshot_roundtrip;
        Alcotest.test_case "stale snapshot rejected" `Quick
          test_snapshot_hash_mismatch_rejected;
        Alcotest.test_case "corpus lookup-first path" `Quick test_server_corpus_lookup_path;
      ] );
  ]
