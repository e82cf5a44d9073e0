(* Unit tests for the benchmark's statistics helpers. *)

open Stats

let close = Alcotest.float 1e-9
let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.(check (option close)) "p99 of 1000" (Some 990.0) (percentile (ramp 1000) 0.99);
  Alcotest.(check (option close)) "p99 refused at 999" None (percentile (ramp 999) 0.99);
  Alcotest.(check (option close)) "p90 of 100" (Some 90.0) (percentile (ramp 100) 0.90);
  Alcotest.(check (option close)) "p50 needs 20" None (percentile (ramp 19) 0.5);
  Alcotest.(check (option close)) "empty" None (percentile [||] 0.5);
  (* unsorted input, ten samples beyond the cut *)
  let xs = Array.append (Array.make 990 1.0) (Array.make 10 50.0) in
  Opprox_util.Rng.shuffle (Opprox_util.Rng.create 7) xs;
  Alcotest.(check (option close)) "tail of ten" (Some 1.0) (percentile xs 0.99);
  Alcotest.check close "median odd" 3.0 (median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check close "median even" 2.5 (median [| 4.0; 1.0; 3.0; 2.0 |])

let test_window_p99 () =
  (* three 4-s windows of 1000 samples; each window's tail is its own *)
  let window k tail =
    Array.init 1000 (fun i ->
        let t = (4.0 *. float_of_int k) +. (float_of_int i *. 0.004) in
        (t, if i >= 980 then tail else 1.0))
  in
  let samples = Array.concat [ window 0 5.0; window 1 9.0; window 2 7.0 ] in
  Alcotest.(check (option close)) "median of window p99s" (Some 7.0)
    (window_quantile ~q:0.99 ~window_s:4.0 ~span_s:12.0 samples);
  let short = Array.sub samples 0 2500 in
  Alcotest.(check (option close)) "a window under 1000 refuses" None
    (window_quantile ~q:0.99 ~window_s:4.0 ~span_s:12.0 short);
  Alcotest.(check (option close)) "a partial window joins the last" (Some 7.0)
    (window_quantile ~q:0.99 ~window_s:4.0 ~span_s:13.0 samples);
  Alcotest.(check (option close)) "no samples" None (window_quantile ~q:0.99 ~window_s:4.0 ~span_s:12.0 [||])

let req ?(sent = 0.0) ~due ~finished outcome = { due; sent = Float.max sent due; finished; outcome }

let test_slo () =
  let rs =
    [|
      req ~due:0.0 ~finished:0.001 Answered;
      req ~due:1.0 ~finished:1.003 Answered;
      req ~due:2.0 ~finished:2.0001 Shed;
      req ~due:3.0 ~finished:3.0001 Timed_out;
      req ~due:4.0 ~finished:4.0001 Failed;
    |]
  in
  Alcotest.check close "only fast plans count" 0.2 (slo_attainment ~limit_ms:2.0 rs);
  Alcotest.check close "errors" 0.6 (error_rate rs);
  Alcotest.check close "empty" 0.0 (slo_attainment ~limit_ms:2.0 [||])

let test_lateness () =
  (* sent 5 ms late, answered 1 ms after sending: 6 ms from due *)
  let r = req ~due:1.0 ~sent:1.005 ~finished:1.006 Answered in
  Alcotest.check close "late" 5.0 (late_ms r);
  Alcotest.check (Alcotest.float 1e-6) "latency from due" 6.0 (latency_ms r);
  Alcotest.check close "early send is not late" 0.0
    (late_ms { r with sent = 0.999 });
  Alcotest.(check bool) "a stall misses the SLO" false
    (slo_attainment ~limit_ms:2.0 [| r |] > 0.0)

let test_ladder () =
  let capacity = 1000.0 in
  let probe rate =
    { rate; sent = 300; failed = 0; over_limit = (if rate <= capacity then 2 else 50) }
  in
  let best, steps = ladder ~start:100.0 ~max_rate:1e6 probe in
  Alcotest.check close "fine step below capacity" (800.0 *. 1.1 *. 1.1) best;
  Alcotest.(check (list close)) "rates tried"
    [ 100.0; 200.0; 400.0; 800.0; 1600.0; 880.0; 968.0; 1064.8 ]
    (List.map (fun s -> s.rate) steps);
  (* one failed request sinks a step even with a clean tail *)
  let failing rate = { rate; sent = 300; failed = (if rate > 230.0 then 1 else 0); over_limit = 0 } in
  Alcotest.check close "failures stop the ladder" (200.0 *. 1.1)
    (fst (ladder ~start:100.0 ~max_rate:1e6 failing));
  (* too slow at low load, as an idle host can be: the sweep goes on *)
  let idle rate = { rate; sent = 300; failed = 0; over_limit = (if rate < 150.0 || rate > 450.0 then 9 else 0) } in
  let best, steps = ladder ~start:100.0 ~max_rate:1e6 idle in
  Alcotest.check close "failing low rates are skipped" 440.0 best;
  Alcotest.(check (list close)) "rates tried after a slow start"
    [ 100.0; 200.0; 400.0; 800.0; 440.0; 484.0 ]
    (List.map (fun s -> s.rate) steps);
  Alcotest.check close "nothing passes" 0.0
    (fst (ladder ~start:100.0 ~max_rate:1e6 (fun rate -> { rate; sent = 1; failed = 1; over_limit = 0 })));
  Alcotest.check close "capped" 400.0
    (fst (ladder ~start:100.0 ~max_rate:500.0 (fun rate -> { rate; sent = 1; failed = 0; over_limit = 0 })));
  Alcotest.(check bool) "1% over the limit passes" true
    (step_passes { rate = 1.0; sent = 1000; failed = 0; over_limit = 10 });
  Alcotest.(check bool) "over 1% fails" false
    (step_passes { rate = 1.0; sent = 1000; failed = 0; over_limit = 11 })

let test_quality () =
  let q = quality [| (2.0, 4.0, 5.0); (8.0, 12.0, 10.0); (1.0, 10.0, 10.0); (4.0, 0.0, 5.0) |] in
  Alcotest.check close "geometric mean" (Float.pow 64.0 0.25) q.speedup;
  Alcotest.check close "met share (within budget counts)" 0.75 q.met_share;
  Alcotest.check close "violation rate" 0.25 q.violation_rate;
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quality: no plans") (fun () ->
      ignore (quality [||]))

let () =
  Alcotest.run "e2e-stats"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile ten-beyond rule" `Quick test_percentile;
          Alcotest.test_case "median of window p99s" `Quick test_window_p99;
          Alcotest.test_case "slo counts failures as misses" `Quick test_slo;
          Alcotest.test_case "generator lateness" `Quick test_lateness;
          Alcotest.test_case "ladder selection" `Quick test_ladder;
          Alcotest.test_case "geomean and violation rate" `Quick test_quality;
        ] );
    ]
