(* Tests for the five benchmark applications.  These run real (small)
   simulations, so each check keeps to a handful of executions; the driver
   memoizes exact runs across cases. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Registry = Opprox_apps.Registry
open Fixtures

let evaluate app sched = Driver.evaluate app sched app.App.default_input

let uniform app levels = evaluate app (Schedule.uniform ~n_phases:1 levels)

let mid_levels app = Array.map (fun m -> (m + 1) / 2) (App.max_levels app)

(* Shared behavioural checks every application must satisfy. *)

let test_exact_is_golden app () =
  let ev = evaluate app (Schedule.exact ~n_abs:(App.n_abs app)) in
  check_float "zero degradation" 0.0 ev.Driver.qos_degradation;
  check_float_eps 1e-9 "unit speedup" 1.0 ev.Driver.speedup

let test_output_finite app () =
  let exact = Driver.run_exact app app.App.default_input in
  check_bool "finite" true (Array.for_all Float.is_finite exact.Driver.output);
  check_bool "non-empty" true (Array.length exact.Driver.output > 0)

let test_all_training_inputs_run app () =
  Array.iter
    (fun input ->
      let exact = Driver.run_exact app input in
      check_bool "positive iterations" true (exact.Driver.iters > 0);
      check_bool "finite" true (Array.for_all Float.is_finite exact.Driver.output))
    app.App.training_inputs

let test_max_approx_speeds_up app () =
  let ev = uniform app (Array.copy (App.max_levels app)) in
  check_bool "speedup > 1" true (ev.Driver.speedup > 1.0);
  check_bool "bounded degradation" true
    (Float.is_finite ev.Driver.qos_degradation && ev.Driver.qos_degradation < 500.0)

let test_phase1_worst app () =
  (* The paper's core observation: approximating the first phase degrades
     QoS at least as much as approximating the last phase. *)
  let mid = mid_levels app in
  let q phase =
    (evaluate app (Schedule.single_phase_active ~n_phases:4 ~phase mid)).Driver.qos_degradation
  in
  check_bool "phase 1 >= phase 4" true (q 0 >= q 3)

let test_work_monotone_in_levels app () =
  (* Raising every AB one level never increases work per iteration. *)
  let work levels =
    let ev = uniform app levels in
    float_of_int ev.Driver.work /. float_of_int ev.Driver.outer_iters
  in
  let w0 = work (Array.make (App.n_abs app) 0) in
  let w1 = work (Array.make (App.n_abs app) 1) in
  check_bool "per-iteration work shrinks" true (w1 <= w0)

let shared_suite app =
  ( "apps-" ^ app.App.name,
    [
      Alcotest.test_case "exact is golden" `Quick (test_exact_is_golden app);
      Alcotest.test_case "output finite" `Quick (test_output_finite app);
      Alcotest.test_case "training inputs run" `Quick (test_all_training_inputs_run app);
      Alcotest.test_case "max approx speeds up" `Quick (test_max_approx_speeds_up app);
      Alcotest.test_case "phase 1 worst" `Quick (test_phase1_worst app);
      Alcotest.test_case "work monotone" `Quick (test_work_monotone_in_levels app);
    ] )

(* --------------------------------------------------------- app-specific *)

let lulesh = Registry.find "lulesh"
let ffmpeg = Registry.find "ffmpeg"
let bodytrack = Registry.find "bodytrack"
let pso = Registry.find "pso"
let comd = Registry.find "comd"

let test_lulesh_iterations_vary () =
  let exact = Driver.run_exact lulesh lulesh.App.default_input in
  let ev = uniform lulesh [| 3; 5; 5; 5 |] in
  check_bool "approximation changes iteration count" true
    (ev.Driver.outer_iters <> exact.Driver.iters)

let test_lulesh_level_monotone_qos () =
  let q l = (uniform lulesh [| Stdlib.min l 3; l; l; l |]).Driver.qos_degradation in
  check_bool "qos grows with level (1 vs 5)" true (q 5 > q 1)

let test_lulesh_mesh_scales_work () =
  let small = Driver.run_exact lulesh [| 40.0; 4.0 |] in
  let large = Driver.run_exact lulesh [| 56.0; 4.0 |] in
  check_bool "bigger mesh, more work" true (large.Driver.work > small.Driver.work)

let test_ffmpeg_frame_bounds () =
  let frame = Opprox_apps.Vidproc.generate_frame ~t:12 in
  check_int "size" (Opprox_apps.Vidproc.frame_width * Opprox_apps.Vidproc.frame_height)
    (Array.length frame);
  check_bool "pixels in [0,255]" true (Array.for_all (fun p -> p >= 0.0 && p <= 255.0) frame)

let test_ffmpeg_filter_order_changes_output () =
  (* Fig. 7: swapping edge/deflate changes the result. *)
  let base = [| 24.0; 3.0; 6.0; 0.0 |] and swapped = [| 24.0; 3.0; 6.0; 1.0 |] in
  let a = Driver.run_exact ffmpeg base and b = Driver.run_exact ffmpeg swapped in
  check_bool "different outputs" true (a.Driver.output <> b.Driver.output);
  check_bool "different traces" true
    (Opprox.Cfmodel.signature_of_trace a.Driver.trace
    <> Opprox.Cfmodel.signature_of_trace b.Driver.trace)

let test_ffmpeg_iterations_are_frames () =
  let exact = Driver.run_exact ffmpeg [| 24.0; 3.0; 6.0; 0.0 |] in
  check_int "fps * duration" 72 exact.Driver.iters;
  (* and independent of approximation *)
  let ev =
    Driver.evaluate ffmpeg (Schedule.uniform ~n_phases:1 [| 5; 5; 5 |]) [| 24.0; 3.0; 6.0; 0.0 |]
  in
  check_int "unchanged under approximation" 72 ev.Driver.outer_iters

let test_ffmpeg_reports_psnr () =
  let ev = uniform ffmpeg [| 1; 1; 1 |] in
  match ev.Driver.psnr with
  | Some p -> check_bool "psnr positive" true (p > 0.0 && Float.is_finite p)
  | None -> Alcotest.fail "expected PSNR metric"

let test_bodytrack_truth_smooth () =
  let a = Opprox_apps.Bodytrack.truth ~frame:0 in
  let b = Opprox_apps.Bodytrack.truth ~frame:1 in
  check_int "pose dim" Opprox_apps.Bodytrack.pose_dim (Array.length a);
  let step =
    Array.fold_left Float.max 0.0 (Array.mapi (fun i x -> Float.abs (x -. b.(i))) a)
  in
  check_bool "bounded per-frame motion" true (step < 1.0)

let test_bodytrack_iterations_depend_on_layers () =
  let i1 = (Driver.run_exact bodytrack [| 3.0; 96.0; 24.0 |]).Driver.iters in
  let i2 = (Driver.run_exact bodytrack [| 5.0; 96.0; 24.0 |]).Driver.iters in
  check_int "3 layers" (3 * 24) i1;
  check_int "5 layers" (5 * 24) i2

let test_bodytrack_anneal_knob_cuts_iterations () =
  let ev = uniform bodytrack [| 0; 0; 0; 3 |] in
  let exact = Driver.run_exact bodytrack bodytrack.App.default_input in
  check_bool "fewer outer iterations" true (ev.Driver.outer_iters < exact.Driver.iters)

let test_pso_objective () =
  let at_optimum =
    Opprox_apps.Pso.objective (Array.init 8 (fun d -> 2.0 +. (0.5 *. sin (float_of_int d))))
  in
  check_float_eps 1e-9 "zero at optimum" 0.0 at_optimum;
  check_bool "positive elsewhere" true (Opprox_apps.Pso.objective (Array.make 8 0.0) > 0.0)

let test_pso_converges () =
  let exact = Driver.run_exact pso pso.App.default_input in
  check_bool "terminates before cap" true (exact.Driver.iters < 600);
  let best_value = exact.Driver.output.(Array.length exact.Driver.output - 1) in
  check_bool "found a decent optimum" true (best_value < 10.0)

let test_pso_iterations_respond_to_approximation () =
  let exact = Driver.run_exact pso pso.App.default_input in
  let ev = uniform pso [| 0; 3; 0 |] in
  check_bool "convergence loop shifts" true (ev.Driver.outer_iters <> exact.Driver.iters)

let test_comd_iterations_fixed () =
  let exact = Driver.run_exact comd comd.App.default_input in
  check_int "equals n_timesteps" 800 exact.Driver.iters;
  let ev = uniform comd [| 3; 3; 3 |] in
  check_int "unchanged by approximation" 800 ev.Driver.outer_iters

let test_comd_timestep_input_controls_iters () =
  let short = Driver.run_exact comd [| 3.0; 1.4; 500.0 |] in
  check_int "500 steps" 500 short.Driver.iters

let test_comd_output_is_per_atom () =
  let exact = Driver.run_exact comd [| 3.0; 1.4; 500.0 |] in
  check_int "27 atoms" 27 (Array.length exact.Driver.output)

let kmeans = Registry.find "kmeans"

let test_lulesh_regions_affect_output () =
  let a = Driver.run_exact lulesh [| 48.0; 2.0 |] in
  let b = Driver.run_exact lulesh [| 48.0; 8.0 |] in
  check_bool "different materials, different energies" true (a.Driver.output <> b.Driver.output)

let test_lulesh_energies_positive () =
  let exact = Driver.run_exact lulesh lulesh.App.default_input in
  check_bool "non-negative energies" true (Array.for_all (fun e -> e >= 0.0) exact.Driver.output)

let test_comd_energy_negative () =
  (* A bound Lennard-Jones structure has negative per-atom potential. *)
  let exact = Driver.run_exact comd comd.App.default_input in
  let mean = Opprox_util.Stats.mean exact.Driver.output in
  check_bool "bound state" true (mean < 0.0)

let test_comd_lattice_affects_structure () =
  let a = Driver.run_exact comd [| 3.0; 1.35; 500.0 |] in
  let b = Driver.run_exact comd [| 3.0; 1.5; 500.0 |] in
  check_bool "different densities, different glasses" true (a.Driver.output <> b.Driver.output)

let test_ffmpeg_quantizer_monotone () =
  (* A coarser quantizer degrades the approximate stream's PSNR against the
     matching exact stream no better than a finer one at high levels. *)
  let psnr q =
    let input = [| 24.0; 3.0; q; 0.0 |] in
    let ev = Driver.evaluate ffmpeg (Schedule.uniform ~n_phases:1 [| 3; 3; 3 |]) input in
    match ev.Driver.psnr with Some p -> p | None -> Alcotest.fail "psnr"
  in
  check_bool "finite at q=4" true (Float.is_finite (psnr 4.0));
  check_bool "finite at q=10" true (Float.is_finite (psnr 10.0))

let test_ffmpeg_deterministic_pipeline () =
  let input = [| 24.0; 3.0; 6.0; 0.0 |] in
  let sched = Schedule.uniform ~n_phases:1 [| 2; 1; 2 |] in
  let a = Driver.evaluate ffmpeg sched input in
  let b = Driver.evaluate ffmpeg sched input in
  check_float "same psnr" (Option.get a.Driver.psnr) (Option.get b.Driver.psnr)

let test_pso_output_shape () =
  (* Ensemble of 6 swarms, each contributing (position, value). *)
  let exact = Driver.run_exact pso [| 24.0; 6.0 |] in
  check_int "6 * (dim + 1)" (6 * 7) (Array.length exact.Driver.output)

let test_pso_best_values_nonnegative () =
  let exact = Driver.run_exact pso pso.App.default_input in
  let dim = 8 in
  for s = 0 to 5 do
    let v = exact.Driver.output.((s * (dim + 1)) + dim) in
    check_bool "objective nonnegative" true (v >= 0.0)
  done

let test_kmeans_output_shape () =
  let exact = Driver.run_exact kmeans [| 320.0; 8.0; 3.0 |] in
  check_int "k*dim + inertia" ((8 * 3) + 1) (Array.length exact.Driver.output)

let test_kmeans_inertia_positive () =
  let exact = Driver.run_exact kmeans kmeans.App.default_input in
  check_bool "positive inertia" true (exact.Driver.output.(Array.length exact.Driver.output - 1) > 0.0)

let test_kmeans_centroids_sorted () =
  let exact = Driver.run_exact kmeans [| 320.0; 8.0; 3.0 |] in
  let dim = 3 and k = 8 in
  let centroid c = Array.sub exact.Driver.output (c * dim) dim in
  for c = 0 to k - 2 do
    check_bool "canonical order" true (compare (centroid c) (centroid (c + 1)) <= 0)
  done

(* The simulation kernels must not allocate per atom pair or per
   distance: training runs them hundreds of times per phase.  A cold exact
   run on the default input (dev profile, as `dune runtest` builds)
   measured 51 words per outer iteration for comd and 1,992 for kmeans;
   the boxed-float kernels they replaced allocated 7,790 and 82,400.  The
   bounds sit an order of magnitude above the current figures and below
   the old ones, so only a kernel that boxes again trips them. *)
let minor_words_per_iter app =
  Driver.clear_cache ();
  let before = Gc.minor_words () in
  let exact = Driver.run_exact app app.App.default_input in
  (Gc.minor_words () -. before) /. float_of_int exact.Driver.iters

let test_kernels_allocation_free () =
  List.iter
    (fun (app, bound) ->
      let words = minor_words_per_iter app in
      if words > bound then
        Alcotest.failf "%s allocates %.0f minor words per outer iteration (bound %.0f)"
          app.App.name words bound)
    [ (comd, 500.0); (kmeans, 8000.0) ]

let test_kmeans_iterations_respond () =
  let exact = Driver.run_exact kmeans kmeans.App.default_input in
  let ev = uniform kmeans [| 2; 0; 0 |] in
  check_bool "convergence loop shifts" true (ev.Driver.outer_iters <> exact.Driver.iters)

let test_table1_search_spaces () =
  (* Table 1 sanity: joint spaces match the per-AB level products. *)
  let expect =
    [ ("lulesh", 4 * 6 * 6 * 6); ("ffmpeg", 6 * 6 * 6); ("bodytrack", 6 * 6 * 6 * 4);
      ("pso", 5 * 6 * 6); ("comd", 6 * 6 * 6) ]
  in
  List.iter
    (fun (name, count) ->
      check_int name count (Opprox_sim.Config_space.count (Registry.find name).App.abs))
    expect

let test_registry () =
  check_int "five paper applications" 5 (List.length Registry.paper);
  check_int "all includes extensions" 7 (List.length (Registry.all ()));
  check_bool "find works" true ((Registry.find "lulesh").App.name = "lulesh");
  Alcotest.check_raises "unknown app" Not_found (fun () -> ignore (Registry.find "nope"))

let transformer = Registry.find "transformer"

let test_transformer_space_defeats_enumeration () =
  (* The whole point of the app: 13 ABs x 9 levels, > 1e12 joint configs —
     past both the lint enumeration bound and the issue's 10^12 floor. *)
  let count = Opprox_sim.Config_space.count transformer.App.abs in
  check_int "13 ABs" 13 (App.n_abs transformer);
  check_bool "every AB has 9 levels" true
    (Array.for_all (fun m -> m = 8) (App.max_levels transformer));
  check_bool "space exceeds 10^12" true (count > 1_000_000_000_000);
  check_bool "space exceeds the lint enumeration bound" true
    (count > Opprox_analysis.Lint_app.enumeration_bound)

let test_transformer_output_shape () =
  (* d_model decoded outputs plus the attention-entropy trace. *)
  let exact = Driver.run_exact transformer [| 32.0; 16.0; 8.0 |] in
  check_int "d_model + entropy" 17 (Array.length exact.Driver.output)

let test_transformer_iterations_are_tokens () =
  let exact = Driver.run_exact transformer [| 32.0; 16.0; 8.0 |] in
  check_int "one iteration per token" 32 exact.Driver.iters

let test_transformer_early_phase_propagates () =
  (* Corrupting the first quarter of the decode must hurt at least as much
     as corrupting the last quarter: the hidden state and KV history carry
     the damage forward. *)
  let mid = mid_levels transformer in
  let q phase =
    (evaluate transformer (Schedule.single_phase_active ~n_phases:4 ~phase mid))
      .Driver.qos_degradation
  in
  check_bool "first quarter damage persists" true (q 0 >= q 3);
  check_bool "approximation degrades at all" true (q 0 > 0.0)

let test_transformer_kv_staleness_graded () =
  (* More aggressive KV-cache memoization alone must not improve QoS. *)
  let n = App.n_abs transformer in
  let lv level =
    let a = Array.make n 0 in
    a.(8) <- level;
    a
  in
  let q level = (uniform transformer (lv level)).Driver.qos_degradation in
  check_bool "stale cache degrades" true (q 8 >= 0.0 && q 8 >= q 2 -. 1e-9)

let suite =
  List.map shared_suite (Registry.all ())
  @ [
      ( "apps-specific",
        [
          Alcotest.test_case "lulesh iterations vary" `Quick test_lulesh_iterations_vary;
          Alcotest.test_case "lulesh qos level-monotone" `Quick test_lulesh_level_monotone_qos;
          Alcotest.test_case "lulesh mesh scales work" `Quick test_lulesh_mesh_scales_work;
          Alcotest.test_case "ffmpeg frame bounds" `Quick test_ffmpeg_frame_bounds;
          Alcotest.test_case "ffmpeg filter order" `Quick test_ffmpeg_filter_order_changes_output;
          Alcotest.test_case "ffmpeg iterations = frames" `Quick test_ffmpeg_iterations_are_frames;
          Alcotest.test_case "ffmpeg reports psnr" `Quick test_ffmpeg_reports_psnr;
          Alcotest.test_case "bodytrack truth smooth" `Quick test_bodytrack_truth_smooth;
          Alcotest.test_case "bodytrack layer iterations" `Quick
            test_bodytrack_iterations_depend_on_layers;
          Alcotest.test_case "bodytrack anneal knob" `Quick
            test_bodytrack_anneal_knob_cuts_iterations;
          Alcotest.test_case "pso objective" `Quick test_pso_objective;
          Alcotest.test_case "pso converges" `Quick test_pso_converges;
          Alcotest.test_case "pso iteration response" `Quick
            test_pso_iterations_respond_to_approximation;
          Alcotest.test_case "comd iterations fixed" `Quick test_comd_iterations_fixed;
          Alcotest.test_case "comd timestep input" `Quick test_comd_timestep_input_controls_iters;
          Alcotest.test_case "comd per-atom output" `Quick test_comd_output_is_per_atom;
          Alcotest.test_case "lulesh regions affect output" `Quick test_lulesh_regions_affect_output;
          Alcotest.test_case "lulesh energies positive" `Quick test_lulesh_energies_positive;
          Alcotest.test_case "comd energy negative" `Quick test_comd_energy_negative;
          Alcotest.test_case "comd lattice affects structure" `Quick test_comd_lattice_affects_structure;
          Alcotest.test_case "ffmpeg quantizer" `Quick test_ffmpeg_quantizer_monotone;
          Alcotest.test_case "ffmpeg deterministic" `Quick test_ffmpeg_deterministic_pipeline;
          Alcotest.test_case "pso output shape" `Quick test_pso_output_shape;
          Alcotest.test_case "pso best values" `Quick test_pso_best_values_nonnegative;
          Alcotest.test_case "kmeans output shape" `Quick test_kmeans_output_shape;
          Alcotest.test_case "kmeans inertia positive" `Quick test_kmeans_inertia_positive;
          Alcotest.test_case "kmeans centroids sorted" `Quick test_kmeans_centroids_sorted;
          Alcotest.test_case "kmeans iterations respond" `Quick test_kmeans_iterations_respond;
          Alcotest.test_case "table 1 search spaces" `Quick test_table1_search_spaces;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "transformer space defeats enumeration" `Quick
            test_transformer_space_defeats_enumeration;
          Alcotest.test_case "transformer output shape" `Quick test_transformer_output_shape;
          Alcotest.test_case "transformer iterations are tokens" `Quick
            test_transformer_iterations_are_tokens;
          Alcotest.test_case "transformer early phase propagates" `Quick
            test_transformer_early_phase_propagates;
          Alcotest.test_case "transformer kv staleness graded" `Quick
            test_transformer_kv_staleness_graded;
          Alcotest.test_case "kernels allocation-free" `Quick test_kernels_allocation_free;
        ] );
    ]
