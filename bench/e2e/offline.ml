(* The offline workload, in-process: train, precompute, measure every
   plan, plan the transformer through stochastic search, then time plan
   requests without any serving layer. *)

module App = Opprox_sim.App
module Registry = Opprox_apps.Registry
module Optimizer = Opprox.Optimizer
module Diagnostic = Opprox_analysis.Diagnostic
module Precompute = Opprox_corpus.Precompute
module Corpus = Opprox_corpus.Corpus
module Metrics = Opprox_obs.Metrics
module Trace = Opprox_obs.Trace
module Sexp = Opprox_util.Sexp

let counter name =
  match Metrics.find name with Some (Metrics.Counter n) -> float_of_int n | _ -> 0.0

let ratio hit miss =
  let h = counter hit and m = counter miss in
  if h +. m = 0.0 then 0.0 else h /. (h +. m)

let same_plan a b =
  Sexp.to_string (Optimizer.plan_to_sexp a) = Sexp.to_string (Optimizer.plan_to_sexp b)

(* Phase search, profiling, model fitting and ROI — the steps of
   [Opprox.train] — with each stage's time at the reference host speed. *)
let train ~smoke (app : App.t) =
  let config = Opprox.default_train_config in
  let (n_phases, phase_probes), phases_s =
    if smoke then ((2, []), 0.0)
    else
      Host.time_scaled (fun () ->
          Trace.with_span ~cat:"bench" "phases.search" (fun () ->
              Opprox.Phases.search ~threshold:config.phase_threshold
                ~max_phases:config.max_phases app))
  in
  let training, collect_s =
    Host.time_scaled (fun () ->
        Trace.with_span ~cat:"bench" "training.collect" (fun () ->
            Opprox.Training.collect ~config:config.training app ~n_phases))
  in
  let models, build_s =
    Host.time_scaled (fun () ->
        Trace.with_span ~cat:"bench" "models.build" (fun () ->
            Opprox.Models.build ~config:config.model training))
  in
  let roi = Opprox.Roi.of_training training in
  ({ Opprox.app; training; models; roi; phase_probes }, phases_s, collect_s, build_s)

let run ~dir ~smoke ~trace ~seed ~seconds =
  let problems = ref [] in
  let check ok fmt = Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt in
  Trace.set_enabled trace;
  (* Start cold, as a fresh process would, after earlier workloads of
     the same run. *)
  Opprox_sim.Driver.clear_all_caches ();
  Metrics.reset ();
  (* One domain on every host.  Training takes as long on two domains
     here, but a second domain, even parked, must join every collection:
     the peak RSS then depends on when collections land, and the solve
     tail on where the domains run. *)
  Opprox_util.Pool.set_default_jobs 1;
  let apps =
    if smoke then
      let k = Registry.find "kmeans" in
      [ App.with_training_inputs k ~default_input:k.App.default_input
          ~training_inputs:[| k.App.default_input |] ]
    else [ Registry.find "comd"; Registry.find "kmeans" ]
  in
  (* Set-up: everything later depends on the trained pipelines. *)
  let stages = List.map (train ~smoke) apps in
  let trained = List.map (fun (tr, _, _, _) -> tr) stages in
  let sum f = List.fold_left (fun acc st -> acc +. f st) 0.0 stages in
  let setup_s = sum (fun (_, p, c, b) -> p +. c +. b) in
  let training_counts =
    [
      ("training.runs", counter "training.runs");
      ("driver.exact_runs", counter "driver.exact.run");
      ("driver.eval_hit_ratio", ratio "driver.eval.hit" "driver.eval.miss");
      ("driver.ckpt_hit_ratio", ratio "driver.ckpt.hit" "driver.ckpt.miss");
    ]
  in
  List.iter
    (fun (tr : Opprox.trained) ->
      let errors = Diagnostic.errors (Opprox.Models.lint tr.models) in
      check (errors = []) "%s: %d model lint error(s)" tr.app.App.name (List.length errors))
    trained;
  (* Precompute the budget grid, write it, measure every plan. *)
  let budgets =
    if smoke then [| 5.0; 10.0; 20.0 |] else Array.init 10 (fun i -> 2.5 *. float_of_int (i + 1))
  in
  let (entries, progress), sweep_s =
    Host.time (fun () ->
        Trace.with_span ~cat:"bench" "precompute.sweep" (fun () ->
            Precompute.sweep ~budgets trained))
  in
  check (progress.Precompute.failed = 0) "precompute: %d failed cell(s)" progress.Precompute.failed;
  let (), write_s =
    Host.time (fun () -> Corpus.write (Filename.concat dir "offline.opx") entries)
  in
  let measure (tr : Opprox.trained) input (plan : Optimizer.plan) =
    let errors = Diagnostic.errors (Optimizer.lint ~models:tr.models plan) in
    check (errors = []) "%s: plan at budget %g fails its lint" tr.app.App.name plan.budget;
    let ev = Opprox.apply ~input tr plan in
    (ev.Opprox_sim.Driver.speedup, ev.Opprox_sim.Driver.qos_degradation, plan.budget)
  in
  let sweep_quality, apply_s =
    Host.time (fun () ->
        Trace.with_span ~cat:"bench" "opprox.apply" (fun () ->
            List.map
              (fun (e : Corpus.entry) ->
                measure
                  (List.find (fun (tr : Opprox.trained) -> tr.app.App.name = e.app) trained)
                  e.input e.plan)
              entries))
  in
  (* The transformer's 9^13 joint space forces the stochastic strategy;
     it is linked by referring to [Opprox_search], and the plan the
     optimizer dispatches must be the one a direct search returns. *)
  check (Optimizer.stochastic_available ()) "the stochastic strategy is not installed";
  let transformer =
    let t = Registry.find "transformer" in
    let input = [| 32.0; 12.0; 8.0 |] in
    let app = App.with_training_inputs t ~default_input:input ~training_inputs:[| input |] in
    Opprox.train
      ~config:
        {
          Opprox.default_train_config with
          n_phases = Some 2;
          training = { Opprox.default_train_config.training with joint_samples_per_phase = 3 };
        }
      app
  in
  let steps0 = counter "search.steps" and accepts0 = counter "search.accepts" in
  let t_plans, search_s =
    Host.time (fun () ->
        List.map
          (fun budget ->
            let plan = Opprox.optimize transformer ~budget in
            let direct, _ =
              Opprox_search.Search.solve ~models:transformer.models
                ~input:transformer.app.App.default_input ~budget ()
            in
            check (same_plan plan direct)
              "transformer at budget %g: the dispatched plan differs from a direct search" budget;
            plan)
          (if smoke then [ 10.0 ] else [ 5.0; 10.0; 20.0 ]))
  in
  let steps = counter "search.steps" -. steps0 and accepts = counter "search.accepts" -. accepts0 in
  let t_quality =
    List.map (fun p -> measure transformer transformer.app.App.default_input p) t_plans
  in
  let q = Stats.quality (Array.of_list (sweep_quality @ t_quality)) in
  (* Plan latency with no serving layer: fresh keys, like serve-cold, on
     one domain.  On a shared machine the host's speed swings by half
     within a run, so every solve is scaled to the reference speed by the
     calibration kernel timed beside it (every 20 solves): the metric
     follows the solver, not the neighbours. *)
  let rng = Opprox_util.Rng.create seed and fresh = Keys.fresh () in
  let pairs = Keys.pairs trained in
  let kernels = ref [] in
  let loop ~seconds ~min_n f =
    let stop = Host.now_s () +. seconds in
    let rec go n kernel_ms acc =
      if n >= min_n && Host.now_s () >= stop then Array.of_list acc
      else
        let kernel_ms =
          if n mod 20 <> 0 then kernel_ms
          else begin
            let k = Host.kernel_ms 3 in
            kernels := k :: !kernels;
            k
          end
        in
        let req = Keys.fresh_key rng pairs fresh in
        let tr = List.find (fun (tr : Opprox.trained) -> tr.app.App.name = req.app) trained in
        let _, dt =
          Host.time (fun () -> f (fun () -> Opprox.optimize ?input:req.input tr ~budget:req.budget))
        in
        go (n + 1) kernel_ms ((dt *. 1000.0 *. Host.reference_kernel_ms /. kernel_ms) :: acc)
    in
    go 0 Host.reference_kernel_ms []
  in
  let min_n = if smoke then 20 else 1000 in
  let latencies, overhead_ratio =
    if trace then begin
      Trace.set_enabled false;
      let plain = loop ~seconds:(seconds /. 2.0) ~min_n (fun f -> f ()) in
      Trace.set_enabled true;
      let traced =
        loop ~seconds:(seconds /. 2.0) ~min_n (Trace.with_span ~cat:"bench" "optimizer.solve")
      in
      (traced, Stats.median traced /. Stats.median plain)
    end
    else (loop ~seconds ~min_n (fun f -> f ()), 0.0)
  in
  let pct q =
    match Stats.percentile latencies q with
    | Some v -> v
    | None ->
        check smoke "p%g needs more than %d samples" (q *. 100.0) (Array.length latencies);
        0.0
  in
  let n_plans = List.length entries + List.length t_plans in
  {
    Host.e2e =
      [
        ("setup_s", setup_s);
        ("p50_ms", pct 0.5);
        ("p95_ms", pct 0.95);
        ("rss_mb", Host.vm_hwm_mb "self");
        ("measured_speedup", q.speedup);
        ("budget_met_share", q.met_share);
      ];
    layers =
      [
        ("p99_ms", pct 0.99);
        ("train_s", setup_s);
        ("phases.search_s", sum (fun (_, s, _, _) -> s));
        ("training.collect_s", sum (fun (_, _, s, _) -> s));
      ]
      @ List.map
          (fun ((tr : Opprox.trained), _, _, s) -> ("models.build_s." ^ tr.app.App.name, s))
          stages
      @ training_counts
      @ [
          ("precompute.sweep_s", sweep_s);
          ("precompute.failed", float_of_int progress.Precompute.failed);
          ("corpus.write_s", write_s);
          ("search.solve_s", search_s);
          ("search.accept_ratio", if steps = 0.0 then 0.0 else accepts /. steps);
          ("opprox.apply_s", apply_s);
          ("violation_rate", q.violation_rate);
          ("host.kernel_ms", Stats.median (Array.of_list !kernels));
          ("trace.overhead_ratio", overhead_ratio);
        ];
    attempted = n_plans + Array.length latencies;
    failed = progress.Precompute.failed;
    problems = List.rev !problems;
  }
