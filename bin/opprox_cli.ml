(* opprox — command-line front end.

   Subcommands:
     list                        the bundled benchmark applications
     probe APP                   phase/level sensitivity of one application
     train APP -o FILE           offline stage only; persist the models
     optimize APP -b BUDGET      emit + execute a plan (optionally --load)
     run APP -b BUDGET           execute on a (perturbed) input; --controlled adds
                                 online phase-boundary recontrol
     search APP -b BUDGET        multi-chain MCMC plan search (--chains, --iters,
                                 --seed) for spaces enumeration cannot touch
     oracle APP -b BUDGET        the phase-agnostic exhaustive baseline
     check [APP]                 static diagnostics over apps/models/schedules/corpora
     stats [APP]                 exercise the pipeline, report the metrics registry
     precompute --models FILE -o CORPUS
                                 sweep input x budget grids into a plan corpus
     serve --models FILE         plan-serving daemon (--corpus, --cache-restore)
     request --app APP -b B      query a daemon (or in-process loopback)
     loadgen                     open-loop load generator with latency percentiles

   Pipeline subcommands also take --trace FILE (Chrome trace-event
   timeline of the run) and --metrics-sexp (dump the registry at exit). *)

open Cmdliner
module Metrics = Opprox_obs.Metrics
module Trace = Opprox_obs.Trace

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))
module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Table = Opprox_util.Table

let app_conv =
  let parse s =
    match Opprox_apps.Registry.find s with
    | app -> Ok app
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown application %s (known: %s)" s
                (String.concat ", " (Opprox_apps.Registry.names ()))))
  in
  let print ppf (app : App.t) = Format.pp_print_string ppf app.name in
  Arg.conv (parse, print)

let app_arg =
  Arg.(required & pos 0 (some app_conv) None & info [] ~docv:"APP" ~doc:"Benchmark application name.")

let budget_arg =
  Arg.(
    value
    & opt float 10.0
    & info [ "b"; "budget" ] ~docv:"PERCENT"
        ~doc:"QoS degradation budget in percent (0 = exact output required).")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log the pipeline's progress.")

(* Evaluated first in each command (the term is the leftmost [$ arg]):
   sizes the shared domain pool before any simulator work starts. *)
let jobs_arg =
  let set = function
    | None -> ()
    | Some n ->
        if n < 1 then (
          Printf.eprintf "opprox: --jobs expects a positive integer\n";
          exit 2)
        else Opprox_util.Pool.set_default_jobs n
  in
  Term.(
    const set
    $ Arg.(
        value
        & opt (some int) None
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:
              "Number of domains for parallel training/oracle sweeps (default: \
               $(b,OPPROX_JOBS) or the machine's recommended domain count)."))

let phases_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "p"; "phases" ]
        ~docv:"N"
        ~doc:"Force the phase count instead of running the Algorithm-1 search.")

(* ---------------------------------------------------------- observability *)

let metrics_registry_sexp () =
  let module S = Opprox_util.Sexp in
  S.list
    (List.map
       (fun (name, view) ->
         match view with
         | Metrics.Counter n -> S.list [ S.string name; S.atom "counter"; S.int n ]
         | Metrics.Gauge x -> S.list [ S.string name; S.atom "gauge"; S.float x ]
         | Metrics.Histogram { edges; counts; count; sum } ->
             S.list
               [
                 S.string name;
                 S.atom "histogram";
                 S.record
                   [
                     ("count", S.int count);
                     ("sum", S.float sum);
                     ("edges", S.float_array edges);
                     ("counts", S.int_array counts);
                   ];
               ])
       (Metrics.dump ()))

let print_metrics_table () =
  let t = Table.create [ "metric"; "kind"; "value" ] in
  List.iter
    (fun (name, view) ->
      let kind, value =
        match view with
        | Metrics.Counter n -> ("counter", string_of_int n)
        | Metrics.Gauge x -> ("gauge", Printf.sprintf "%.1f" x)
        | Metrics.Histogram { count; sum; _ } ->
            ( "histogram",
              if count = 0 then "n=0"
              else Printf.sprintf "n=%d sum=%.0f mean=%.1f" count sum (sum /. float_of_int count)
            )
      in
      Table.add_row t [ name; kind; value ])
    (Metrics.dump ());
  Table.print ~title:"Metrics registry" t

(* Evaluated before the positional args, like [jobs_arg]: switches the
   tracer on before any pipeline work runs, and registers the at-exit
   exports so every exit path (including [exit] inside a command) still
   writes the requested dumps. *)
let obs_arg =
  let setup trace_file metrics_sexp =
    (* With an export requested, SIGINT/SIGTERM must become an orderly
       [exit] so the at-exit dumps below still run when a long pipeline
       run is interrupted; the default behaviour kills the process
       before any hook fires.  Commands with their own lifecycle
       (opprox serve) install their handlers after this one. *)
    if trace_file <> None || metrics_sexp then begin
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143))
    end;
    (match trace_file with
    | None -> ()
    | Some path ->
        Trace.set_enabled true;
        at_exit (fun () ->
            Trace.export path;
            Printf.eprintf "opprox: %d trace event(s) -> %s\n" (Trace.event_count ()) path));
    if metrics_sexp then
      at_exit (fun () ->
          print_endline (Opprox_util.Sexp.to_string (metrics_registry_sexp ())))
  in
  Term.(
    const setup
    $ Arg.(
        value
        & opt (some string) None
        & info [ "trace" ] ~docv:"FILE"
            ~doc:
              "Record a span timeline of the run and write it as Chrome trace-event JSON \
               (load in chrome://tracing or Perfetto).")
    $ Arg.(
        value & flag
        & info [ "metrics-sexp" ]
            ~doc:"Dump the full metrics registry as an s-expression on stdout at exit."))

(* ------------------------------------------------------------------ list *)

let list_cmd =
  let run () =
    let t = Table.create [ "name"; "ABs"; "joint configs"; "description" ] in
    List.iter
      (fun (app : App.t) ->
        Table.add_row t
          [
            app.name;
            string_of_int (App.n_abs app);
            string_of_int (Opprox_sim.Config_space.count app.abs);
            app.description;
          ])
      (Opprox_apps.Registry.all ());
    Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark applications.")
    Term.(const run $ const ())

(* ----------------------------------------------------------------- probe *)

let probe_cmd =
  let run () (app : App.t) =
    let input = app.App.default_input in
    let exact = Driver.run_exact app input in
    Printf.printf "%s: exact run %d iterations, %d work units\n\n" app.name exact.Driver.iters
      exact.Driver.work;
    let t = Table.create [ "level (all ABs)"; "speedup"; "qos %"; "iters" ] in
    for level = 0 to 5 do
      let levels = Array.map (fun m -> Stdlib.min level m) (App.max_levels app) in
      let ev = Driver.evaluate app (Schedule.uniform ~n_phases:1 levels) input in
      Table.add_row t
        [
          string_of_int level;
          Printf.sprintf "%.3f" ev.Driver.speedup;
          Printf.sprintf "%.2f" ev.Driver.qos_degradation;
          string_of_int ev.Driver.outer_iters;
        ]
    done;
    Table.print ~title:"Uniform level sweep" t;
    let mid = Array.map (fun m -> (m + 1) / 2) (App.max_levels app) in
    let t = Table.create [ "active phase (of 4)"; "speedup"; "qos %" ] in
    for phase = 0 to 3 do
      let ev = Driver.evaluate app (Schedule.single_phase_active ~n_phases:4 ~phase mid) input in
      Table.add_row t
        [
          string_of_int (phase + 1);
          Printf.sprintf "%.3f" ev.Driver.speedup;
          Printf.sprintf "%.3f" ev.Driver.qos_degradation;
        ]
    done;
    Table.print ~title:"Mid-level approximation, one phase at a time" t
  in
  Cmd.v (Cmd.info "probe" ~doc:"Print an application's level and phase sensitivity.")
    Term.(const run $ obs_arg $ app_arg)

(* ----------------------------------------------------------------- train *)

(* Small-scale training knobs shared by [train] and [run].  Full-scale
   bodytrack training runs for minutes; trimmed to two small inputs and
   a few joint samples it runs in under a second, which is what the
   smoke targets and CI need.  [--inputs] rebuilds the registry app
   through {!App.with_training_inputs} (same computation, same ABs —
   only the workload scale changes), so the trimmed pipeline is a real
   pipeline, not a mock. *)
let train_inputs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inputs" ] ~docv:"CSV;CSV"
        ~doc:"Train on these input vectors instead of the app's registered training set \
              (semicolon-separated vectors of comma-separated floats; the first also \
              becomes the default input).  Small-scale training for smokes and CI.")

let joint_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "joint" ] ~docv:"N"
        ~doc:"Joint configuration samples drawn per phase during profiling (default: \
              the training config's).")

let trim_app (app : App.t) = function
  | None -> app
  | Some spec ->
      let vector s =
        match List.map float_of_string (String.split_on_char ',' (String.trim s)) with
        | v -> Array.of_list v
        | exception Failure _ ->
            Printf.eprintf "opprox: --inputs: cannot parse %S as a float vector\n" s;
            exit 2
      in
      let vectors =
        String.split_on_char ';' spec
        |> List.filter (fun s -> String.trim s <> "")
        |> List.map vector |> Array.of_list
      in
      if Array.length vectors = 0 then begin
        Printf.eprintf "opprox: --inputs: no input vectors given\n";
        exit 2
      end;
      (try App.with_training_inputs app ~default_input:vectors.(0) ~training_inputs:vectors
       with Invalid_argument msg ->
         Printf.eprintf "opprox: --inputs: %s\n" msg;
         exit 2)

(* The one uniform stochastic-seed flag.  Every pipeline command that
   draws randomness takes [--seed N] with the same meaning: it seeds the
   training sampler (default 0xDA7A = 55930), and in [search] the MCMC
   master seed as well (default 0x5EA2C = 387628).  Results are a
   deterministic function of the seed at any [--jobs]. *)
let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N"
        ~doc:"Seed for the command's stochastic components: the training sampling plan \
              (default $(b,0xDA7A) = 55930) and, under $(b,search), the MCMC master seed \
              (default $(b,0x5EA2C) = 387628).  Every result is a deterministic function \
              of the seed, independent of $(b,--jobs).")

let train_config ~phases ~joint ~seed =
  let config =
    match phases with
    | None -> Opprox.default_train_config
    | Some n -> { Opprox.default_train_config with n_phases = Some n }
  in
  let config =
    match joint with
    | None -> config
    | Some n ->
        {
          config with
          Opprox.training =
            { config.Opprox.training with Opprox.Training.joint_samples_per_phase = n };
        }
  in
  match seed with
  | None -> config
  | Some s ->
      { config with Opprox.training = { config.Opprox.training with Opprox.Training.seed = s } }

let train_cmd =
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to store the trained pipeline.")
  in
  let run () () (app : App.t) phases inputs joint seed output verbose =
    setup_logs verbose;
    let app = trim_app app inputs in
    let config = train_config ~phases ~joint ~seed in
    Printf.printf "Training OPPROX on %s...\n%!" app.name;
    let trained = Opprox.train ~config app in
    Opprox.save output trained;
    Printf.printf "  %d phases, %d profiling runs -> %s\n"
      trained.Opprox.training.Opprox.Training.n_phases
      (Opprox.Training.n_runs trained.Opprox.training)
      output
  in
  Cmd.v
    (Cmd.info "train" ~doc:"Run the offline stage and persist the trained pipeline.")
    Term.(
      const run $ jobs_arg $ obs_arg $ app_arg $ phases_arg $ train_inputs_arg $ joint_arg
      $ seed_arg $ output_arg $ verbose_arg)

(* -------------------------------------------------------------- optimize *)

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"FILE"
        ~doc:"Load a pipeline saved by $(b,train) instead of retraining.")

(* One plan rendered as the per-phase choice table — shared by
   [optimize] (local solve) and [request] (daemon reply). *)
let print_plan_table ~budget (plan : Opprox.Optimizer.plan) =
  let t = Table.create [ "phase"; "levels"; "sub-budget %"; "predicted qos-hi %" ] in
  List.iter
    (fun (c : Opprox.Optimizer.phase_choice) ->
      Table.add_row t
        [
          string_of_int (c.phase + 1);
          Printf.sprintf "[%s]"
            (String.concat ";" (Array.to_list (Array.map string_of_int c.levels)));
          Printf.sprintf "%.2f" c.sub_budget;
          Printf.sprintf "%.2f" c.predicted.Opprox.Models.qos_hi;
        ])
    (List.sort
       (fun (a : Opprox.Optimizer.phase_choice) b -> compare a.phase b.phase)
       plan.Opprox.Optimizer.choices);
  Table.print ~title:(Printf.sprintf "Plan for budget %.1f%%" budget) t

let optimize_cmd =
  let run () () (app : App.t) budget phases load verbose =
    setup_logs verbose;
    let trained =
      match load with
      | Some path ->
          Printf.printf "Loading trained pipeline from %s...\n%!" path;
          Opprox.load ~resolve:Opprox_apps.Registry.find path
      | None ->
          let config =
            match phases with
            | None -> Opprox.default_train_config
            | Some n -> { Opprox.default_train_config with n_phases = Some n }
          in
          Printf.printf "Training OPPROX on %s...\n%!" app.name;
          Opprox.train ~config app
    in
    Printf.printf "  phases: %d, profiling runs: %d, QoS R2: %.2f, speedup R2: %.2f\n%!"
      trained.Opprox.training.Opprox.Training.n_phases
      (Opprox.Training.n_runs trained.Opprox.training)
      (Opprox.Models.qos_r2 trained.Opprox.models)
      (Opprox.Models.speedup_r2 trained.Opprox.models);
    let plan = Opprox.optimize trained ~budget in
    print_plan_table ~budget plan;
    let outcome = Opprox.apply trained plan in
    Printf.printf "Measured: speedup %.3f, qos degradation %.2f%% (budget %.1f%%)%s\n"
      outcome.Driver.speedup outcome.Driver.qos_degradation budget
      (if outcome.Driver.qos_degradation > budget then "  ** over budget **" else "")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Train OPPROX and execute the phase-aware plan for a budget.")
    Term.(
      const run $ jobs_arg $ obs_arg $ app_arg $ budget_arg $ phases_arg $ load_arg
      $ verbose_arg)

(* ------------------------------------------------------------------- run *)

let run_cmd =
  let controlled_arg =
    Arg.(
      value & flag
      & info [ "controlled" ]
          ~doc:"Execute under the online controller (phase-boundary drift checks and \
                mid-run replans) alongside the static plan, and compare.")
  in
  let drift_tol_arg =
    Arg.(
      value
      & opt float Opprox.Controller.default_config.Opprox.Controller.drift_tol
      & info [ "drift-tol" ] ~docv:"F"
          ~doc:"Relative per-phase work drift that triggers a replan (0 replans on any \
                drift; inf never replans).")
  in
  let max_replans_arg =
    Arg.(
      value
      & opt int Opprox.Controller.default_config.Opprox.Controller.max_replans
      & info [ "max-replans" ] ~docv:"N" ~doc:"Cap on mid-run re-solves.")
  in
  let input_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "input" ] ~docv:"CSV"
          ~doc:"Input vector to execute on, comma-separated (default: the app's default \
                input).  The plan is always solved for the default input, so a different \
                vector here runs the plan off its assumptions — the controller's case.")
  in
  let perturb_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "perturb" ] ~docv:"F"
          ~doc:"Scale the leading (size) input parameter by $(b,1+F) before executing — a \
                shorthand for an off-distribution input.")
  in
  let via_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "via" ] ~docv:"SOCKET"
          ~doc:"Stream the controlled run's phase-boundary telemetry to the $(b,opprox \
                serve) daemon on $(docv) and adopt its plan deltas instead of re-solving \
                locally (implies $(b,--controlled)).")
  in
  let run () () (app : App.t) budget phases inputs joint seed load controlled drift_tol
      max_replans via input perturb verbose =
    setup_logs verbose;
    let app = trim_app app inputs in
    let controlled = controlled || via <> None in
    let trained =
      match load with
      | Some path ->
          Printf.printf "Loading trained pipeline from %s...\n%!" path;
          Opprox.load ~resolve:Opprox_apps.Registry.find path
      | None ->
          let config = train_config ~phases ~joint ~seed in
          Printf.printf "Training OPPROX on %s...\n%!" app.name;
          Opprox.train ~config app
    in
    let input =
      let base =
        match input with Some l -> Array.of_list l | None -> app.App.default_input
      in
      if perturb = 0.0 then base
      else begin
        let p = Array.copy base in
        p.(0) <- p.(0) *. (1.0 +. perturb);
        p
      end
    in
    (* The static OPPROX protocol: solve for the default input, run the
       plan unchanged on whatever input actually arrives. *)
    let plan = Opprox.optimize trained ~budget in
    print_plan_table ~budget plan;
    let static = Opprox.apply ~input trained plan in
    Printf.printf "static:     speedup %.3f, qos degradation %.2f%% (budget %.1f%%)%s\n%!"
      static.Driver.speedup static.Driver.qos_degradation budget
      (if static.Driver.qos_degradation > budget then "  ** over budget **" else "");
    if controlled then begin
      let config = { Opprox.Controller.drift_tol; max_replans } in
      let outcome =
        match via with
        | None -> Opprox.run_controlled ~config ~input trained plan
        | Some socket -> (
            (* Streaming recontrol: this process executes the phases;
               every over-tolerance boundary ships to the daemon as a
               telemetry frame, and the daemon's plan deltas steer the
               remaining phases. *)
            let client =
              try Opprox_serve.Client.connect ~socket
              with Unix.Unix_error (err, _, _) ->
                Printf.eprintf "opprox run: cannot connect to %s: %s\n" socket
                  (Unix.error_message err);
                exit 2
            in
            Printf.printf "controlled: streaming telemetry via %s\n%!" socket;
            Fun.protect
              ~finally:(fun () -> Opprox_serve.Client.close client)
              (fun () ->
                let replan =
                  Opprox_serve.Client.replanner client ~input ~app:app.App.name
                    ~plan_budget:budget ~drift_tol ()
                in
                try Opprox.run_controlled ~config ~replan ~input trained plan
                with Failure msg ->
                  Printf.eprintf "opprox run: telemetry stream failed: %s\n" msg;
                  exit 1))
      in
      let ev = outcome.Opprox.Controller.evaluation in
      Printf.printf "controlled: speedup %.3f, qos degradation %.2f%% (budget %.1f%%)%s\n"
        ev.Driver.speedup ev.Driver.qos_degradation budget
        (if outcome.Opprox.Controller.within_budget then "" else "  ** over budget **");
      Printf.printf "controlled: %d replan(s), budget %s\n"
        outcome.Opprox.Controller.replans
        (if outcome.Opprox.Controller.within_budget then "held" else "violated");
      let t = Table.create [ "phase"; "levels"; "pred work"; "obs work"; "drift"; "replan" ] in
      List.iter
        (fun (r : Opprox.Controller.phase_report) ->
          Table.add_row t
            [
              string_of_int (r.Opprox.Controller.phase + 1);
              Printf.sprintf "[%s]"
                (String.concat ";"
                   (Array.to_list (Array.map string_of_int r.Opprox.Controller.levels)));
              Printf.sprintf "%.0f" r.Opprox.Controller.predicted_work;
              Printf.sprintf "%.0f" r.Opprox.Controller.observed_work;
              Printf.sprintf "%.2f" r.Opprox.Controller.drift;
              (if r.Opprox.Controller.replanned then "yes" else "");
            ])
        outcome.Opprox.Controller.phases;
      Table.print ~title:"Controlled execution" t
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a plan on an input — optionally perturbed away from the training \
          distribution — statically and, with $(b,--controlled), under the online \
          phase-boundary controller (drift checks, mid-run suffix replans against the \
          remaining budget).")
    Term.(
      const run $ jobs_arg $ obs_arg $ app_arg $ budget_arg $ phases_arg $ train_inputs_arg
      $ joint_arg $ seed_arg $ load_arg $ controlled_arg $ drift_tol_arg $ max_replans_arg
      $ via_arg $ input_arg $ perturb_arg $ verbose_arg)

(* ---------------------------------------------------------------- search *)

let search_cmd =
  let chains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "chains" ] ~docv:"N"
          ~doc:"Independent MCMC chains (default 4).  Chain $(i,i) is seeded from \
                $(b,(seed, i)) alone, so the result is bit-identical at any $(b,--jobs) \
                and — once the iteration budget lets every chain converge — across chain \
                counts too.")
  in
  let iters_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "iters" ] ~docv:"N" ~doc:"Proposal steps per chain (default 2000).")
  in
  let run () () (app : App.t) budget phases inputs joint seed load chains iters verbose =
    setup_logs verbose;
    let app = trim_app app inputs in
    let trained =
      match load with
      | Some path ->
          Printf.printf "Loading trained pipeline from %s...\n%!" path;
          Opprox.load ~resolve:Opprox_apps.Registry.find path
      | None ->
          let config = train_config ~phases ~joint ~seed in
          Printf.printf "Training OPPROX on %s...\n%!" app.name;
          Opprox.train ~config app
    in
    let app = trained.Opprox.app in
    let module Search = Opprox_search.Search in
    let base = Search.default_config in
    let config =
      {
        Search.chains = Option.value chains ~default:base.Search.chains;
        iters = Option.value iters ~default:base.Search.iters;
        seed = Option.value seed ~default:base.Search.seed;
      }
    in
    Printf.printf
      "Searching %s (%d ABs, %d joint configs) at budget %.1f%%: %d chain(s) x %d step(s), \
       seed %d\n%!"
      app.App.name (App.n_abs app)
      (Opprox_sim.Config_space.count app.abs)
      budget config.Search.chains config.Search.iters config.Search.seed;
    let plan, stats =
      try
        Search.solve ~config ~models:trained.Opprox.models ~input:app.App.default_input
          ~budget ()
      with Opprox_analysis.Diagnostic.Lint_error diags ->
        Format.eprintf "opprox search: audit failed:@.%a@." Opprox_analysis.Diagnostic.pp_list
          diags;
        exit 1
    in
    print_plan_table ~budget plan;
    let t = Table.create [ "chain"; "best cost" ] in
    Array.iteri
      (fun i c ->
        Table.add_row t
          [
            (if i = stats.Search.best_chain then Printf.sprintf "%d *" i else string_of_int i);
            (if Float.is_nan c then "never feasible" else Printf.sprintf "%.6f" c);
          ])
      stats.Search.chain_costs;
    Table.print ~title:"Chains (* = winner)" t;
    Printf.printf
      "search: %d step(s), %d accept(s) (%.0f%%), %d restart(s); best cost %.6f, predicted \
       speedup %.3f, predicted qos-hi %.2f%%\n"
      stats.Search.steps stats.Search.accepts
      (if stats.Search.steps = 0 then 0.0
       else 100.0 *. float_of_int stats.Search.accepts /. float_of_int stats.Search.steps)
      stats.Search.restarts stats.Search.best_cost plan.Opprox.Optimizer.predicted_speedup
      plan.Opprox.Optimizer.predicted_qos;
    let outcome = Opprox.apply trained plan in
    Printf.printf "Measured: speedup %.3f, qos degradation %.2f%% (budget %.1f%%)%s\n"
      outcome.Driver.speedup outcome.Driver.qos_degradation budget
      (if outcome.Driver.qos_degradation > budget then "  ** over budget **" else "")
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Plan through the stochastic schedule search: multi-chain MCMC over whole \
          per-phase AL schedules, priced by the trained models — the only strategy that \
          scales to joint spaces enumeration cannot touch (e.g. $(b,transformer)'s \
          9^13).  Prints the winning plan, per-chain outcomes, and acceptance stats, \
          then executes the plan.")
    Term.(
      const run $ jobs_arg $ obs_arg $ app_arg $ budget_arg $ phases_arg $ train_inputs_arg
      $ joint_arg $ seed_arg $ load_arg $ chains_arg $ iters_arg $ verbose_arg)

(* ---------------------------------------------------------------- submit *)

let submit_cmd =
  let config_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CONFIG" ~doc:"Job configuration file (app=, budget=, models=, input=).")
  in
  let run () config_path =
    (* No --verbose here, but config-parsing warnings (duplicate keys)
       must still reach the user. *)
    setup_logs false;
    let job = Opprox.Runtime.load_config config_path in
    let submission = Opprox.submit ~resolve:Opprox_apps.Registry.find job in
    Printf.printf "Job %s at budget %.1f%% -> environment:\n" job.Opprox.Runtime.app_name
      job.Opprox.Runtime.budget;
    List.iter (fun (k, v) -> Printf.printf "  %s=%s\n" k v) submission.Opprox.Runtime.env;
    let outcome = submission.Opprox.Runtime.outcome in
    Printf.printf "Executed: speedup %.3f, qos degradation %.2f%%\n" outcome.Driver.speedup
      outcome.Driver.qos_degradation
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Load models named by a job config, optimize, and launch (the paper's runtime step).")
    Term.(const run $ obs_arg $ config_arg)

(* ----------------------------------------------------------------- check *)

module Diagnostic = Opprox_analysis.Diagnostic
module Checker = Opprox_analysis.Checker
module Lint_app = Opprox_analysis.Lint_app
module Lint_schedule = Opprox_analysis.Lint_schedule

module Conc = Opprox_util.Conc
module Dmutex = Opprox_util.Dmutex
module Guarded = Opprox_util.Guarded

(* Seeded defect fixtures: each deterministically triggers one CONC rule
   so `make conc-smoke` (and the docs) can demonstrate the checker
   catching a real defect with a stable code.  The deadlock fixture
   needs no second domain — the order graph convicts the AB/BA shape
   from one domain's history, which is the point: the cycle is reported
   even when this run happened not to interleave fatally. *)
let run_conc_fixture kind =
  Conc.enable ();
  match kind with
  | "deadlock" ->
      let a = Dmutex.create ~name:"fixture.lock_a" () in
      let b = Dmutex.create ~name:"fixture.lock_b" () in
      Dmutex.lock a;
      Dmutex.lock b;
      Dmutex.unlock b;
      Dmutex.unlock a;
      Dmutex.lock b;
      Dmutex.lock a;
      Dmutex.unlock a;
      Dmutex.unlock b
  | "unguarded" ->
      let m = Dmutex.create ~name:"fixture.guard" () in
      let cell = Guarded.create ~name:"fixture.cell" ~locks:[ m ] 0 in
      ignore (Guarded.get cell : int)
  | "reentrant" ->
      let m = Dmutex.create ~name:"fixture.reentrant" () in
      Dmutex.lock m;
      (try Dmutex.lock m with Failure _ -> ());
      Dmutex.unlock m
  | other ->
      Printf.eprintf
        "opprox check: unknown --conc-fixture %S (expected deadlock, unguarded, or reentrant)\n"
        other;
      exit 2

(* The deterministic self-exercise: drive every concurrent structure the
   runtime owns — pool, shardmap, plancache, singleflight, and the full
   server loopback path — under the checker, with seeded yield injection
   widening the interleavings each repetition explores.  A clean run is
   the evidence `opprox check --concurrency` reports; any discipline
   break surfaces as a CONC diagnostic. *)
let run_conc_suite ~seed ~reps =
  Conc.enable ();
  (* Train once (checked, not stressed): the driver memos and the pool
     already run under the enabled checker here. *)
  let app = List.hd (Opprox_apps.Registry.all ()) in
  let config =
    {
      Opprox.default_train_config with
      n_phases = Some 2;
      training =
        {
          Opprox.Training.default_config with
          joint_samples_per_phase = 2;
          inputs =
            Some
              (Array.sub app.App.training_inputs 0
                 (Stdlib.min 2 (Array.length app.App.training_inputs)));
        };
    }
  in
  let trained = Opprox.train ~config app in
  let server = Opprox_serve.Server.create [ trained ] in
  Conc.stress ~seed ~reps (fun rep ->
      let pool = Opprox_util.Pool.create ~jobs:4 () in
      Fun.protect
        ~finally:(fun () -> Opprox_util.Pool.shutdown pool)
        (fun () ->
          (* Pool + shardmap: concurrent add/find churn across shards,
             with capacity trims exercising the order lock. *)
          let map = Opprox_util.Shardmap.create ~name:"conc.suite.map" ~capacity:64 () in
          Opprox_util.Pool.parallel_iter ~pool
            (fun i ->
              let key = Printf.sprintf "k%d" (i mod 96) in
              ignore (Opprox_util.Shardmap.add map key i : bool);
              ignore (Opprox_util.Shardmap.find map key : int option))
            (Array.init 256 Fun.id);
          Opprox_util.Shardmap.set_capacity map 16;
          ignore (Opprox_util.Shardmap.size map : int);
          (* Plancache: sharded LRU under concurrent hits and evictions. *)
          let cache = Opprox_serve.Plancache.create ~shards:4 ~capacity:32 () in
          Opprox_util.Pool.parallel_iter ~pool
            (fun i ->
              let key = Printf.sprintf "p%d" (i mod 48) in
              Opprox_serve.Plancache.add cache key i;
              ignore (Opprox_serve.Plancache.find cache key : int option))
            (Array.init 256 Fun.id);
          (* Singleflight: a hot-key storm — leaders publish through the
             entry condvar while followers park on it. *)
          let sf : int Opprox_serve.Singleflight.t = Opprox_serve.Singleflight.create () in
          Opprox_util.Pool.parallel_iter ~pool
            (fun i ->
              ignore
                (Opprox_serve.Singleflight.run sf "hot"
                   (fun () ->
                     for _ = 0 to 200 do
                       Domain.cpu_relax ()
                     done;
                     i)
                  : int Opprox_serve.Singleflight.outcome))
            (Array.init 64 Fun.id);
          (* Server loopback: the full request path (validation, corpus
             ladder, LRU, singleflight-coalesced solve) from several
             domains at once. *)
          Opprox_util.Pool.parallel_iter ~pool
            (fun i ->
              let client = Opprox_serve.Client.loopback server in
              let budget = 5.0 +. float_of_int (i mod 3 + rep) in
              let req = Opprox_serve.Protocol.request ~app:app.App.name ~budget () in
              ignore (Opprox_serve.Client.request client req : Opprox_serve.Protocol.response))
            (Array.init 32 Fun.id)))

let conc_metric name =
  match Opprox_obs.Metrics.find name with
  | Some (Opprox_obs.Metrics.Counter n) -> n
  | Some (Opprox_obs.Metrics.Gauge g) -> int_of_float g
  | _ -> 0

let check_cmd =
  let app_opt_arg =
    Arg.(
      value
      & pos 0 (some app_conv) None
      & info [] ~docv:"APP"
          ~doc:"Application to audit.  Omitted: audit every registered application.")
  in
  let models_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "models" ] ~docv:"FILE"
          ~doc:"Audit a trained pipeline saved by $(b,train) (coefficients, conditioning, \
                confidence intervals, prediction sanity sweep).")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:"Audit a serialized schedule (shape, level ranges against $(i,APP)).")
  in
  let request_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "request" ] ~docv:"FILE"
          ~doc:"Audit a serving request (budget range, known app, input arity — the \
                $(b,SRV) rules the daemon applies at its boundary).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"Audit a precomputed plan corpus: structure and index order ($(b,CORP002)), \
                record decodability ($(b,CORP004)), stale models hashes against \
                $(b,--models) ($(b,CORP001)), and — with $(b,--request) — grid coverage \
                ($(b,CORP003)).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Treat warnings as failures (also enabled by $(b,OPPROX_STRICT=1)).")
  in
  let disable_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "disable" ] ~docv:"CODES"
          ~doc:"Comma-separated rule codes or code prefixes to mute (e.g. \
                $(b,SCHED006,MODEL)).")
  in
  let sexp_arg =
    Arg.(
      value & flag
      & info [ "sexp" ] ~doc:"Also print each finding as an s-expression on stdout.")
  in
  let concurrency_arg =
    Arg.(
      value & flag
      & info [ "concurrency" ]
          ~doc:"Run the concurrency self-exercise suite (pool, shardmap, plancache, \
                singleflight, server loopback) under the runtime checker with seeded \
                interleaving widening, and report any $(b,CONC) findings (lock-order \
                cycles, unguarded shared state, reentrancy, foreign release).")
  in
  let conc_seed_arg =
    Arg.(
      value & opt int 42
      & info [ "conc-seed" ] ~docv:"SEED"
          ~doc:"Seed for the stress mode's randomized yield injection.")
  in
  let conc_reps_arg =
    Arg.(
      value & opt int 3
      & info [ "conc-reps" ] ~docv:"N"
          ~doc:"Repetitions of the self-exercise suite; each widens a different \
                interleaving family from the seed.")
  in
  let conc_fixture_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "conc-fixture" ] ~docv:"KIND"
          ~doc:"Instead of the self-exercise suite, run a seeded defect fixture and \
                report its finding: $(b,deadlock) (AB/BA lock-order cycle, CONC001), \
                $(b,unguarded) (lockset violation, CONC002), or $(b,reentrant) \
                (self-deadlock, CONC003).  Exercises the checker's detection paths; \
                used by $(b,make conc-smoke).")
  in
  let run app models_file schedule_file request_file corpus_file strict_flag disabled sexp_out
      concurrency conc_seed conc_reps conc_fixture verbose =
    setup_logs verbose;
    let strict = strict_flag || Diagnostic.strict_env () in
    let checker =
      try Checker.create ~disabled ()
      with Invalid_argument msg ->
        Printf.eprintf "opprox check: %s\n" msg;
        exit 2
    in
    let app_name = Option.map (fun (a : App.t) -> a.name) app in
    (match app with
    | Some a -> Checker.add checker (Lint_app.check_app a)
    | None ->
        let all = Opprox_apps.Registry.all () in
        List.iter (fun a -> Checker.add checker (Lint_app.check_app a)) all;
        Checker.add checker (Lint_app.check_registry all));
    (match models_file with
    | None -> ()
    | Some path -> (
        (* Load without the fail-fast wiring: the point here is to gather
           every finding into one report, not to stop at the first. *)
        match Opprox.load ~strict:false ~resolve:Opprox_apps.Registry.find path with
        | trained ->
            (match app_name with
            | Some n when n <> trained.Opprox.app.App.name ->
                Printf.eprintf "opprox check: %s holds models for %s, not %s\n" path
                  trained.Opprox.app.App.name n;
                exit 2
            | _ -> ());
            Checker.add checker (Opprox.Models.lint trained.Opprox.models)
        | exception Failure msg ->
            Printf.eprintf "opprox check: cannot load %s: %s\n" path msg;
            exit 2
        | exception Not_found ->
            Printf.eprintf "opprox check: %s names an unregistered application\n" path;
            exit 2));
    (match schedule_file with
    | None -> ()
    | Some path ->
        let raw =
          match
            let sexp = Opprox_util.Sexp.load path in
            Array.of_list
              (List.map Opprox_util.Sexp.to_int_array
                 (Opprox_util.Sexp.to_list (Opprox_util.Sexp.field sexp "levels")))
          with
          | raw -> raw
          | exception Failure msg ->
              Printf.eprintf "opprox check: cannot load %s: %s\n" path msg;
              exit 2
        in
        let raw_diags = Lint_schedule.check_raw ?app:app_name raw in
        Checker.add checker raw_diags;
        (* Only a well-shaped matrix can be checked against an app's ABs. *)
        if Diagnostic.exit_code ~strict:false raw_diags = 0 then
          match app with
          | Some (a : App.t) ->
              Checker.add checker
                (Lint_schedule.check ~app:a.name ~abs:a.abs (Schedule.make raw))
          | None -> ());
    (match request_file with
    | None -> ()
    | Some path ->
        (* The registry stands in for a serving target: every bundled app
           is "loaded", and with no model set at hand the hash rule
           (SRV003) has nothing to compare against. *)
        let module Protocol = Opprox_serve.Protocol in
        let module Lint_request = Opprox_analysis.Lint_request in
        let target =
          {
            Lint_request.known_apps = Opprox_apps.Registry.names ();
            param_arity =
              (fun name ->
                match Opprox_apps.Registry.find name with
                | a -> Some (Array.length a.App.param_names)
                | exception Not_found -> None);
            expected_hash = (fun _ -> None);
          }
        in
        let findings =
          match Opprox_util.Sexp.load path with
          | exception Failure msg -> [ Lint_request.malformed msg ]
          | sexp -> (
              match Protocol.frame_version sexp with
              | exception Failure msg -> [ Lint_request.malformed msg ]
              | v when v <> Protocol.version -> [ Lint_request.bad_version ~got:v ]
              | _ -> (
                  match Protocol.request_of_sexp sexp with
                  | exception Failure msg -> [ Lint_request.malformed msg ]
                  | req ->
                      Lint_request.check target
                        {
                          Lint_request.app = req.Protocol.app;
                          budget = req.Protocol.budget;
                          input = req.Protocol.input;
                          models_hash = req.Protocol.models_hash;
                          deadline_ms = req.Protocol.deadline_ms;
                        }))
        in
        Checker.add checker findings);
    (match corpus_file with
    | None -> ()
    | Some path ->
        let module Corpus = Opprox_corpus.Corpus in
        let expected_hashes =
          (* With --models alongside, the corpus stamps are checked
             against the pipeline the server would actually load. *)
          match models_file with
          | None -> []
          | Some mpath -> (
              match Opprox.load ~strict:false ~resolve:Opprox_apps.Registry.find mpath with
              | trained ->
                  [
                    ( trained.Opprox.app.App.name,
                      Opprox_corpus.Precompute.models_hash trained );
                  ]
              | exception _ -> [])
        in
        Checker.add checker (Corpus.lint_file ~expected_hashes path);
        (* With --request alongside: would this corpus answer it, exactly
           or through the nearest-neighbour fallback? *)
        (match (request_file, Corpus.load path) with
        | Some rpath, corpus -> (
            let module Protocol = Opprox_serve.Protocol in
            match Protocol.request_of_sexp (Opprox_util.Sexp.load rpath) with
            | req ->
                Checker.add checker
                  (Corpus.lint_coverage corpus ~app:req.Protocol.app
                     ~budget:req.Protocol.budget)
            | exception Failure _ -> ())
        | None, _ -> ()
        | exception Failure _ -> () (* already reported by lint_file *)));
    (match (concurrency, conc_fixture) with
    | false, None -> ()
    | _ ->
        Conc.reset ();
        (match conc_fixture with
        | Some kind -> run_conc_fixture kind
        | None -> run_conc_suite ~seed:conc_seed ~reps:conc_reps);
        Printf.printf
          "concurrency: %d lock acquisitions, %d lock classes, %d order edges, %d stress \
           yields, %d reports\n"
          (conc_metric "conc.locks.acquisitions")
          (conc_metric "conc.locks.classes")
          (conc_metric "conc.order.edges")
          (conc_metric "conc.stress.yields")
          (conc_metric "conc.reports");
        Opprox_analysis.Lint_conc.check_into checker);
    if sexp_out then
      List.iter
        (fun d -> print_endline (Opprox_util.Sexp.to_string (Diagnostic.to_sexp d)))
        (Checker.diagnostics checker);
    Checker.report ~strict checker;
    exit (Checker.exit_code ~strict checker)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Audit applications, trained models, and schedules without running the simulator, \
          and — with $(b,--concurrency) — the runtime's own lock discipline under the \
          concurrency checker.  Exit status 0 when clean (or only notes/warnings), 1 when \
          any error — or any warning under $(b,--strict) — fired, 2 on usage problems.")
    Term.(
      const run $ app_opt_arg $ models_arg $ schedule_arg $ request_arg $ corpus_arg
      $ strict_arg $ disable_arg $ sexp_arg $ concurrency_arg $ conc_seed_arg $ conc_reps_arg
      $ conc_fixture_arg $ verbose_arg)

(* ---------------------------------------------------------------- oracle *)

let oracle_cmd =
  let run () () (app : App.t) budget =
    let r = Opprox.run_oracle app ~budget in
    Printf.printf "%s phase-agnostic oracle at %.1f%% budget:\n" app.name budget;
    Printf.printf "  levels [%s], speedup %.3f, qos %.2f%%\n"
      (String.concat ";" (Array.to_list (Array.map string_of_int r.Opprox.Oracle.levels)))
      r.Opprox.Oracle.evaluation.Driver.speedup
      r.Opprox.Oracle.evaluation.Driver.qos_degradation
  in
  Cmd.v
    (Cmd.info "oracle" ~doc:"Run the phase-agnostic exhaustive baseline for a budget.")
    Term.(const run $ jobs_arg $ obs_arg $ app_arg $ budget_arg)

(* ----------------------------------------------------------------- stats *)

let stats_cmd =
  let app_opt_arg =
    Arg.(
      value
      & pos 0 (some app_conv) None
      & info [] ~docv:"APP"
          ~doc:"Application to exercise (default: the first registered one).")
  in
  let run () () app budget seed verbose =
    setup_logs verbose;
    let app =
      match app with
      | Some a -> a
      | None -> List.hd (Opprox_apps.Registry.all ())
    in
    (* A deliberately small pipeline pass: enough to touch training, the
       optimizer, the memo layers, and the pool, so the registry shows
       live values — while staying fast enough for CI. *)
    let config =
      {
        Opprox.default_train_config with
        n_phases = Some 2;
        training =
          {
            Opprox.Training.joint_samples_per_phase = 2;
            inputs =
              Some
                (Array.sub app.App.training_inputs 0
                   (Stdlib.min 2 (Array.length app.App.training_inputs)));
            seed =
              Option.value seed ~default:Opprox.Training.default_config.Opprox.Training.seed;
          };
      }
    in
    let trained = Opprox.train ~config app in
    let plan = Opprox.optimize trained ~budget in
    let outcome = Opprox.apply trained plan in
    Printf.printf "%s at budget %.1f%%: speedup %.3f, qos degradation %.2f%%\n\n" app.App.name
      budget outcome.Driver.speedup outcome.Driver.qos_degradation;
    print_metrics_table ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a small train/optimize/apply pass and print the metrics registry \
          (counters, gauges, histograms) it produced.")
    Term.(const run $ jobs_arg $ obs_arg $ app_opt_arg $ budget_arg $ seed_arg $ verbose_arg)

(* ----------------------------------------------------------------- serve *)

module Protocol = Opprox_serve.Protocol
module Server = Opprox_serve.Server
module Client = Opprox_serve.Client

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path the daemon listens on.")

let serve_cmd =
  let models_arg =
    Arg.(
      non_empty
      & opt_all file []
      & info [ "models" ] ~docv:"FILE"
          ~doc:"Trained pipeline saved by $(b,train); repeat to serve several applications.")
  in
  let max_inflight_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.max_inflight
      & info [ "max-inflight" ] ~docv:"K"
          ~doc:
            (Printf.sprintf
               "Admission bound: connections beyond $(docv) open at once are shed with an \
                $(b,overloaded) reply.  At most %d, the descriptors $(b,select) can watch \
                less a reserve."
               Server.max_inflight_limit))
  in
  let cache_cap_arg =
    Arg.(
      value
      & opt int Server.default_config.Server.cache_capacity
      & info [ "cache-cap" ] ~docv:"C" ~doc:"Plan-cache capacity in entries.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Default per-request deadline applied when a request carries none.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"Precomputed plan corpus (from $(b,opprox precompute)) consulted before the \
                cache and the solver: exact fingerprint hits and nearest-neighbour \
                budget-grid hits are served without solving.")
  in
  let restore_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-restore" ] ~docv:"PATH"
          ~doc:"Persist the plan cache here on shutdown drain and restore it from here at \
                startup (ignored when absent; rejected with a warning when its models \
                hashes mismatch the loaded pipelines).")
  in
  let run () () socket models max_inflight cache_cap deadline_ms corpus_path cache_snapshot
      verbose =
    setup_logs verbose;
    let socket =
      match socket with
      | Some s -> s
      | None ->
          Printf.eprintf "opprox serve: --socket PATH is required\n";
          exit 2
    in
    let pipelines =
      List.map
        (fun path ->
          Printf.printf "Loading trained pipeline from %s...\n%!" path;
          match Opprox.load ~resolve:Opprox_apps.Registry.find path with
          | trained -> trained
          | exception Failure msg ->
              Printf.eprintf "opprox serve: cannot load %s: %s\n" path msg;
              exit 2
          | exception Not_found ->
              Printf.eprintf "opprox serve: %s names an unregistered application\n" path;
              exit 2)
        models
    in
    let config =
      {
        Server.default_config with
        Server.max_inflight;
        cache_capacity = cache_cap;
        default_deadline_ms = deadline_ms;
        corpus_path;
        cache_snapshot;
      }
    in
    let server =
      try Server.create ~config pipelines with
      | Invalid_argument msg ->
          Printf.eprintf "opprox serve: %s\n" msg;
          exit 2
      | Failure msg ->
          (* A structurally invalid corpus must fail at startup. *)
          Printf.eprintf "opprox serve: %s\n" msg;
          exit 1
      | Opprox_analysis.Diagnostic.Lint_error diags ->
          Format.eprintf "opprox serve: model audit failed:@.%a@."
            Opprox_analysis.Diagnostic.pp_list diags;
          exit 1
    in
    Server.install_signal_handlers server;
    List.iter
      (fun app ->
        Printf.printf "  serving %s (models %s)\n%!" app
          (Option.value ~default:"?" (Server.models_hash server app)))
      (Server.apps server);
    (match Server.serve server ~socket with
    | () -> ()
    | exception Unix.Unix_error (err, fn, arg) ->
        Printf.eprintf "opprox serve: %s(%s): %s\n" fn arg (Unix.error_message err);
        exit 1);
    let stats = Server.cache_stats server in
    Printf.printf "Drained.  Cache: %d hit(s), %d miss(es), %d eviction(s)\n"
      stats.Opprox_serve.Plancache.hits stats.Opprox_serve.Plancache.misses
      stats.Opprox_serve.Plancache.evictions
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the plan-serving daemon: load trained pipelines once, then answer plan \
          requests over a Unix-domain socket with a sharded plan cache, per-request \
          deadlines, and overload shedding.  SIGINT/SIGTERM drain in-flight requests \
          before exit.")
    Term.(
      const run $ jobs_arg $ obs_arg $ socket_arg $ models_arg $ max_inflight_arg
      $ cache_cap_arg $ deadline_arg $ corpus_arg $ restore_arg $ verbose_arg)

(* ------------------------------------------------------------ precompute *)

(* Load trained pipelines for the corpus tools, with serve's error style. *)
let load_pipelines ~cmd paths =
  List.map
    (fun path ->
      match Opprox.load ~resolve:Opprox_apps.Registry.find path with
      | trained -> trained
      | exception Failure msg ->
          Printf.eprintf "opprox %s: cannot load %s: %s\n" cmd path msg;
          exit 2
      | exception Not_found ->
          Printf.eprintf "opprox %s: %s names an unregistered application\n" cmd path;
          exit 2)
    paths

let budgets_arg =
  Arg.(
    value
    & opt (list float) [ 5.0; 10.0; 20.0 ]
    & info [ "budgets" ] ~docv:"CSV"
        ~doc:"Budget grid in percent, comma-separated.")

let precompute_cmd =
  let models_arg =
    Arg.(
      non_empty
      & opt_all file []
      & info [ "models" ] ~docv:"FILE"
          ~doc:"Trained pipeline saved by $(b,train); repeat to sweep several applications.")
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Where to write the corpus.")
  in
  let run () () models budgets out verbose =
    setup_logs verbose;
    let pipelines = load_pipelines ~cmd:"precompute" models in
    match
      Opprox_corpus.Precompute.run ~budgets:(Array.of_list budgets) ~out pipelines
    with
    | progress ->
        Printf.printf "wrote %s: %d plan(s) from %d app(s) x %d (app,input) task(s) x %d \
                       budget(s)%s\n"
          out progress.Opprox_corpus.Precompute.cells progress.Opprox_corpus.Precompute.apps
          progress.Opprox_corpus.Precompute.tasks (List.length budgets)
          (if progress.Opprox_corpus.Precompute.failed > 0 then
             Printf.sprintf "  (%d infeasible cell(s) skipped)"
               progress.Opprox_corpus.Precompute.failed
           else "")
    | exception (Invalid_argument msg | Failure msg) ->
        Printf.eprintf "opprox precompute: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "precompute"
       ~doc:
         "Sweep (application x input grid x budget grid) across the domain pool and write \
          the plans as a binary, mmap-friendly corpus that $(b,opprox serve --corpus) \
          answers from without solving.")
    Term.(const run $ jobs_arg $ obs_arg $ models_arg $ budgets_arg $ out_arg $ verbose_arg)

(* --------------------------------------------------------------- loadgen *)

module Loadgen = Opprox_serve.Loadgen

let loadgen_cmd =
  let loopback_models_arg =
    Arg.(
      value
      & opt_all file []
      & info [ "models" ] ~docv:"FILE"
          ~doc:"Without $(b,--socket): drive an in-process loopback server built from these \
                trained pipelines.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"With $(b,--models): plan corpus for the loopback server (a socket daemon \
                loads its own via $(b,opprox serve --corpus)).")
  in
  let apps_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "app" ] ~docv:"NAME"
          ~doc:"Application(s) to request plans for.  Default: every app the loopback \
                server holds (required with $(b,--socket)).")
  in
  let requests_arg =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.requests
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of requests in the schedule.")
  in
  let rate_arg =
    Arg.(
      value
      & opt float Loadgen.default_config.Loadgen.rate
      & info [ "rate" ] ~docv:"RPS" ~doc:"Mean arrival rate, requests per second.")
  in
  let conns_arg =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.conns
      & info [ "conns" ] ~docv:"K" ~doc:"Concurrent connections (one domain each).")
  in
  let tail_arg =
    Arg.(
      value
      & opt (enum [ ("pareto", `Pareto); ("exp", `Exp) ]) `Pareto
      & info [ "tail" ] ~docv:"DIST"
          ~doc:"Interarrival distribution: $(b,pareto) (heavy-tailed bursts) or $(b,exp) \
                (Poisson).")
  in
  let alpha_arg =
    Arg.(
      value
      & opt float 1.5
      & info [ "alpha" ] ~docv:"A"
          ~doc:"Pareto shape (must exceed 1; smaller is burstier).  Ignored under \
                $(b,--tail exp).")
  in
  let zipf_arg =
    Arg.(
      value
      & opt float Loadgen.default_config.Loadgen.zipf
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Hot-key skew exponent over the (app x budget) key set; 0 is uniform.")
  in
  let offgrid_arg =
    Arg.(
      value
      & opt float Loadgen.default_config.Loadgen.offgrid
      & info [ "offgrid" ] ~docv:"F"
          ~doc:"Fraction of requests whose budget is nudged off the grid — exercises the \
                corpus nearest-neighbour fallback.")
  in
  let seed_arg =
    Arg.(
      value
      & opt int Loadgen.default_config.Loadgen.seed
      & info [ "seed" ] ~docv:"N" ~doc:"Schedule seed (the whole arrival/key schedule is \
                                        deterministic given the seed).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline.")
  in
  let run () () socket loopback_models corpus_path apps budgets requests rate conns tail alpha
      zipf offgrid seed deadline_ms verbose =
    setup_logs verbose;
    let connect, default_apps =
      match (socket, loopback_models) with
      | Some path, _ ->
          ((fun () -> Client.connect ~socket:path), [])
      | None, [] ->
          Printf.eprintf "opprox loadgen: need --socket PATH or --models FILE\n";
          exit 2
      | None, models ->
          let pipelines = load_pipelines ~cmd:"loadgen" models in
          let config = { Server.default_config with Server.corpus_path } in
          let server =
            try Server.create ~config pipelines
            with Failure msg | Invalid_argument msg ->
              Printf.eprintf "opprox loadgen: %s\n" msg;
              exit 2
          in
          ((fun () -> Client.loopback server), Server.apps server)
    in
    let apps = if apps <> [] then apps else default_apps in
    if apps = [] then begin
      Printf.eprintf "opprox loadgen: --socket needs at least one --app NAME\n";
      exit 2
    end;
    let keys =
      Array.of_list
        (List.concat_map
           (fun app ->
             List.map (fun budget -> { Loadgen.app; input = None; budget }) budgets)
           apps)
    in
    let cfg =
      {
        Loadgen.requests;
        rate;
        conns;
        tail = (match tail with `Exp -> Loadgen.Exponential | `Pareto -> Loadgen.Pareto alpha);
        zipf;
        offgrid;
        seed;
        deadline_ms;
      }
    in
    match Loadgen.run ~connect ~keys cfg with
    | report -> Format.printf "%a@." Loadgen.pp report
    | exception Invalid_argument msg ->
        Printf.eprintf "opprox loadgen: %s\n" msg;
        exit 2
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Open-loop load generator: a seeded schedule of heavy-tailed, Zipf-skewed plan \
          requests fired at a daemon (or an in-process loopback server), reporting \
          p50/p99/p999 latency from intended arrival, shed rate, and the \
          corpus/nn/cache/solved breakdown.")
    Term.(
      const run $ jobs_arg $ obs_arg $ socket_arg $ loopback_models_arg $ corpus_arg
      $ apps_arg $ budgets_arg $ requests_arg $ rate_arg $ conns_arg $ tail_arg $ alpha_arg
      $ zipf_arg $ offgrid_arg $ seed_arg $ deadline_arg $ verbose_arg)

(* --------------------------------------------------------------- request *)

let request_cmd =
  let app_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"APP" ~doc:"Application to request a plan for.")
  in
  let input_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "input" ] ~docv:"CSV"
          ~doc:"Input parameter vector, comma-separated (default: the app's default input).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Reply-by deadline for this request.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Bypass the server's plan-cache lookup (the solve still populates it).")
  in
  let hash_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "models-hash" ] ~docv:"MD5"
          ~doc:"Assert the server's models match this hash ($(b,SRV003) error on mismatch).")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:"Send every request in $(docv) (an s-expression list of request records) \
                over one connection instead of building one from the flags.")
  in
  let sexp_arg =
    Arg.(
      value & flag
      & info [ "sexp" ] ~doc:"Print each reply as its wire s-expression instead of a table.")
  in
  let malformed_arg =
    Arg.(
      value & flag
      & info [ "malformed" ]
          ~doc:"Send a deliberately undecodable frame and print the server's reply — \
                exercises the $(b,SRV004) path (needs $(b,--socket)).")
  in
  let loopback_models_arg =
    Arg.(
      value
      & opt_all file []
      & info [ "models" ] ~docv:"FILE"
          ~doc:"Without $(b,--socket): answer in-process from these trained pipelines \
                (the loopback transport the tests use).")
  in
  let print_response ~sexp_out (resp : Protocol.response) =
    if sexp_out then print_endline (Opprox_util.Sexp.to_string (Protocol.response_to_sexp resp));
    match resp with
    | Protocol.Plan { plan; cache; models_hash; elapsed_ms } ->
        Printf.printf "source: %s  (%.2f ms, models %s)\n"
          (Protocol.cache_source_string cache)
          elapsed_ms models_hash;
        if not sexp_out then print_plan_table ~budget:plan.Opprox.Optimizer.budget plan;
        true
    | Protocol.Error diags ->
        Format.eprintf "request rejected:@.%a@." Opprox_analysis.Diagnostic.pp_list diags;
        false
    | Protocol.Timeout { elapsed_ms; deadline_ms } ->
        Printf.eprintf "request timed out: %.2f ms elapsed, %.2f ms deadline\n" elapsed_ms
          deadline_ms;
        false
    | Protocol.Overloaded { inflight; limit } ->
        Printf.eprintf "server overloaded: %d in flight, limit %d\n" inflight limit;
        false
    | Protocol.PlanDelta _ ->
        (* Plan requests never get a delta; only telemetry frames do. *)
        Printf.eprintf "unexpected plan-delta reply to a plan request\n";
        false
  in
  let run () () socket app input budget deadline_ms no_cache models_hash batch sexp_out
      malformed loopback_models verbose =
    setup_logs verbose;
    let client =
      match (socket, loopback_models) with
      | Some path, _ -> (
          try Client.connect ~socket:path
          with Unix.Unix_error (err, _, _) ->
            Printf.eprintf "opprox request: cannot connect to %s: %s\n" path
              (Unix.error_message err);
            exit 2)
      | None, [] ->
          Printf.eprintf "opprox request: need --socket PATH or --models FILE\n";
          exit 2
      | None, models ->
          let pipelines =
            List.map (fun p -> Opprox.load ~resolve:Opprox_apps.Registry.find p) models
          in
          Client.loopback (Server.create pipelines)
    in
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        let requests =
          if malformed then []
          else
            match batch with
            | Some path -> (
                match
                  List.map Protocol.request_of_sexp
                    (Opprox_util.Sexp.to_list (Opprox_util.Sexp.load path))
                with
                | reqs -> reqs
                | exception Failure msg ->
                    Printf.eprintf "opprox request: cannot load %s: %s\n" path msg;
                    exit 2)
            | None -> (
                match app with
                | None ->
                    Printf.eprintf "opprox request: need APP or --batch FILE\n";
                    exit 2
                | Some app ->
                    [
                      Protocol.request ?input:(Option.map Array.of_list input) ?deadline_ms
                        ?models_hash ~no_cache ~app ~budget ();
                    ])
        in
        let ok =
          if malformed then (
            match Client.send_raw client "((v 1) (app" with
            | resp -> print_response ~sexp_out resp
            | exception Failure msg ->
                Printf.eprintf "opprox request: %s\n" msg;
                false)
          else
            (* One pipelined batch over the one connection: every frame is
               written, then every reply read, so a batch costs one
               round-trip — and each reply reports its own cache source. *)
            match Client.batch client requests with
            | resps -> List.fold_left (fun acc r -> print_response ~sexp_out r && acc) true resps
            | exception Failure msg ->
                Printf.eprintf "opprox request: %s\n" msg;
                false
        in
        if not ok then exit 1)
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Ask a running $(b,opprox serve) daemon (or an in-process loopback server) for a \
          plan.  Exit status 0 only when every reply is a plan.")
    Term.(
      const run $ jobs_arg $ obs_arg $ socket_arg $ app_opt_arg $ input_arg
      $ budget_arg $ deadline_arg $ no_cache_arg $ hash_arg $ batch_arg $ sexp_arg
      $ malformed_arg $ loopback_models_arg $ verbose_arg)

let () =
  let doc = "phase-aware optimization of approximate programs (OPPROX, CGO 2017)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "opprox" ~doc)
          [
            list_cmd;
            probe_cmd;
            train_cmd;
            optimize_cmd;
            run_cmd;
            search_cmd;
            submit_cmd;
            oracle_cmd;
            check_cmd;
            stats_cmd;
            precompute_cmd;
            serve_cmd;
            request_cmd;
            loadgen_cmd;
          ]))
