(* One function per paper table/figure (see DESIGN.md's experiment index).
   Each prints the same rows/series the paper reports, preceded by the
   expected qualitative shape. *)

open Harness
module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Ab = Opprox_sim.Ab
module Training = Opprox.Training
module Models = Opprox.Models

(* ------------------------------------------------------------------ fig2 *)

let fig2 () =
  section "Fig. 2 — LULESH: speedup and QoS degradation vs approximation level";
  print_endline "Expected shape: both speedup and error increase with the level.";
  let app = find_app "lulesh" in
  let t = Table.create [ "level (all ABs)"; "speedup"; "qos degradation %"; "outer iters" ] in
  let max_levels = App.max_levels app in
  for level = 0 to 5 do
    let levels = Array.map (fun m -> Stdlib.min level m) max_levels in
    let ev = evaluate app (Schedule.uniform ~n_phases:1 levels) in
    Table.add_row t
      [
        string_of_int level;
        fmt "%.3f" ev.Driver.speedup;
        fmt "%.2f" ev.Driver.qos_degradation;
        string_of_int ev.Driver.outer_iters;
      ]
  done;
  print_table t

(* ------------------------------------------------------------------ fig3 *)

let fig3 () =
  section "Fig. 3 — LULESH: outer-loop iteration count varies with the ALs";
  print_endline "Expected shape: approximation can increase the iteration count";
  print_endline "(the paper observed 921 exact vs up to 965 approximate).";
  let app = find_app "lulesh" in
  let exact = Driver.run_exact ~memo app (default_input app) in
  let configs = probe_set app in
  let t = Table.create [ "configuration"; "outer iters"; "vs exact" ] in
  Table.add_row t [ "exact"; string_of_int exact.Driver.iters; "-" ];
  Array.iter
    (fun levels ->
      let ev = evaluate app (Schedule.uniform ~n_phases:1 levels) in
      Table.add_row t
        [
          fmt "[%s]" (String.concat ";" (Array.to_list (Array.map string_of_int levels)));
          string_of_int ev.Driver.outer_iters;
          fmt "%+d" (ev.Driver.outer_iters - exact.Driver.iters);
        ])
    configs;
  print_table t

(* ---------------------------------------------------------------- fig4_5 *)

let phase_table ?(n_phases = 4) app =
  let configs = probe_set app in
  (* Scatter: one x-segment per phase (plus "All"), deterministic jitter
     inside the segment so points do not overprint. *)
  let scatter_points extract =
    Array.of_list
      (List.concat
         (List.init (n_phases + 1) (fun phase ->
              let _, _, qs, ss = phase_profile app ~n_phases configs phase in
              let values = extract (qs, ss) in
              Array.to_list
                (Array.mapi
                   (fun i v ->
                     let jitter = 0.8 *. float_of_int i /. float_of_int (Array.length values) in
                     (float_of_int phase +. 0.1 +. jitter, v))
                   values))))
  in
  let t =
    Table.create
      ([ "segment" ]
      @ [ "mean qos %"; "min qos %"; "max qos %"; "mean speedup"; "min S"; "max S" ])
  in
  for phase = 0 to n_phases do
    let label = if phase >= n_phases then "All" else fmt "phase-%d" (phase + 1) in
    let mean_q, mean_s, qs, ss = phase_profile app ~n_phases configs phase in
    Table.add_row t
      [
        label;
        fmt "%.2f" mean_q;
        fmt "%.2f" (Stats.min qs);
        fmt "%.2f" (Stats.max qs);
        fmt "%.3f" mean_s;
        fmt "%.3f" (Stats.min ss);
        fmt "%.3f" (Stats.max ss);
      ]
  done;
  print_table t;
  Plot.print ~height:12 ~x_label:"phase segment (last = All)" ~y_label:"qos degradation %"
    [ Plot.series "configs" (scatter_points fst) ];
  Plot.print ~height:10 ~x_label:"phase segment (last = All)" ~y_label:"speedup"
    [ Plot.series ~glyph:'x' "configs" (scatter_points snd) ];
  print_newline ()

let fig4_5 () =
  section "Figs. 4 & 5 — LULESH: phase-specific QoS degradation and speedup";
  print_endline "Expected shape: QoS degradation falls sharply from phase 1 to";
  print_endline "phase 4; speedup varies much less across phases.";
  phase_table (find_app "lulesh")

(* ------------------------------------------------------------------ fig7 *)

let fig7 () =
  section "Fig. 7 — FFmpeg: filter order changes the QoS degradation";
  print_endline "Expected shape: swapping the edge and deflate filters produces";
  print_endline "visibly different PSNR for the same approximation setting.";
  let app = find_app "ffmpeg" in
  let t = Table.create [ "filter order"; "AL setting"; "PSNR (dB)"; "qos %" ] in
  List.iter
    (fun levels ->
      List.iter
        (fun (label, order) ->
          let input = [| 24.0; 4.0; 6.0; order |] in
          let ev = Driver.evaluate ~memo app (Schedule.uniform ~n_phases:1 levels) input in
          Table.add_row t
            [
              label;
              fmt "[%s]" (String.concat ";" (Array.to_list (Array.map string_of_int levels)));
              (match ev.Driver.psnr with Some p -> fmt "%.2f" p | None -> "-");
              fmt "%.2f" ev.Driver.qos_degradation;
            ])
        [ ("edge->deflate", 0.0); ("deflate->edge", 1.0) ])
    [ [| 2; 2; 2 |]; [| 4; 4; 4 |] ];
  print_table t

(* ------------------------------------------------------------- fig9 / 10 *)

let fig9 () =
  section "Fig. 9 — phase-specific QoS degradation (CoMD, PSO, Bodytrack, FFmpeg)";
  print_endline "Expected shape: degradation decreases for later phases; the";
  print_endline "first phase is comparable to approximating the whole run.";
  List.iter
    (fun name ->
      print_newline ();
      print_endline ("-- " ^ name);
      phase_table (find_app name))
    [ "comd"; "pso"; "bodytrack"; "ffmpeg" ]

let fig10 () =
  section "Fig. 10 — phase-specific speedup (CoMD, PSO, Bodytrack, FFmpeg)";
  print_endline "Expected shape: speedup approximately phase-insensitive for";
  print_endline "CoMD/Bodytrack/FFmpeg; PSO's convergence loop reacts to phase.";
  (* Same profile as fig9 (one table carries both views, as in phase_table). *)
  List.iter
    (fun name ->
      print_newline ();
      print_endline ("-- " ^ name);
      phase_table (find_app name))
    [ "comd"; "pso"; "bodytrack"; "ffmpeg" ]

(* ----------------------------------------------------------------- fig11 *)

let fig11 () =
  section "Fig. 11 — QoS degradation with the execution divided into 2/4/8 phases";
  print_endline "Expected shape: 2 and 4 phases separate cleanly; at 8 phases the";
  print_endline "distinction between consecutive phases blurs.";
  List.iter
    (fun name ->
      let app = find_app name in
      print_newline ();
      print_endline ("-- " ^ name);
      List.iter
        (fun n_phases ->
          let configs = probe_set app in
          let t =
            Table.create
              ([ fmt "%d phases" n_phases ] @ List.init n_phases (fun p -> fmt "ph%d" (p + 1)))
          in
          let means =
            List.init n_phases (fun phase ->
                let mean_q, _, _, _ = phase_profile app ~n_phases configs phase in
                fmt "%.2f" mean_q)
          in
          Table.add_row t ("mean qos %" :: means);
          print_table t)
        [ 2; 4; 8 ])
    [ "bodytrack"; "lulesh" ]

(* ------------------------------------------------------------- fig12 / 13 *)

let split_training (training : Training.t) =
  let rng = Rng.create 0x5EED in
  let samples = Array.copy training.Training.samples in
  Rng.shuffle rng samples;
  let half = Array.length samples / 2 in
  ( { training with Training.samples = Array.sub samples 0 half },
    Array.sub samples half (Array.length samples - half) )

let prediction_quality () =
  List.map
    (fun app ->
      let tr = trained app in
      let train_half, test_half = split_training tr.Opprox.training in
      let models = Models.build train_half in
      let actual_q = ref [] and pred_q = ref [] in
      let actual_s = ref [] and pred_s = ref [] in
      Array.iter
        (fun (s : Training.sample) ->
          let p = Models.predict models ~input:s.input ~phase:s.phase ~levels:s.levels in
          actual_q := s.qos :: !actual_q;
          pred_q := p.Models.qos :: !pred_q;
          actual_s := s.speedup :: !actual_s;
          pred_s := p.Models.speedup :: !pred_s)
        test_half;
      let arr l = Array.of_list !l in
      (app, arr actual_q, arr pred_q, arr actual_s, arr pred_s))
    apps

let quality_row (app : App.t) actual predicted =
  [
    app.App.name;
    fmt "%.3f" (Stats.r2_score ~actual ~predicted);
    fmt "%.3f" (Stats.mae ~actual ~predicted);
    fmt "%.3f" (Stats.pearson actual predicted);
    string_of_int (Array.length actual);
  ]

let quality = lazy (prediction_quality ())

let prediction_scatter actual predicted =
  (* Diagonal reference drawn as its own series. *)
  let points = Array.map2 (fun a p -> (a, p)) actual predicted in
  let lo = Stats.min actual and hi = Stats.max actual in
  let diagonal =
    Array.init 40 (fun i ->
        let v = lo +. ((hi -. lo) *. float_of_int i /. 39.0) in
        (v, v))
  in
  [ Plot.series ~glyph:'.' "perfect prediction" diagonal; Plot.series "test points" points ]

let fig12 () =
  section "Fig. 12 — prediction of QoS degradation (held-out half)";
  print_endline "Expected shape: points close to the diagonal; R2 high for most";
  print_endline "applications (PSO is the noisiest).";
  let t = Table.create [ "app"; "R2"; "MAE"; "pearson"; "test points" ] in
  List.iter (fun (app, aq, pq, _, _) -> Table.add_row t (quality_row app aq pq)) (Lazy.force quality);
  print_table t;
  List.iter
    (fun ((app : App.t), aq, pq, _, _) ->
      Plot.print ~height:12 ~x_label:(app.App.name ^ ": actual qos %") ~y_label:"predicted"
        (prediction_scatter aq pq))
    (Lazy.force quality)

let fig13 () =
  section "Fig. 13 — prediction of speedup (held-out half)";
  print_endline "Expected shape: speedup models are accurate for all applications.";
  let t = Table.create [ "app"; "R2"; "MAE"; "pearson"; "test points" ] in
  List.iter (fun (app, _, _, as_, ps) -> Table.add_row t (quality_row app as_ ps)) (Lazy.force quality);
  print_table t;
  List.iter
    (fun ((app : App.t), _, _, as_, ps) ->
      Plot.print ~height:12 ~x_label:(app.App.name ^ ": actual speedup") ~y_label:"predicted"
        (prediction_scatter as_ ps))
    (Lazy.force quality)

(* ----------------------------------------------------------------- fig14 *)

let fig14 () =
  section "Fig. 14 — OPPROX vs phase-agnostic baselines, per QoS budget";
  print_endline "Expected shape: OPPROX retains speedup at the small budget where";
  print_endline "the phase-agnostic oracle finds little or nothing; at the large";
  print_endline "budget the oracle becomes competitive (paper: avg 14% vs 2% work";
  print_endline "reduction at 5%; 42% vs 37% at 20%).  'N=1' is a Capri-like";
  print_endline "model-based phase-agnostic optimizer (our extra, realistic";
  print_endline "baseline; the oracle measures instead of predicting).";
  let t =
    Table.create
      [ "app (phases)"; "budget"; "OPPROX S"; "OPPROX qos %"; "N=1 S"; "N=1 qos %";
        "oracle S"; "oracle qos %" ]
  in
  let summary = Hashtbl.create 4 in
  List.iter
    (fun app ->
      let tr = trained app in
      let flat =
        (* The same pipeline restricted to a single phase: prior work's
           model-based proactive control (Capri). *)
        Opprox.train ~config:{ (train_config ()) with Opprox.n_phases = Some 1 } app
      in
      let n_phases = tr.Opprox.training.Training.n_phases in
      List.iter
        (fun (label, budget) ->
          let plan = Opprox.optimize tr ~budget in
          let outcome = Opprox.apply tr plan in
          let flat_outcome = Opprox.apply flat (Opprox.optimize flat ~budget) in
          let oracle = Opprox.run_oracle app ~budget in
          let o = oracle.Opprox.Oracle.evaluation in
          Table.add_row t
            [
              fmt "%s (%d)" app.App.name n_phases;
              budget_label app (label, budget);
              fmt "%.3f" outcome.Driver.speedup;
              fmt "%.2f" outcome.Driver.qos_degradation;
              fmt "%.3f" flat_outcome.Driver.speedup;
              fmt "%.2f" flat_outcome.Driver.qos_degradation;
              fmt "%.3f" o.Driver.speedup;
              fmt "%.2f" o.Driver.qos_degradation;
            ];
          let prev = try Hashtbl.find summary label with Not_found -> [] in
          Hashtbl.replace summary label
            ((outcome.Driver.speedup, flat_outcome.Driver.speedup, o.Driver.speedup) :: prev))
        (budgets_for app))
    apps;
  print_table t;
  let s =
    Table.create
      [ "budget"; "OPPROX mean S"; "N=1 mean S"; "oracle mean S";
        "OPPROX work cut %"; "N=1 work cut %"; "oracle work cut %" ]
  in
  List.iter
    (fun label ->
      match Hashtbl.find_opt summary label with
      | None -> ()
      | Some triples ->
          let col f = Array.of_list (List.map f triples) in
          let ours = col (fun (a, _, _) -> a) in
          let flats = col (fun (_, b, _) -> b) in
          let oracles = col (fun (_, _, c) -> c) in
          let work_cut arr =
            100.0 *. Stats.mean (Array.map (fun sp -> 1.0 -. (1.0 /. sp)) arr)
          in
          Table.add_row s
            [
              label;
              fmt "%.3f" (Stats.mean ours);
              fmt "%.3f" (Stats.mean flats);
              fmt "%.3f" (Stats.mean oracles);
              fmt "%.1f" (work_cut ours);
              fmt "%.1f" (work_cut flats);
              fmt "%.1f" (work_cut oracles);
            ])
    [ "small"; "medium"; "large" ];
  print_endline "Across the five applications:";
  print_table s

(* ----------------------------------------------------------------- fig15 *)

let fig15 () =
  section "Fig. 15 — phase-specific behaviour across input combinations";
  print_endline "Expected shape: the per-phase trend (declining QoS) is consistent";
  print_endline "across inputs, so phase-awareness is not input-specific.";
  List.iter
    (fun name ->
      let app = find_app name in
      print_newline ();
      print_endline ("-- " ^ name);
      let inputs =
        Array.to_list (Array.sub app.App.training_inputs 0 (Stdlib.min 4 (Array.length app.App.training_inputs)))
      in
      let t =
        Table.create
          ([ "input" ] @ List.init 4 (fun p -> fmt "ph%d qos%%" (p + 1))
          @ List.init 4 (fun p -> fmt "ph%d S" (p + 1)))
      in
      List.iter
        (fun input ->
          let configs = probe_set app in
          let cells =
            List.init 4 (fun phase ->
                let evs =
                  Pool.parallel_map ~chunk:1
                    (fun levels ->
                      Driver.evaluate ~memo app
                        (Schedule.single_phase_active ~n_phases:4 ~phase levels)
                        input)
                    configs
                in
                ( Stats.mean (Array.map (fun (e : Driver.evaluation) -> e.qos_degradation) evs),
                  Stats.mean (Array.map (fun (e : Driver.evaluation) -> e.speedup) evs) ))
          in
          Table.add_row t
            ([ fmt "[%s]" (String.concat ";" (Array.to_list (Array.map Table.fmt_float input))) ]
            @ List.map (fun (q, _) -> fmt "%.2f" q) cells
            @ List.map (fun (_, s) -> fmt "%.3f" s) cells))
        inputs;
      print_table t)
    [ "bodytrack"; "lulesh" ]

(* ------------------------------------------------------------------ tab1 *)

let tab1 () =
  section "Table 1 — applications, input parameters, techniques, search spaces";
  let t =
    Table.create
      ~aligns:[ Table.Left; Table.Left; Table.Left; Table.Right; Table.Right ]
      [ "app"; "input parameters"; "approx. techniques"; "joint configs"; "search space" ]
  in
  List.iter
    (fun (app : App.t) ->
      let techniques =
        List.sort_uniq compare
          (Array.to_list (Array.map (fun (ab : Ab.t) -> Ab.technique_name ab.technique) app.abs))
      in
      let joint = Opprox_sim.Config_space.count app.abs in
      let space =
        Opprox_sim.Config_space.phase_space_count app.abs ~n_phases:4
          ~n_inputs:(Array.length app.training_inputs)
      in
      Table.add_row t
        [
          app.name;
          String.concat ", " (Array.to_list app.param_names);
          String.concat ", " techniques;
          string_of_int joint;
          string_of_int space;
        ])
    apps;
  print_table t

(* ------------------------------------------------------------------ tab2 *)

let tab2 () =
  section "Table 2 — training and optimization time vs phase granularity";
  print_endline "Expected shape: both grow with the number of phases (training";
  print_endline "superlinearly: the sampling plan is proportional to N).";
  let t =
    Table.create
      [ "app"; "N=1 train s"; "N=2 train s"; "N=4 train s"; "N=8 train s";
        "N=1 opt s"; "N=2 opt s"; "N=4 opt s"; "N=8 opt s" ]
  in
  let phase_counts = [ 1; 2; 4; 8 ] in
  List.iter
    (fun (app : App.t) ->
      let cells =
        List.map
          (fun n ->
            let config =
              {
                (train_config ()) with
                Opprox.n_phases = Some n;
                training =
                  { Training.default_config with joint_samples_per_phase = (if !quick then 4 else 8) };
              }
            in
            let tr, train_time = timed (fun () -> Opprox.train ~config app) in
            let _, opt_time = timed (fun () -> Opprox.optimize tr ~budget:10.0) in
            (train_time, opt_time))
          phase_counts
      in
      Table.add_row t
        ((app.name :: List.map (fun (tt, _) -> fmt "%.1f" tt) cells)
        @ List.map (fun (_, ot) -> fmt "%.3f" ot) cells))
    apps;
  print_table t

(* -------------------------------------------------------------- ablations *)

let ablate_roi () =
  section "Ablation — ROI-proportional vs uniform budget allocation";
  print_endline "DESIGN.md: ROI decides which phases receive leftover budget first.";
  print_endline "With sweep redistribution both splits converge to similar plans;";
  print_endline "differences show up as threshold effects at tight budgets.";
  let t =
    Table.create [ "app"; "budget %"; "ROI-split speedup"; "uniform-split speedup" ]
  in
  List.iter
    (fun name ->
      let app = find_app name in
      let tr = trained app in
      let n = tr.Opprox.training.Training.n_phases in
      List.iter
        (fun budget ->
          let plan_roi = Opprox.optimize tr ~budget in
          let uniform_roi = Array.make n 1.0 in
          let plan_uniform =
            Opprox.Optimizer.optimize ~models:tr.Opprox.models ~roi:uniform_roi
              ~input:(default_input app) ~budget ()
          in
          let s_roi = (Opprox.apply tr plan_roi).Driver.speedup in
          let s_uni = (Opprox.apply tr plan_uniform).Driver.speedup in
          Table.add_row t
            [ name; fmt "%.0f" budget; fmt "%.3f" s_roi; fmt "%.3f" s_uni ])
        [ 5.0; 10.0 ])
    [ "comd"; "lulesh" ];
  print_table t

let ablate_ci () =
  section "Ablation — conservative confidence intervals";
  print_endline "DESIGN.md: the optimizer uses upper-CI QoS / lower-CI speedup; with";
  print_endline "CIs disabled the plans get faster but risk budget violations.";
  let t =
    Table.create
      [ "app"; "budget %"; "with CI: S / qos"; "violation"; "no CI: S / qos"; "violation" ]
  in
  List.iter
    (fun name ->
      let app = find_app name in
      let tr = trained app in
      let no_ci_models =
        Models.build
          ~config:{ Models.default_config with ci_p = 0.0 }
          tr.Opprox.training
      in
      List.iter
        (fun budget ->
          let run models =
            let plan =
              Opprox.Optimizer.optimize ~models ~roi:tr.Opprox.roi
                ~input:(default_input app) ~budget ()
            in
            Driver.evaluate ~memo app plan.Opprox.Optimizer.schedule (default_input app)
          in
          let with_ci = run tr.Opprox.models in
          let without = run no_ci_models in
          let cell (e : Driver.evaluation) = fmt "%.3f / %.2f" e.speedup e.qos_degradation in
          let violated (e : Driver.evaluation) = if e.qos_degradation > budget then "YES" else "no" in
          Table.add_row t
            [ name; fmt "%.0f" budget; cell with_ci; violated with_ci; cell without; violated without ])
        [ 5.0; 10.0 ])
    [ "lulesh"; "bodytrack" ];
  print_table t

let ablate_mic () =
  section "Ablation — MIC feature screening";
  print_endline "DESIGN.md: screening uninformative features should not hurt (and";
  print_endline "usually helps) model quality.";
  let t = Table.create [ "app"; "qos R2 with MIC"; "qos R2 without"; "speedup R2 with"; "without" ] in
  List.iter
    (fun name ->
      let app = find_app name in
      let tr = trained app in
      let with_mic = tr.Opprox.models in
      let without =
        Models.build
          ~config:
            {
              Models.default_config with
              regression = { Opprox_ml.Polyreg.default_config with mic_threshold = None };
            }
          tr.Opprox.training
      in
      Table.add_row t
        [
          name;
          fmt "%.3f" (Models.qos_r2 with_mic);
          fmt "%.3f" (Models.qos_r2 without);
          fmt "%.3f" (Models.speedup_r2 with_mic);
          fmt "%.3f" (Models.speedup_r2 without);
        ])
    [ "lulesh"; "comd" ];
  print_table t

let ablate_phase_count () =
  section "Ablation — value of phase-awareness (1 vs 2 vs 4 phases)";
  print_endline "N=1 is the phase-agnostic degenerate case of OPPROX itself.";
  let t = Table.create [ "app"; "budget %"; "N=1 speedup"; "N=2 speedup"; "N=4 speedup" ] in
  List.iter
    (fun name ->
      let app = find_app name in
      List.iter
        (fun budget ->
          let cells =
            List.map
              (fun n ->
                let config = { (train_config ()) with Opprox.n_phases = Some n } in
                let tr = Opprox.train ~config app in
                let plan = Opprox.optimize tr ~budget in
                fmt "%.3f" (Opprox.apply tr plan).Driver.speedup)
              [ 1; 2; 4 ]
          in
          Table.add_row t ([ name; fmt "%.0f" budget ] @ cells))
        [ 10.0 ])
    [ "comd" ];
  print_table t

let ablate_model () =
  section "Ablation — polynomial regression vs M5-style regression tree";
  print_endline "Capri (ASPLOS 2016) models accuracy/performance with Quinlan's M5;";
  print_endline "OPPROX uses polynomial regression.  Held-out R2 of both model";
  print_endline "types on the same training data:";
  let t =
    Table.create
      [ "app"; "target"; "polyreg R2"; "regtree R2" ]
  in
  List.iter
    (fun name ->
      let app = find_app name in
      let tr = trained app in
      let train_half, test_half = split_training tr.Opprox.training in
      (* Flat feature encoding shared by both model types: levels ++ input
         parameters ++ phase index. *)
      let features (s : Training.sample) =
        Array.concat
          [ Array.map float_of_int s.levels; s.input; [| float_of_int s.phase |] ]
      in
      let train_x = Array.map features train_half.Training.samples in
      let test_x = Array.map features test_half in
      List.iter
        (fun (target_name, target_of) ->
          let train_y = Array.map target_of train_half.Training.samples in
          let test_y = Array.map target_of test_half in
          let rng = Rng.create 0xAB1A in
          let poly = Opprox_ml.Polyreg.fit ~rng train_x train_y in
          let tree = Opprox_ml.Regtree.fit train_x train_y in
          let r2 predict =
            Stats.r2_score ~actual:test_y ~predicted:(Array.map predict test_x)
          in
          Table.add_row t
            [
              name;
              target_name;
              fmt "%.3f" (r2 (Opprox_ml.Polyreg.predict poly));
              fmt "%.3f" (r2 (Opprox_ml.Regtree.predict tree));
            ])
        [ ("qos", (fun (s : Training.sample) -> s.qos));
          ("speedup", fun (s : Training.sample) -> s.speedup) ])
    [ "lulesh"; "comd" ];
  print_table t

(* -------------------------------------------------------------- registry *)

let all : (string * string * (unit -> unit)) list =
  [
    ("tab1", "Table 1: applications and search spaces", tab1);
    ("fig2", "Fig 2: LULESH level sweep", fig2);
    ("fig3", "Fig 3: LULESH iteration variation", fig3);
    ("fig4_5", "Figs 4/5: LULESH phase profiles", fig4_5);
    ("fig7", "Fig 7: FFmpeg filter order", fig7);
    ("fig9", "Fig 9: phase QoS profiles", fig9);
    ("fig10", "Fig 10: phase speedup profiles", fig10);
    ("fig11", "Fig 11: phase granularity", fig11);
    ("fig12", "Fig 12: QoS prediction quality", fig12);
    ("fig13", "Fig 13: speedup prediction quality", fig13);
    ("fig14", "Fig 14: OPPROX vs phase-agnostic oracle", fig14);
    ("fig15", "Fig 15: per-input phase behaviour", fig15);
    ("tab2", "Table 2: training/optimization time vs phases", tab2);
    ("ablate_roi", "Ablation: ROI budget split", ablate_roi);
    ("ablate_ci", "Ablation: confidence intervals", ablate_ci);
    ("ablate_mic", "Ablation: MIC screening", ablate_mic);
    ("ablate_phases", "Ablation: phase count", ablate_phase_count);
    ("ablate_model", "Ablation: polynomial regression vs regression tree", ablate_model);
  ]
