(* Regenerates the committed lint fixtures under test/fixtures/.

   Usage: dune exec test/gen_fixtures.exe [-- DIR]

   Produces one clean trained-pipeline artifact plus four corrupted
   variants, each seeded with exactly one defect that `opprox check`
   must flag with a documented rule code:

     trained_kmeans.sexp        clean baseline            (exit 0)
     corrupt_nan_coeff.sexp     NaN coefficient           MODEL001
     corrupt_inverted_ci.sexp   negative CI half-width    MODEL003
     corrupt_level_range.sexp   schedule level 99         SCHED003
     corrupt_ragged.sexp        ragged schedule rows      SCHED001

   plus plans_kmeans.txt, the plans the optimizer derives from the clean
   artifact: one block per (input, first_phase, budget), each the
   [Optimizer.plan_to_sexp] text of one solve.  Any change to the
   solver's or the predictor's arithmetic shows up as a diff there.

   app_runs.txt pins the simulated applications themselves: every
   registered app on its default input and one other training input,
   under the exact schedule, every AB at its maximum level, and each
   two-phase single-phase-active schedule at maximum levels.  Each run
   prints its output floats in hex (a digest of them past 512), its work, per-AB work, outer
   iterations, trace length and control-flow signature, so any drift in a
   kernel's arithmetic or its work accounting shows up as a diff there.

   The corruptions are sexp surgery on the clean artifact rather than
   hand-written files, so the fixtures track the serialization format
   for free whenever it changes — just rerun this program. *)

module Sexp = Opprox_util.Sexp

(* Rewrite every record field called [name] anywhere in a sexp tree. *)
let rec rewrite_field name f = function
  | Sexp.List [ Sexp.Atom n; v ] when n = name -> Sexp.List [ Sexp.Atom n; f v ]
  | Sexp.List items -> Sexp.List (List.map (rewrite_field name f) items)
  | atom -> atom

let schedule_sexp rows =
  Sexp.record [ ("levels", Sexp.list (List.map Sexp.int_array (Array.to_list rows))) ]

(* Budgets 0, 0.25, ..., 30 on the default input, solved from every
   [first_phase] in 0..n_phases through one reused solver (the full solve
   is [first_phase] 0); a coarser grid on each other training input,
   which the control-flow classifier may route to another model class;
   and, since the fixture's wide intervals keep most plans under 30%
   exact, budgets 40, 80, ..., 600 on every input and [first_phase]. *)
let save_plans path trained_path =
  let trained = Opprox.load ~resolve:Opprox_apps.Registry.find trained_path in
  let models = trained.Opprox.models in
  let n_phases = Opprox.Models.n_phases models in
  let default = trained.Opprox.app.Opprox_sim.App.default_input in
  let inputs =
    List.sort_uniq compare (Array.to_list trained.Opprox.app.Opprox_sim.App.training_inputs)
  in
  let oc = open_out_bin path in
  let emit input first_phase budgets =
    let solve = Opprox.Optimizer.solver ~models ~roi:trained.Opprox.roi ~input () in
    List.iter
      (fun budget ->
        Printf.fprintf oc "; input %s first_phase %d budget %g\n%s\n"
          (String.concat "," (List.map (Printf.sprintf "%g") (Array.to_list input)))
          first_phase budget
          (Sexp.to_string (Opprox.Optimizer.plan_to_sexp (solve ~first_phase ~budget ()))))
      budgets
  in
  let grid ~step ~from ~upto =
    List.init
      (int_of_float ((upto -. from) /. step) + 1)
      (fun i -> from +. (float_of_int i *. step))
  in
  for first_phase = 0 to n_phases do
    emit default first_phase (grid ~step:0.25 ~from:0.0 ~upto:30.0)
  done;
  List.iter
    (fun input -> if input <> default then emit input 0 (grid ~step:2.5 ~from:0.0 ~upto:30.0))
    inputs;
  List.iter
    (fun input ->
      for first_phase = 0 to n_phases do
        emit input first_phase (grid ~step:40.0 ~from:40.0 ~upto:600.0)
      done)
    inputs;
  close_out oc

(* One scratch run per schedule, as [Driver.evaluate] would make it
   without checkpoints: the exact run's seed, and its iteration count for
   the phase map. *)
let save_app_runs path =
  let module App = Opprox_sim.App in
  let module Schedule = Opprox_sim.Schedule in
  let module Env = Opprox_sim.Env in
  let module Driver = Opprox_sim.Driver in
  let oc = open_out_bin path in
  let ints a = String.concat "," (List.map string_of_int a) in
  (* ffmpeg's output is whole frames (38,400 floats a run): long
     outputs are pinned by the MD5 of their hex text instead, which keeps
     the file reviewable and is just as strict. *)
  let hex_floats output =
    let text = String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list output)) in
    if Array.length output <= 512 then text
    else
      Printf.sprintf "%d floats, md5 %s" (Array.length output)
        (Digest.to_hex (Digest.string text))
  in
  let run (app : App.t) input label sched ~expected_iters =
    let env =
      Env.create
        ~rng:(Opprox_util.Rng.create (Driver.seed_for app input))
        ~sched ~expected_iters ~n_abs:(App.n_abs app)
    in
    let output = app.run env input in
    let trace = Env.trace env in
    Printf.fprintf oc
      "; %s input %s sched %s\nwork %d\nwork_per_ab %s\nouter_iters %d\n\
       trace_length %d\nsignature %s\noutput %s\n"
      app.name
      (String.concat "," (List.map (Printf.sprintf "%g") (Array.to_list input)))
      label (Env.total_work env)
      (ints (List.init (App.n_abs app) (Env.work_of_ab env)))
      (Env.outer_iters env) (List.length trace)
      (ints (Opprox.Cfmodel.signature_of_trace trace))
      (hex_floats output);
    Env.outer_iters env
  in
  List.iter
    (fun (app : App.t) ->
      let other =
        List.find
          (fun i -> i <> app.default_input)
          (Array.to_list app.training_inputs)
      in
      List.iter
        (fun input ->
          let max_levels = App.max_levels app in
          let i_total =
            run app input "exact" (Schedule.exact ~n_abs:(App.n_abs app)) ~expected_iters:0
          in
          ignore
            (run app input "max" (Schedule.uniform ~n_phases:1 max_levels)
               ~expected_iters:i_total);
          for phase = 0 to 1 do
            ignore
              (run app input
                 (Printf.sprintf "phase%d/2" phase)
                 (Schedule.single_phase_active ~n_phases:2 ~phase max_levels)
                 ~expected_iters:i_total)
          done)
        [ app.default_input; other ])
    (Opprox_apps.Registry.all ());
  close_out oc

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/fixtures" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let save name sexp = Sexp.save (Filename.concat dir name) sexp in
  (* A small but real training run: kmeans is the cheapest registered app,
     and two phases keep the artifact reviewable while still exercising
     the per-phase model tables the checker audits. *)
  let app = Opprox_apps.Registry.find "kmeans" in
  let config =
    {
      Opprox.default_train_config with
      n_phases = Some 2;
      training =
        { Opprox.default_train_config.training with joint_samples_per_phase = 8 };
    }
  in
  let trained = Opprox.train ~config app in
  Opprox.save (Filename.concat dir "trained_kmeans.sexp") trained;
  let clean = Sexp.load (Filename.concat dir "trained_kmeans.sexp") in
  save "corrupt_nan_coeff.sexp"
    (rewrite_field "weights"
       (fun v ->
         let w = Sexp.to_float_array v in
         if Array.length w > 0 then w.(0) <- Float.nan;
         Sexp.float_array w)
       clean);
  save "corrupt_inverted_ci.sexp"
    (rewrite_field "qos_ci" (fun _ -> Sexp.float (-0.5)) clean);
  (* Schedule fixtures are built directly: Schedule.make refuses ragged
     input, which is exactly why the ragged one must exist on disk. *)
  save "corrupt_level_range.sexp" (schedule_sexp [| [| 99; 0; 0 |]; [| 1; 0; 0 |] |]);
  save "corrupt_ragged.sexp"
    (Sexp.record
       [ ("levels", Sexp.list [ Sexp.int_array [| 1; 0 |]; Sexp.int_array [| 1 |] ]) ]);
  save_plans (Filename.concat dir "plans_kmeans.txt") (Filename.concat dir "trained_kmeans.sexp");
  save_app_runs (Filename.concat dir "app_runs.txt");
  Printf.printf "wrote 7 fixtures to %s/\n" dir
