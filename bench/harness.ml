(* Shared infrastructure for the experiment harness: the application list,
   per-app budget protocol, and a cache of trained OPPROX pipelines so
   experiments that need the same offline stage (figs. 12-14, table 2)
   do not retrain. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Qos = Opprox_sim.Qos
module Config_space = Opprox_sim.Config_space
module Table = Opprox_util.Table
module Plot = Opprox_util.Plot
module Rng = Opprox_util.Rng
module Stats = Opprox_util.Stats
module Pool = Opprox_util.Pool

let apps = Opprox_apps.Registry.paper
let find_app = Opprox_apps.Registry.find

(* Quick mode: fewer samples everywhere; used by CI-style runs. *)
let quick = ref false

(* When set, every printed table is also written to <dir>/<experiment>_<n>.csv. *)
let csv_dir : string option ref = ref None
let current_experiment = ref "experiment"
let csv_counter = ref 0

let print_table ?title t =
  Table.print ?title t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      incr csv_counter;
      let path = Filename.concat dir (Printf.sprintf "%s_%d.csv" !current_experiment !csv_counter) in
      let oc = open_out path in
      output_string oc (Table.to_csv t);
      close_out oc

let joint_samples () = if !quick then 6 else 12
let probe_configs () = if !quick then 6 else 14

(* Budget protocol (paper Sec. 5.3): 5/10/20 % QoS degradation for the
   distortion-metric applications; PSNR targets 30/20/10 dB for FFmpeg,
   mapped onto the uniform degradation scale. *)
let budgets_for (app : App.t) =
  match app.report_metric with
  | App.Distortion -> [ ("small", 5.0); ("medium", 10.0); ("large", 20.0) ]
  | App.Psnr ->
      List.map
        (fun (label, psnr) -> (label, Qos.psnr_to_degradation psnr))
        [ ("small", 30.0); ("medium", 20.0); ("large", 10.0) ]

let budget_label (app : App.t) (label, budget) =
  match app.report_metric with
  | App.Distortion -> Printf.sprintf "%s (%.0f%%)" label budget
  | App.Psnr -> Printf.sprintf "%s (%.0f dB)" label (Qos.degradation_to_psnr budget)

(* ------------------------------------------------- trained-pipeline cache *)

let trained_cache : (string, Opprox.trained) Hashtbl.t = Hashtbl.create 8

let train_config () =
  {
    Opprox.default_train_config with
    training = { Opprox.Training.default_config with joint_samples_per_phase = joint_samples () };
  }

let trained app =
  let name = app.App.name in
  match Hashtbl.find_opt trained_cache name with
  | Some t -> t
  | None ->
      let t = Opprox.train ~config:(train_config ()) app in
      Hashtbl.replace trained_cache name t;
      t

(* ------------------------------------------------------------- utilities *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let default_input (app : App.t) = app.App.default_input

(* One simulation memo for the whole harness run: experiments re-evaluate
   the same deterministic schedules across tables and figures. *)
let memo = Driver.memo ()

let evaluate app sched = Driver.evaluate ~memo app sched (default_input app)

(* Random probe configurations shared across phases of one experiment so
   per-phase numbers are directly comparable (same settings, different
   placement). *)
let probe_set ?(seed = 0xBE7C) app =
  let rng = Rng.create seed in
  Array.init (probe_configs ()) (fun _ -> Config_space.random_nonzero rng app.App.abs)

(* Mean QoS/speedup of a probe set when approximating only [phase] of
   [n_phases] ([phase = n_phases] means the whole run, the "All" column). *)
let phase_profile app ~n_phases configs phase =
  let evaluations =
    (* Each probe configuration is an independent simulator run; fan the
       sweep out across the domain pool (chunk 1: runs are coarse). *)
    Pool.parallel_map ~chunk:1
      (fun levels ->
        let sched =
          if phase >= n_phases then Schedule.uniform ~n_phases levels
          else Schedule.single_phase_active ~n_phases ~phase levels
        in
        evaluate app sched)
      configs
  in
  let qos = Array.map (fun (e : Driver.evaluation) -> e.qos_degradation) evaluations in
  let speedup = Array.map (fun (e : Driver.evaluation) -> e.speedup) evaluations in
  (Stats.mean qos, Stats.mean speedup, qos, speedup)

let fmt = Printf.sprintf

let section title =
  print_newline ();
  print_endline (String.make 72 '=');
  print_endline title;
  print_endline (String.make 72 '=')
