(* Phase-sensitivity study on the LULESH hydrodynamics benchmark
   (reproducing the observations behind paper Figs. 2-5 interactively):

       dune exec examples/lulesh_phase_study.exe

   The study runs the simulated application directly through the public
   driver API — no OPPROX training involved — and prints how the same
   approximation setting behaves depending on the phase it is applied in. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Table = Opprox_util.Table

let () =
  let app = Opprox_apps.Registry.find "lulesh" in
  let input = app.App.default_input in
  (* One memo for the study: every sweep below reuses the exact run. *)
  let memo = Driver.memo () in
  let exact = Driver.run_exact ~memo app input in
  Printf.printf "LULESH exact run: %d outer-loop iterations, %d work units\n\n" exact.Driver.iters
    exact.Driver.work;

  (* Level sweep: uniform approximation of every AB. *)
  let t = Table.create [ "level"; "speedup"; "qos %"; "iters" ] in
  for level = 0 to 5 do
    let levels = Array.map (fun m -> Stdlib.min level m) (App.max_levels app) in
    let ev = Driver.evaluate ~memo app (Schedule.uniform ~n_phases:1 levels) input in
    Table.add_row t
      [
        string_of_int level;
        Printf.sprintf "%.3f" ev.Driver.speedup;
        Printf.sprintf "%.2f" ev.Driver.qos_degradation;
        string_of_int ev.Driver.outer_iters;
      ]
  done;
  Table.print ~title:"Uniform approximation (all ABs at the same level)" t;

  (* The same mid-level setting applied to one phase at a time. *)
  let mid = Array.map (fun m -> (m + 1) / 2) (App.max_levels app) in
  let t = Table.create [ "active phase"; "speedup"; "qos %" ] in
  for phase = 0 to 3 do
    let sched = Schedule.single_phase_active ~n_phases:4 ~phase mid in
    let ev = Driver.evaluate ~memo app sched input in
    Table.add_row t
      [
        Printf.sprintf "phase %d of 4" (phase + 1);
        Printf.sprintf "%.3f" ev.Driver.speedup;
        Printf.sprintf "%.3f" ev.Driver.qos_degradation;
      ]
  done;
  Table.print ~title:"Mid-level approximation active in a single phase" t;

  (* Per-AB phase asymmetry: the ratio the paper quotes as ~8x. *)
  let t = Table.create [ "approximable block"; "phase-1 qos %"; "phase-4 qos %"; "ratio" ] in
  Array.iteri
    (fun ab (desc : Opprox_sim.Ab.t) ->
      let q phase =
        let levels = Array.make (App.n_abs app) 0 in
        levels.(ab) <- Stdlib.min 3 desc.max_level;
        let sched = Schedule.single_phase_active ~n_phases:4 ~phase levels in
        (Driver.evaluate ~memo app sched input).Driver.qos_degradation
      in
      let q1 = q 0 and q4 = q 3 in
      Table.add_row t
        [
          desc.name;
          Printf.sprintf "%.3f" q1;
          Printf.sprintf "%.3f" q4;
          (if q4 > 1e-9 then Printf.sprintf "%.1fx" (q1 /. q4) else "inf");
        ])
    app.App.abs;
  Table.print ~title:"Early-vs-late phase error asymmetry per AB (level 3)" t
