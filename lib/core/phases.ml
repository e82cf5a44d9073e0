module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Config_space = Opprox_sim.Config_space
module Stats = Opprox_util.Stats
module Rng = Opprox_util.Rng

type probe_result = {
  n_phases : int;
  mean_qos_per_phase : float array;
  max_consecutive_diff : float;
}

let probe_in memo ?(samples_per_phase = 8) ?(seed = 0x9A5E) (app : App.t) ~n_phases =
  if n_phases < 1 then invalid_arg "Phases.probe: n_phases must be >= 1";
  (* Seed from [seed] alone — NOT [seed + n_phases].  Algorithm 1 compares
     max_consecutive_diff across phase counts, so every probe must draw the
     same AL configurations; seeding per phase count injected sampling
     variance into exactly the signal the doubling threshold chases. *)
  let rng = Rng.create seed in
  let input = app.App.default_input in
  (* The same AL vectors probe every phase, so per-phase means differ only
     by phase placement. *)
  let configs =
    Array.init samples_per_phase (fun _ -> Config_space.random_nonzero rng app.App.abs)
  in
  let mean_qos_per_phase =
    Array.init n_phases (fun phase ->
        let degradations =
          Array.map
            (fun levels ->
              let sched = Schedule.single_phase_active ~n_phases ~phase levels in
              (Driver.evaluate ~memo app sched input).qos_degradation)
            configs
        in
        Stats.mean degradations)
  in
  let max_consecutive_diff =
    if n_phases = 1 then 0.0
    else begin
      let best = ref 0.0 in
      for p = 0 to n_phases - 2 do
        best := Float.max !best (Float.abs (mean_qos_per_phase.(p + 1) -. mean_qos_per_phase.(p)))
      done;
      !best
    end
  in
  { n_phases; mean_qos_per_phase; max_consecutive_diff }

let probe ?samples_per_phase ?seed app ~n_phases =
  probe_in (Driver.memo ()) ?samples_per_phase ?seed app ~n_phases

let search ?(threshold = 1.0) ?(max_phases = 8) ?samples_per_phase ?seed app =
  if max_phases < 2 then invalid_arg "Phases.search: max_phases must be >= 2";
  (* One memo for the whole search: every probe shares the exact run. *)
  let probe = probe_in (Driver.memo ()) ?samples_per_phase ?seed app in
  let first = probe ~n_phases:2 in
  (* Algorithm 1: keep doubling while the max consecutive-phase QoS
     difference still moves by more than the threshold. *)
  let rec go n prev probes =
    let next_n = n * 2 in
    if next_n > max_phases then (n, List.rev probes)
    else begin
      let next = probe ~n_phases:next_n in
      let probes = next :: probes in
      if Float.abs (prev.max_consecutive_diff -. next.max_consecutive_diff) > threshold then
        go next_n next probes
      else (n, List.rev probes)
    end
  in
  go 2 first [ first ]
