include Opprox.Search

let solve ?config ?pool ~models ~input ~budget ?first_phase () =
  let levels, stats = solve_levels ?config ?pool ~models ~input ~budget ?first_phase () in
  (Opprox.Optimizer.plan_of_levels ~models ~input ~budget levels, stats)
