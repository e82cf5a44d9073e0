let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median = Opprox_util.Stats.median

let percentile xs q =
  let n = Array.length xs in
  (* [1e-9]: 1000 * (1 - 0.99) is 10.000000000000009, 999 * 0.01 is 9.99 *)
  if n = 0 || (float_of_int n *. (1.0 -. q)) +. 1e-9 < 10.0 then None
  else
    let a = sorted xs in
    Some a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let window_quantile ~q ~window_s ~span_s samples =
  let n_win = Int.max 1 (int_of_float (span_s /. window_s)) in
  let buckets = Array.make n_win [] in
  Array.iter
    (fun (t, lat) ->
      let w = Int.max 0 (Int.min (n_win - 1) (int_of_float (t /. window_s))) in
      buckets.(w) <- lat :: buckets.(w))
    samples;
  let qs = Array.map (fun b -> percentile (Array.of_list b) q) buckets in
  if Array.exists Option.is_none qs then None else Some (median (Array.map Option.get qs))

type outcome = Answered | Shed | Timed_out | Failed
type request = { due : float; sent : float; finished : float; outcome : outcome }

let latency_ms r = (r.finished -. r.due) *. 1000.0
let late_ms r = Float.max 0.0 (r.sent -. r.due) *. 1000.0

let share p rs =
  if Array.length rs = 0 then 0.0
  else
    float_of_int (Array.fold_left (fun n r -> if p r then n + 1 else n) 0 rs)
    /. float_of_int (Array.length rs)

let slo_attainment ~limit_ms rs = share (fun r -> r.outcome = Answered && latency_ms r <= limit_ms) rs
let error_rate rs = share (fun r -> r.outcome <> Answered) rs

type step = { rate : float; sent : int; failed : int; over_limit : int }

let step_passes s = s.failed = 0 && s.over_limit * 100 <= s.sent

let ladder ~start ~max_rate probe =
  let steps = ref [] in
  let run rate =
    let s = probe rate in
    steps := s :: !steps;
    step_passes s
  in
  let rec coarse rate best =
    if rate > max_rate then best
    else if run rate then coarse (rate *. 2.0) (Some rate)
    else if best = None then coarse (rate *. 2.0) None
    else best
  in
  let rec fine rate best =
    if rate > max_rate then best else if run rate then fine (rate *. 1.1) rate else best
  in
  let best =
    match coarse start None with
    | None -> 0.0
    | Some rate -> if rate *. 2.0 > max_rate then rate else fine (rate *. 1.1) rate
  in
  (best, List.rev !steps)

type quality = { speedup : float; met_share : float; violation_rate : float }

let quality plans =
  if Array.length plans = 0 then invalid_arg "Stats.quality: no plans";
  let speedup = Opprox_util.Stats.geometric_mean (Array.map (fun (s, _, _) -> s) plans) in
  let met_share = share (fun (_, qos, budget) -> qos <= budget) plans in
  { speedup; met_share; violation_rate = 1.0 -. met_share }
