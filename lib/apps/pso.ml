module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Env = Opprox_sim.Env
module Approx = Opprox_sim.Approx
module Rng = Opprox_util.Rng

let ab_fitness = 0
let ab_velocity = 1
let ab_best = 2

let abs =
  [|
    Ab.make ~name:"fitness_evaluation" ~technique:Ab.Perforation ~max_level:4;
    Ab.make ~name:"velocity_update" ~technique:Ab.Memoization ~max_level:5;
    Ab.make ~name:"best_update" ~technique:Ab.Perforation ~max_level:5;
  |]

(* PSO constants (standard constriction-style coefficients). *)
let inertia = 0.72
let c_personal = 1.49
let c_global = 1.49
let domain = 5.12
let max_iters = 600
let stagnation_window = 25
let stagnation_epsilon = 0.01
let ripple = 1.5 (* Rastrigin amplitude; full 10.0 traps the swarm too often *)

(* The optimum sits away from the origin so the exact result is a
   non-degenerate vector for the relative-distortion QoS metric. *)
let optimum d = 2.0 +. (0.5 *. sin (float_of_int d))

(* The objective runs once per particle and loops over the dimensions,
   so the loop must not allocate.  Without flambda and under the dev
   profile's -opaque, a closure over a float accumulator boxes it on
   every update, and a call that is not inlined boxes the result: hence
   the [@inline] loop.  The offsets are tabulated because recomputing
   [sin] per dimension cost more than the rest of the objective; each
   entry is the value [optimum] returns, so runs are bit-identical. *)
let optimum_table = Array.init 64 optimum

let[@inline] objective x =
  let acc = ref 0.0 in
  for d = 0 to Array.length x - 1 do
    let o = if d < Array.length optimum_table then optimum_table.(d) else optimum d in
    let xi = x.(d) -. o in
    acc := !acc +. ((xi *. xi) -. (ripple *. cos (2.0 *. Float.pi *. xi)) +. ripple)
  done;
  !acc

type swarm = {
  pos : float array array;
  vel : float array array;
  att : float array array; (* cached attraction terms (memoization) *)
  fitness : float array; (* possibly stale fitness of the current position *)
  pbest_pos : float array array;
  pbest_val : float array;
  gbest_pos : float array;
  mutable gbest_val : float;
}

let init rng ~n ~dim =
  let pos = Array.init n (fun _ -> Array.init dim (fun _ -> Rng.range rng (-.domain) domain)) in
  let vel = Array.init n (fun _ -> Array.init dim (fun _ -> Rng.range rng (-1.0) 1.0)) in
  let fitness = Array.map objective pos in
  let pbest_pos = Array.map Array.copy pos in
  let pbest_val = Array.copy fitness in
  let gbest = ref 0 in
  Array.iteri (fun i f -> if f < pbest_val.(!gbest) then gbest := i) fitness;
  {
    pos;
    vel;
    att = Array.init n (fun _ -> Array.make dim 0.0);
    fitness;
    pbest_pos;
    pbest_val;
    gbest_pos = Array.copy pos.(!gbest);
    gbest_val = fitness.(!gbest);
  }

(* AB0: objective evaluation.  Perforation with a rotating offset skips
   particles; a skipped particle keeps its stale fitness, so its
   personal-best update waits until it is sampled again. *)
let fitness_kernel env sw ~iter ~dim =
  let level = Env.current_level env ~ab:ab_fitness in
  Env.enter_ab env ~ab:ab_fitness;
  let n = Array.length sw.pos in
  Approx.perforate ~offset:iter ~level n (fun i ->
      sw.fitness.(i) <- objective sw.pos.(i);
      Env.charge env ~ab:ab_fitness (2 * dim);
      if sw.fitness.(i) < sw.pbest_val.(i) then begin
        sw.pbest_val.(i) <- sw.fitness.(i);
        Array.blit sw.pos.(i) 0 sw.pbest_pos.(i) 0 dim
      end)

(* AB1: velocity update.  Memoization is temporal: the attraction terms
   are recomputed every (level+1)-th outer iteration and the cached terms
   are replayed in between.  The stale attraction still points roughly at
   the bests, so homing continues, only less precisely — the convergence
   loop runs longer. *)
let velocity_kernel env sw ~iter ~dim rng =
  let level = Env.current_level env ~ab:ab_velocity in
  Env.enter_ab env ~ab:ab_velocity;
  let n = Array.length sw.pos in
  (* Stale iterations freeze a particle in place (its last computed state
     is the memoized result); the rotating offset staggers refreshes so a
     fraction of the swarm moves every iteration. *)
  let period = level + 1 in
  let offset = iter mod period in
  for i = 0 to n - 1 do
    if level = 0 || i mod period = offset then begin
      for d = 0 to dim - 1 do
        let r1 = Rng.uniform rng and r2 = Rng.uniform rng in
        sw.att.(i).(d) <-
          (c_personal *. r1 *. (sw.pbest_pos.(i).(d) -. sw.pos.(i).(d)))
          +. (c_global *. r2 *. (sw.gbest_pos.(d) -. sw.pos.(i).(d)))
      done;
      for d = 0 to dim - 1 do
        sw.vel.(i).(d) <-
          Float.max (-.domain)
            (Float.min domain ((inertia *. sw.vel.(i).(d)) +. sw.att.(i).(d)));
        sw.pos.(i).(d) <-
          Float.max (-.domain) (Float.min domain (sw.pos.(i).(d) +. sw.vel.(i).(d)))
      done;
      Env.charge env ~ab:ab_velocity (4 * dim)
    end
  done

(* AB2: global-best reduction.  Perforation scans only a sample of the
   particles; improvements at the others are picked up in later
   iterations when the rotating offset reaches them. *)
let best_kernel env sw ~iter ~dim =
  let level = Env.current_level env ~ab:ab_best in
  Env.enter_ab env ~ab:ab_best;
  let n = Array.length sw.pos in
  Approx.perforate ~offset:iter ~level n (fun i ->
      Env.charge env ~ab:ab_best 1;
      if sw.pbest_val.(i) < sw.gbest_val then begin
        sw.gbest_val <- sw.pbest_val.(i);
        Array.blit sw.pbest_pos.(i) 0 sw.gbest_pos 0 dim
      end)

(* One run drives an ensemble of independent swarms in lockstep (as PSO
   benchmarking harnesses do): the ensemble mean smooths the heavy-tailed
   convergence-time distribution of a single swarm, which would otherwise
   drown the approximation effects in restart noise. *)
let ensemble_size = 6

type st = {
  n : int;
  dim : int;
  run_seed : int;
  swarms : swarm array;
  mutable last_improvement_iter : int;
  mutable last_best : float;
  mutable continue_ : bool;
}

let copy_swarm sw =
  {
    pos = Array.map Array.copy sw.pos;
    vel = Array.map Array.copy sw.vel;
    att = Array.map Array.copy sw.att;
    fitness = Array.copy sw.fitness;
    pbest_pos = Array.map Array.copy sw.pbest_pos;
    pbest_val = Array.copy sw.pbest_val;
    gbest_pos = Array.copy sw.gbest_pos;
    gbest_val = sw.gbest_val;
  }

let copy st = { st with swarms = Array.map copy_swarm st.swarms }

let mean_best swarms =
  Array.fold_left (fun acc sw -> acc +. sw.gbest_val) 0.0 swarms /. float_of_int ensemble_size

let init_st env input =
  let n = Stdlib.max 4 (int_of_float input.(0)) in
  let dim = Stdlib.max 2 (int_of_float input.(1)) in
  let init_rng = Rng.split (Env.rng env) in
  let run_seed = Rng.int (Env.rng env) 0x3FFFFFFF in
  let swarms = Array.init ensemble_size (fun _ -> init (Rng.split init_rng) ~n ~dim) in
  (* Convergence test: the loop ends once the contracted swarms can no
     longer improve — when the ensemble-mean best has stagnated for a
     window of iterations. *)
  { n; dim; run_seed; swarms; last_improvement_iter = 0; last_best = mean_best swarms; continue_ = true }

let step env st =
  if not st.continue_ then false
  else begin
    let iter = Env.begin_outer_iter env in
    (* Per-iteration RNG derived from (seed, iter): approximation cannot
       shift the random stream of later iterations. *)
    let rng = Rng.create (st.run_seed + (7919 * iter)) in
    Array.iter
      (fun sw ->
        fitness_kernel env sw ~iter ~dim:st.dim;
        best_kernel env sw ~iter ~dim:st.dim;
        velocity_kernel env sw ~iter ~dim:st.dim rng)
      st.swarms;
    Env.charge_base env st.n;
    let best = mean_best st.swarms in
    if best < st.last_best *. (1.0 -. stagnation_epsilon) then begin
      st.last_best <- best;
      st.last_improvement_iter <- iter
    end;
    if
      iter - st.last_improvement_iter >= stagnation_window || Env.outer_iters env >= max_iters
    then st.continue_ <- false;
    true
  end

let finish _env st =
  Array.concat
    (Array.to_list
       (Array.map (fun sw -> Array.append sw.gbest_pos [| sw.gbest_val |]) st.swarms))

let training_inputs = Opprox_sim.Inputs.grid [ [ 24.0; 40.0 ]; [ 6.0; 8.0; 10.0 ] ]

let app =
  App.make_iterative ~name:"pso"
    ~description:"global-best particle swarm optimization with a convergence-test outer loop"
    ~param_names:[| "swarm_size"; "dimension" |]
    ~abs
    ~default_input:[| 40.0; 8.0 |]
    ~training_inputs:(Opprox_sim.Inputs.with_default [| 40.0; 8.0 |] training_inputs)
    ~init:init_st ~step ~finish ~copy ~seed:0x9_50 ()
