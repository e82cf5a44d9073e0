module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Env = Opprox_sim.Env
module Approx = Opprox_sim.Approx
module Rng = Opprox_util.Rng

let ab_force = 0
let ab_neighbor = 1
let ab_integrate = 2

let abs =
  [|
    Ab.make ~name:"force_computation" ~technique:Ab.Perforation ~max_level:5;
    Ab.make ~name:"neighbor_evaluation" ~technique:Ab.Truncation ~max_level:5;
    Ab.make ~name:"velocity_integration" ~technique:Ab.Perforation ~max_level:5;
  |]

(* Reduced Lennard-Jones units: epsilon = sigma = mass = 1. *)
let cutoff = 2.5
let dt = 0.005
let temperature = 1.2
(* Quench schedule: the liquid is annealed to a frozen structure over the
   first 60% of the run (Berendsen thermostat), then held cold. *)
let t_final = 0.02
let quench_fraction = 0.3
let thermostat_tau = 50.0 *. 0.005

type system_state = {
  n : int;
  species : bool array; (* true = minority (B) species *)
  box : float; (* periodic box edge *)
  x : float array;
  y : float array;
  z : float array;
  vx : float array;
  vy : float array;
  vz : float array;
  fx : float array;
  fy : float array;
  fz : float array;
}

(* The pair loops below run n^2 times a step, so they must not allocate.
   Without flambda and under the dev profile's -opaque, a float crosses a
   call boxed unless the callee is inlined: the helpers are top-level and
   [@inline] (a local closure would not be inlined), and the pair
   parameters come from float arrays rather than a tuple.  Stdlib's
   [Float.max]/[Float.min] are [@inline] and do inline here.  Each helper
   keeps the original operands and operation order, so every run is
   bit-identical to the boxed formulation.  [half] is [0.5 *. box], and
   [-.half] equals [-0.5 *. box] exactly. *)
let[@inline] minimum_image ~box ~half d =
  if d > half then d -. box else if d < -.half then d +. box else d

let init rng ~cells ~lattice =
  let n = cells * cells * cells in
  let box = float_of_int cells *. lattice in
  let st =
    {
      n;
      (* Kob-Andersen-style 80/20 binary mixture: monodisperse LJ
         crystallizes into one of a handful of structures, collapsing the
         QoS to a few discrete values; the mixture glass-forms, giving a
         continuum of inherent structures. *)
      species = Array.init n (fun i -> i mod 5 = 4);
      box;
      x = Array.make n 0.0;
      y = Array.make n 0.0;
      z = Array.make n 0.0;
      vx = Array.make n 0.0;
      vy = Array.make n 0.0;
      vz = Array.make n 0.0;
      fx = Array.make n 0.0;
      fy = Array.make n 0.0;
      fz = Array.make n 0.0;
    }
  in
  let idx = ref 0 in
  for i = 0 to cells - 1 do
    for j = 0 to cells - 1 do
      for k = 0 to cells - 1 do
        st.x.(!idx) <- (float_of_int i +. 0.5) *. lattice;
        st.y.(!idx) <- (float_of_int j +. 0.5) *. lattice;
        st.z.(!idx) <- (float_of_int k +. 0.5) *. lattice;
        incr idx
      done
    done
  done;
  let sigma = sqrt temperature in
  for i = 0 to n - 1 do
    st.vx.(i) <- Rng.gaussian_scaled rng ~mean:0.0 ~sigma;
    st.vy.(i) <- Rng.gaussian_scaled rng ~mean:0.0 ~sigma;
    st.vz.(i) <- Rng.gaussian_scaled rng ~mean:0.0 ~sigma
  done;
  (* Remove net momentum so the lattice does not drift. *)
  let fn = float_of_int n in
  let mx = Array.fold_left ( +. ) 0.0 st.vx /. fn in
  let my = Array.fold_left ( +. ) 0.0 st.vy /. fn in
  let mz = Array.fold_left ( +. ) 0.0 st.vz /. fn in
  for i = 0 to n - 1 do
    st.vx.(i) <- st.vx.(i) -. mx;
    st.vy.(i) <- st.vy.(i) -. my;
    st.vz.(i) <- st.vz.(i) -. mz
  done;
  st

(* Kob-Andersen pair parameters by species pair, at index [2 * a + b]
   for species indices [a] and [b] (1 = minority B): epsilon, sigma^2,
   and the overlap guard 0.81 sigma^2 below which a pair distance is
   clamped.  A-A is (1, 1), B-B (0.5, 0.88^2), A-B (1.5, 0.8^2). *)
let pair_eps = [| 1.0; 1.5; 1.5; 0.5 |]
let pair_sigma2 = [| 1.0; 0.64; 0.64; 0.7744 |]
let pair_guard = Array.map (fun sigma2 -> 0.81 *. sigma2) pair_sigma2

let[@inline] species_index species i = if species.(i) then 1 else 0

(* Lennard-Jones pair force magnitude / r and pair potential. *)
let[@inline] lj_force_over_r ~eps ~sigma2 r2 =
  let inv_r2 = sigma2 /. r2 in
  let inv_r6 = inv_r2 *. inv_r2 *. inv_r2 in
  24.0 *. eps /. r2 *. inv_r6 *. ((2.0 *. inv_r6) -. 1.0)

let[@inline] lj_potential ~eps ~sigma2 r2 =
  let inv_r2 = sigma2 /. r2 in
  let inv_r6 = inv_r2 *. inv_r2 *. inv_r2 in
  4.0 *. eps *. inv_r6 *. (inv_r6 -. 1.0)

(* Clamped stress: bounds the energy a stale force can inject. *)
let force_cap = 25.0
let[@inline] clamp_force v = Float.max (-.force_cap) (Float.min force_cap v)

let[@inline] wrap ~box v = if v < 0.0 then v +. box else if v >= box then v -. box else v

(* AB0 + AB1: force computation.  AB0 perforates the atom loop with a
   rotating offset (skipped atoms keep stale forces); AB1 truncates the
   interaction range, dropping the attractive tail of the pair loop. *)
let forces_kernel env st ~iter =
  let level_perf = Env.current_level env ~ab:ab_force in
  let level_trunc = Env.current_level env ~ab:ab_neighbor in
  Env.enter_ab env ~ab:ab_force;
  Env.enter_ab env ~ab:ab_neighbor;
  let max_trunc = abs.(ab_neighbor).Ab.max_level in
  let rc =
    cutoff *. (1.0 -. (float_of_int level_trunc /. float_of_int (2 * max_trunc)))
  in
  let rc2 = rc *. rc in
  let n = st.n and box = st.box and species = st.species in
  let half = 0.5 *. box in
  let x = st.x and y = st.y and z = st.z in
  Approx.perforate ~offset:iter ~level:level_perf n (fun i ->
      let fx = ref 0.0 and fy = ref 0.0 and fz = ref 0.0 in
      let pair_evals = ref 0 in
      let xi = x.(i) and yi = y.(i) and zi = z.(i) in
      let si = 2 * species_index species i in
      for j = 0 to n - 1 do
        if j <> i then begin
          let dx = minimum_image ~box ~half (xi -. x.(j)) in
          let dy = minimum_image ~box ~half (yi -. y.(j)) in
          let dz = minimum_image ~box ~half (zi -. z.(j)) in
          let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
          if r2 < rc2 then begin
            let p = si + species_index species j in
            let sigma2 = pair_sigma2.(p) in
            let r2 = Float.max r2 pair_guard.(p) (* overlap guard *) in
            let f = lj_force_over_r ~eps:pair_eps.(p) ~sigma2 r2 in
            fx := !fx +. (f *. dx);
            fy := !fy +. (f *. dy);
            fz := !fz +. (f *. dz);
            incr pair_evals
          end
        end
      done;
      st.fx.(i) <- clamp_force !fx;
      st.fy.(i) <- clamp_force !fy;
      st.fz.(i) <- clamp_force !fz;
      (* distance checks charged to the neighbor AB, force evaluations to
         the force AB *)
      Env.charge env ~ab:ab_neighbor st.n;
      Env.charge env ~ab:ab_force (4 * !pair_evals));
  (* Non-approximable per-step infrastructure: cell-list maintenance, halo
     exchange and reductions.  Keeps kernel speedups in a realistic range. *)
  Env.charge_base env (st.n * st.n / 2)

(* AB2: velocity-Verlet kick + drift.  Perforation over atoms with a
   rotating offset: a skipped atom misses this step's kick and receives a
   compensated (sub-cycled) kick the next time it is sampled. *)
let integrate_kernel env st ~iter =
  let level = Env.current_level env ~ab:ab_integrate in
  Env.enter_ab env ~ab:ab_integrate;
  let kick_dt = dt *. float_of_int (level + 1) in
  Approx.perforate ~offset:iter ~level st.n (fun i ->
      st.vx.(i) <- st.vx.(i) +. (st.fx.(i) *. kick_dt);
      st.vy.(i) <- st.vy.(i) +. (st.fy.(i) *. kick_dt);
      st.vz.(i) <- st.vz.(i) +. (st.fz.(i) *. kick_dt);
      Env.charge env ~ab:ab_integrate 6);
  let box = st.box in
  for i = 0 to st.n - 1 do
    st.x.(i) <- wrap ~box (st.x.(i) +. (st.vx.(i) *. dt));
    st.y.(i) <- wrap ~box (st.y.(i) +. (st.vy.(i) *. dt));
    st.z.(i) <- wrap ~box (st.z.(i) +. (st.vz.(i) *. dt))
  done;
  Env.charge_base env (3 * st.n)

(* Berendsen velocity rescaling toward the quench schedule's target
   temperature (non-approximable bookkeeping). *)
let thermostat env st ~step ~steps =
  let progress = float_of_int step /. float_of_int steps in
  let target =
    if progress >= quench_fraction then t_final
    else temperature +. ((t_final -. temperature) *. progress /. quench_fraction)
  in
  let ke = ref 0.0 in
  for i = 0 to st.n - 1 do
    ke :=
      !ke
      +. 0.5
         *. ((st.vx.(i) *. st.vx.(i)) +. (st.vy.(i) *. st.vy.(i)) +. (st.vz.(i) *. st.vz.(i)))
  done;
  let t_current = Float.max 1e-6 (2.0 *. !ke /. (3.0 *. float_of_int st.n)) in
  let lambda = sqrt (1.0 +. (dt /. thermostat_tau *. ((target /. t_current) -. 1.0))) in
  let lambda = Float.max 0.8 (Float.min 1.2 lambda) in
  for i = 0 to st.n - 1 do
    st.vx.(i) <- st.vx.(i) *. lambda;
    st.vy.(i) <- st.vy.(i) *. lambda;
    st.vz.(i) <- st.vz.(i) *. lambda
  done;
  Env.charge_base env (2 * st.n)

(* Per-atom potential energies of the final (frozen) structure — the QoS
   output.  Early-phase perturbations strike while the system is still
   liquid and steer it into a different glass basin (large structural
   difference); once the quench has frozen the structure, perturbations
   can no longer rearrange it. *)
let final_structure env st =
  let rc2 = cutoff *. cutoff in
  let n = st.n and box = st.box and species = st.species in
  let half = 0.5 *. box in
  let x = st.x and y = st.y and z = st.z in
  let out = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let pe = ref 0.0 in
    let xi = x.(i) and yi = y.(i) and zi = z.(i) in
    let si = 2 * species_index species i in
    for j = 0 to n - 1 do
      if j <> i then begin
        let dx = minimum_image ~box ~half (xi -. x.(j)) in
        let dy = minimum_image ~box ~half (yi -. y.(j)) in
        let dz = minimum_image ~box ~half (zi -. z.(j)) in
        let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
        if r2 < rc2 then begin
          let p = si + species_index species j in
          let e =
            lj_potential ~eps:pair_eps.(p) ~sigma2:pair_sigma2.(p) (Float.max r2 pair_guard.(p))
          in
          pe := !pe +. (0.5 *. e)
        end
      end
    done;
    out.(i) <- !pe
  done;
  Env.charge_base env (st.n * st.n);
  out

type st = { sys : system_state; steps : int; mutable step : int }

let copy st =
  {
    st with
    sys =
      {
        st.sys with
        species = Array.copy st.sys.species;
        x = Array.copy st.sys.x;
        y = Array.copy st.sys.y;
        z = Array.copy st.sys.z;
        vx = Array.copy st.sys.vx;
        vy = Array.copy st.sys.vy;
        vz = Array.copy st.sys.vz;
        fx = Array.copy st.sys.fx;
        fy = Array.copy st.sys.fy;
        fz = Array.copy st.sys.fz;
      };
  }

let init_sim env input =
  let cells = Stdlib.max 2 (int_of_float input.(0)) in
  let lattice = Float.max 1.1 input.(1) in
  let steps = Stdlib.max 40 (int_of_float input.(2)) in
  let rng = Rng.split (Env.rng env) in
  let sys = init rng ~cells ~lattice in
  (* Initial force evaluation happens before the first outer iteration
     (and thus under phase 0's levels, like the warm-up of the real code). *)
  forces_kernel env sys ~iter:0;
  { sys; steps; step = 1 }

let step_sim env st =
  if st.step > st.steps then false
  else begin
    let iter = Env.begin_outer_iter env in
    forces_kernel env st.sys ~iter;
    integrate_kernel env st.sys ~iter;
    thermostat env st.sys ~step:st.step ~steps:st.steps;
    st.step <- st.step + 1;
    true
  end

let finish env st = final_structure env st.sys

let training_inputs =
  Opprox_sim.Inputs.grid [ [ 3.0 ]; [ 1.35; 1.5 ]; [ 500.0; 800.0 ] ]

let app =
  App.make_iterative ~name:"comd"
    ~description:"Lennard-Jones molecular dynamics with a fixed-count timestep loop"
    ~param_names:[| "n_unit_cells"; "lattice_parameter"; "n_timesteps" |]
    ~abs
    ~default_input:[| 3.0; 1.4; 800.0 |]
    ~training_inputs:(Opprox_sim.Inputs.with_default [| 3.0; 1.4; 800.0 |] training_inputs)
    ~init:init_sim ~step:step_sim ~finish ~copy ~seed:0xC0_4D ()
