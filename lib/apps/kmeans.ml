module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Env = Opprox_sim.Env
module Approx = Opprox_sim.Approx
module Rng = Opprox_util.Rng

let ab_distance = 0
let ab_centroid = 1
let ab_convergence = 2

let abs =
  [|
    Ab.make ~name:"distance_evaluation" ~technique:Ab.Perforation ~max_level:4;
    Ab.make ~name:"centroid_update" ~technique:Ab.Memoization ~max_level:2;
    Ab.make ~name:"convergence_check" ~technique:Ab.Perforation ~max_level:4;
  |]

let max_iters = 120

(* Synthetic blobs: cluster centers on a circle, Gaussian spread.  The
   spread overlaps neighbouring blobs slightly so the optimization
   landscape has competing local optima. *)
let generate rng ~n ~k ~dim =
  let centers =
    Array.init k (fun c ->
        Array.init dim (fun d ->
            let angle = 2.0 *. Float.pi *. float_of_int c /. float_of_int k in
            match d with
            | 0 -> 5.0 *. cos angle
            | 1 -> 5.0 *. sin angle
            | _ -> 2.0 *. sin (angle *. float_of_int d)))
  in
  Array.init n (fun i ->
      let c = i mod k in
      Array.init dim (fun d -> centers.(c).(d) +. Rng.gaussian_scaled rng ~mean:0.0 ~sigma:2.6))

(* Inlined loop rather than an [Array.iteri] closure: the closure would
   box the accumulator on every component, and a non-inlined call boxes
   the result (no flambda, and the dev profile builds with -opaque). *)
let[@inline] distance2 a b =
  let acc = ref 0.0 in
  for d = 0 to Array.length a - 1 do
    acc := !acc +. ((a.(d) -. b.(d)) *. (a.(d) -. b.(d)))
  done;
  !acc

type st = {
  n : int;
  k : int;
  dim : int;
  points : float array array;
  assignment : int array;
  centroids : float array array;
  mutable continue_ : bool;
  mutable stable_streak : int;
}

let copy st =
  {
    st with
    points = Array.map Array.copy st.points;
    assignment = Array.copy st.assignment;
    centroids = Array.map Array.copy st.centroids;
  }

let init env input =
  let n = Stdlib.max 8 (int_of_float input.(0)) in
  let k = Stdlib.max 2 (int_of_float input.(1)) in
  let dim = Stdlib.max 2 (int_of_float input.(2)) in
  let rng = Rng.split (Env.rng env) in
  let points = generate rng ~n ~k ~dim in
  let assignment = Array.make n 0 in
  (* Deliberately poor initialization (arbitrary points, possibly from the
     same blob): k-means needs a realistic number of iterations to sort
     itself out, and different perturbations settle in different optima. *)
  let centroids = Array.init k (fun c -> Array.copy points.(c * 37 mod n)) in
  { n; k; dim; points; assignment; centroids; continue_ = true; stable_streak = 0 }

let step env ({ n; k; dim; points; assignment; centroids; _ } as st) =
  if not st.continue_ then false
  else begin
    let iter = Env.begin_outer_iter env in

    (* AB0: nearest-centroid assignment, perforated over points. *)
    let changed = Array.make n false in
    Env.enter_ab env ~ab:ab_distance;
    let l0 = Env.current_level env ~ab:ab_distance in
    Approx.perforate ~offset:iter ~level:l0 n (fun i ->
        let best = ref 0 and best_d = ref infinity in
        for c = 0 to k - 1 do
          let d = distance2 points.(i) centroids.(c) in
          if d < !best_d then begin
            best_d := d;
            best := c
          end
        done;
        if !best <> assignment.(i) then begin
          assignment.(i) <- !best;
          changed.(i) <- true
        end;
        Env.charge env ~ab:ab_distance (k * dim));

    (* AB1: centroid recomputation, memoized across iterations. *)
    Env.enter_ab env ~ab:ab_centroid;
    let l1 = Env.current_level env ~ab:ab_centroid in
    if iter mod (l1 + 1) = 0 then begin
      let sums = Array.init k (fun _ -> Array.make dim 0.0) in
      let counts = Array.make k 0 in
      for i = 0 to n - 1 do
        let c = assignment.(i) in
        counts.(c) <- counts.(c) + 1;
        for d = 0 to dim - 1 do
          sums.(c).(d) <- sums.(c).(d) +. points.(i).(d)
        done
      done;
      for c = 0 to k - 1 do
        if counts.(c) > 0 then
          for d = 0 to dim - 1 do
            centroids.(c).(d) <- sums.(c).(d) /. float_of_int counts.(c)
          done
      done;
      Env.charge env ~ab:ab_centroid (n * dim)
    end
    else Env.charge env ~ab:ab_centroid k;

    (* AB2: convergence test over a sample of the points. *)
    Env.enter_ab env ~ab:ab_convergence;
    let l2 = Env.current_level env ~ab:ab_convergence in
    let any_changed = ref false in
    Approx.perforate ~offset:iter ~level:l2 n (fun i ->
        if changed.(i) then any_changed := true;
        Env.charge env ~ab:ab_convergence 1);

    Env.charge_base env n;
    (* Two consecutive stable samples end the run (a single quiet sample of
       a perforated check is not proof of convergence). *)
    if not !any_changed then st.stable_streak <- st.stable_streak + 1 else st.stable_streak <- 0;
    if st.stable_streak >= 2 || Env.outer_iters env >= max_iters then st.continue_ <- false;
    true
  end

let finish env { n; k; dim; points; assignment; centroids; _ } =
  (* Canonical output: centroids sorted lexicographically, plus inertia. *)
  let order = Array.init k (fun c -> c) in
  Array.sort (fun a b -> compare centroids.(a) centroids.(b)) order;
  let inertia = ref 0.0 in
  for i = 0 to n - 1 do
    inertia := !inertia +. distance2 points.(i) centroids.(assignment.(i))
  done;
  Env.charge_base env (n * dim);
  Array.concat
    (Array.to_list (Array.map (fun c -> centroids.(c)) order)
    @ [ [| !inertia /. float_of_int n |] ])

let training_inputs =
  Opprox_sim.Inputs.grid [ [ 320.0; 400.0; 500.0 ]; [ 8.0; 10.0 ]; [ 3.0 ] ]

let app =
  App.make_iterative ~name:"kmeans"
    ~description:"Lloyd's k-means on Gaussian blobs; assignment-stability convergence loop"
    ~param_names:[| "n_points"; "n_clusters"; "dimension" |]
    ~abs
    ~default_input:[| 400.0; 10.0; 3.0 |]
    ~training_inputs:(Array.append training_inputs [| [| 400.0; 10.0; 3.0 |] |])
    ~init ~step ~finish ~copy ~seed:0x63A5 ()
