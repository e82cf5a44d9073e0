(* Test fixtures: a tiny deterministic application that exercises the whole
   App/Driver protocol in well under a millisecond, so the core-pipeline
   tests (training, modeling, optimization) stay fast.

   The "toy" app runs a fixed 40-iteration outer loop over a small state
   vector.  AB0 (perforation) skips smoothing steps — the output error it
   causes decays with the phase in which it is applied (early skips
   propagate).  AB1 (memoization) reuses the previous iteration's increment.
   Work is charged so that higher levels always do less work. *)

module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Env = Opprox_sim.Env
module Approx = Opprox_sim.Approx

let iterations = 40
let state_size = 16

let toy_abs =
  [|
    Ab.make ~name:"smooth" ~technique:Ab.Perforation ~max_level:3;
    Ab.make ~name:"integrate" ~technique:Ab.Memoization ~max_level:3;
  |]

let toy_run env input =
  let scale = input.(0) in
  let state = Array.init state_size (fun i -> scale *. float_of_int (i + 1)) in
  let incr_cache = Array.make state_size 0.0 in
  for iter = 0 to iterations - 1 do
    let iter = ignore iter; Env.begin_outer_iter env in
    (* AB0: smoothing pass over the state, perforated. *)
    let l0 = Env.current_level env ~ab:0 in
    Env.enter_ab env ~ab:0;
    Approx.perforate ~offset:iter ~level:l0 state_size (fun i ->
        let left = state.((i + state_size - 1) mod state_size) in
        let right = state.((i + 1) mod state_size) in
        state.(i) <- (0.5 *. state.(i)) +. (0.25 *. (left +. right));
        Env.charge env ~ab:0 3);
    (* AB1: additive drift, memoized across iterations. *)
    let l1 = Env.current_level env ~ab:1 in
    Env.enter_ab env ~ab:1;
    let fresh = iter mod (l1 + 1) = 0 in
    for i = 0 to state_size - 1 do
      if fresh then begin
        incr_cache.(i) <- 0.01 *. sin (float_of_int (i + iter));
        Env.charge env ~ab:1 2
      end;
      state.(i) <- state.(i) +. incr_cache.(i);
      Env.charge env ~ab:1 1
    done;
    Env.charge_base env 4
  done;
  state

let toy_inputs = [| [| 1.0 |]; [| 1.5 |]; [| 2.0 |] |]

let toy =
  App.make ~name:"toy" ~description:"deterministic two-AB fixture"
    ~param_names:[| "scale" |] ~abs:toy_abs ~default_input:[| 1.5 |]
    ~training_inputs:toy_inputs ~run:toy_run ~seed:7 ()

(* A second fixture whose control flow depends on the input: even [mode]
   visits the ABs in one order, odd in the other — for Cfmodel tests. *)
let flow_abs =
  [|
    Ab.make ~name:"first" ~technique:Ab.Perforation ~max_level:2;
    Ab.make ~name:"second" ~technique:Ab.Perforation ~max_level:2;
  |]

let flow_run env input =
  let even = int_of_float input.(0) mod 2 = 0 in
  let acc = ref 0.0 in
  for _ = 1 to 10 do
    let iter = Env.begin_outer_iter env in
    let visit ab =
      Env.enter_ab env ~ab;
      let level = Env.current_level env ~ab in
      Approx.perforate ~offset:iter ~level 8 (fun i ->
          acc := !acc +. (float_of_int ((ab * 17) + i) *. 0.01);
          Env.charge env ~ab 1)
    in
    if even then begin visit 0; visit 1 end else begin visit 1; visit 0 end
  done;
  [| !acc; input.(0) |]

let flow_inputs = [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |]; [| 3.0 |]; [| 4.0 |]; [| 5.0 |] |]

let flow =
  App.make ~name:"flow" ~description:"input-dependent control-flow fixture"
    ~param_names:[| "mode" |] ~abs:flow_abs ~default_input:[| 0.0 |]
    ~training_inputs:flow_inputs ~run:flow_run ~seed:13 ()

(* Shared helpers. *)

(* A registered counter's value; tests assert before/after deltas. *)
let counter name = Opprox_obs.Metrics.value (Opprox_obs.Metrics.counter name)

let check_float = Alcotest.(check (float 1e-9))
let check_float_eps eps = Alcotest.(check (float eps))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen prop)
