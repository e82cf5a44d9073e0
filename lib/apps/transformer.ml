module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Env = Opprox_sim.Env
module Approx = Opprox_sim.Approx
module Rng = Opprox_util.Rng

(* Autoregressive transformer-inference simulation: the outer loop decodes
   one token per iteration, attending over the hidden-state history (the
   KV cache) and pushing the new hidden state through four layer groups.
   The hidden state recurs across tokens, so an approximation error in an
   early phase corrupts the history every later token attends to — the
   paper's phase-sensitivity structure.

   The point of this app is its knob space: 13 ABs x 9 levels each gives
   9^13 ~ 2.5e12 joint configurations — far past any enumeration bound
   (Lint_app.enumeration_bound is 1e5) and past 1e12, so plans can only
   come from the stochastic search.  Everything else is sized to
   keep a run in the low milliseconds. *)

let max_level = 8
let n_groups = 4
let attention_window = 24
let refine_iters = 12

let ab_attn g = g (* 0..3 *)
let ab_ffn g = n_groups + g (* 4..7 *)
let ab_kv = 8
let ab_topk = 9
let ab_ln = 10
let ab_quant = 11
let ab_refine = 12

let abs =
  Array.append
    (Array.append
       (Array.init n_groups (fun g ->
            Ab.make
              ~name:(Printf.sprintf "attention_scores_g%d" g)
              ~technique:Ab.Perforation ~max_level))
       (Array.init n_groups (fun g ->
            Ab.make
              ~name:(Printf.sprintf "ffn_update_g%d" g)
              ~technique:Ab.Perforation ~max_level)))
    [|
      Ab.make ~name:"kv_cache_summary" ~technique:Ab.Memoization ~max_level;
      Ab.make ~name:"context_topk" ~technique:Ab.Truncation ~max_level;
      Ab.make ~name:"layernorm" ~technique:Ab.Perforation ~max_level;
      Ab.make ~name:"logit_precision" ~technique:Ab.Parameter_tuning ~max_level;
      Ab.make ~name:"decode_refinement" ~technique:Ab.Truncation ~max_level;
    |]

type st = {
  n_tokens : int;
  d : int;
  lpg : int;  (** layers per group *)
  seq : float array array;  (** input embeddings, one row per token *)
  hist : float array array;  (** hidden-state history (the KV cache) *)
  h : float array;  (** recurrent hidden state *)
  kv : float array;  (** memoized context summary *)
  drift : float array;
      (** integrated hidden-state drift: never decays, so an early-token
          perturbation shifts every later token's decode — the mechanism
          that makes phase-1 approximation the most damaging *)
  out : float array;  (** accumulated decoded output *)
  mutable entropy : float;  (** accumulated attention-weight trace *)
  mutable t : int;
}

let copy st =
  {
    st with
    seq = Array.map Array.copy st.seq;
    hist = Array.map Array.copy st.hist;
    h = Array.copy st.h;
    kv = Array.copy st.kv;
    drift = Array.copy st.drift;
    out = Array.copy st.out;
  }

let init env input =
  let n_tokens = Stdlib.max 8 (int_of_float input.(0)) in
  let d = Stdlib.max 4 (int_of_float input.(1)) in
  let layers = Stdlib.max n_groups (int_of_float input.(2)) in
  let rng = Rng.split (Env.rng env) in
  (* A drifting input sequence: successive embeddings are correlated, so
     attention over recent history is meaningful. *)
  let drift = Array.init d (fun _ -> Rng.range rng (-0.5) 0.5) in
  let seq =
    Array.init n_tokens (fun t ->
        Array.init d (fun i ->
            Float.sin ((0.37 *. float_of_int t *. drift.(i)) +. float_of_int i)
            +. Rng.gaussian_scaled rng ~mean:0.0 ~sigma:0.2))
  in
  {
    n_tokens;
    d;
    lpg = Stdlib.max 1 (layers / n_groups);
    seq;
    hist = Array.init n_tokens (fun _ -> Array.make d 0.0);
    h = Array.make d 0.0;
    kv = Array.make d 0.0;
    drift = Array.make d 0.0;
    out = Array.make d 0.0;
    entropy = 0.0;
    t = 0;
  }

let step env st =
  if st.t >= st.n_tokens then false
  else begin
    let t = Env.begin_outer_iter env in
    let d = st.d in
    let fd = float_of_int d in
    let window = Stdlib.min (t + 1) attention_window in

    (* AB9: context top-k — truncation shrinks how much of the recent
       history the attention sweep considers at all. *)
    Env.enter_ab env ~ab:ab_topk;
    let l_topk = Env.current_level env ~ab:ab_topk in
    let ctx = Stdlib.max 1 (Approx.truncated_count ~level:l_topk ~max_level window) in
    let avail = Stdlib.min ctx t in
    Env.charge env ~ab:ab_topk ctx;

    (* AB8: KV-cache summary — the mean of the attended history rows,
       recomputed only every (level+1) tokens and replayed stale in
       between. *)
    Env.enter_ab env ~ab:ab_kv;
    let l_kv = Env.current_level env ~ab:ab_kv in
    if avail > 0 && t mod (l_kv + 1) = 0 then begin
      Array.fill st.kv 0 d 0.0;
      for j = 0 to avail - 1 do
        let row = st.hist.(t - 1 - j) in
        for i = 0 to d - 1 do
          st.kv.(i) <- st.kv.(i) +. row.(i)
        done
      done;
      let inv = 1.0 /. float_of_int avail in
      for i = 0 to d - 1 do
        st.kv.(i) <- st.kv.(i) *. inv
      done;
      Env.charge env ~ab:ab_kv (avail * d)
    end
    else Env.charge env ~ab:ab_kv d;

    (* Four layer groups: perforated attention scoring feeding a
       perforated FFN/residual update of the hidden state. *)
    for g = 0 to n_groups - 1 do
      Env.enter_ab env ~ab:(ab_attn g);
      let la = Env.current_level env ~ab:(ab_attn g) in
      let acc = Array.make d 0.0 in
      let visited = ref 0 in
      if avail > 0 then
        Approx.perforate ~offset:(t + g) ~level:la avail (fun j ->
            let row = st.hist.(t - 1 - j) in
            let s = ref 0.0 in
            for i = 0 to d - 1 do
              s := !s +. (st.h.(i) *. row.(i))
            done;
            let w = Float.tanh ((!s /. fd) +. (0.1 *. float_of_int g)) in
            st.entropy <- st.entropy +. Float.abs w;
            for i = 0 to d - 1 do
              acc.(i) <- acc.(i) +. (w *. row.(i))
            done;
            incr visited;
            Env.charge env ~ab:(ab_attn g) (st.lpg * d));
      let scale = if !visited > 0 then 1.0 /. float_of_int !visited else 0.0 in

      Env.enter_ab env ~ab:(ab_ffn g);
      let lf = Env.current_level env ~ab:(ab_ffn g) in
      Approx.perforate ~offset:(t + g) ~level:lf d (fun i ->
          st.h.(i) <-
            Float.tanh
              ((0.85 *. st.h.(i))
              +. (0.25 *. st.seq.(t).(i))
              +. (0.30 *. scale *. acc.(i))
              +. (0.15 *. st.kv.(i)));
          Env.charge env ~ab:(ab_ffn g) (4 * st.lpg))
    done;

    (* AB10: layernorm — perforated centering of the hidden state. *)
    Env.enter_ab env ~ab:ab_ln;
    let l_ln = Env.current_level env ~ab:ab_ln in
    let mean = ref 0.0 and seen = ref 0 in
    Approx.perforate ~offset:t ~level:l_ln d (fun i ->
        mean := !mean +. st.h.(i);
        incr seen;
        Env.charge env ~ab:ab_ln 2);
    if !seen > 0 then begin
      let m = 0.5 *. !mean /. float_of_int !seen in
      Approx.perforate ~offset:t ~level:l_ln d (fun i -> st.h.(i) <- st.h.(i) -. m)
    end;

    (* AB11: logit precision — a tuned quantization grid; fewer bits cost
       less work and round harder. *)
    Env.enter_ab env ~ab:ab_quant;
    let l_q = Env.current_level env ~ab:ab_quant in
    let q = Float.max 2.0 (Approx.tune_parameter ~level:l_q ~max_level 32.0) in
    let bits = Stdlib.max 1 (int_of_float (Float.log q /. Float.log 2.0)) in
    Env.charge env ~ab:ab_quant (d * bits);
    let quant x = Float.round (x *. q) /. q in

    (* AB12: decode refinement — a truncated fixed-point loop pulling the
       token's output contribution toward the quantized hidden state. *)
    Env.enter_ab env ~ab:ab_refine;
    let l_r = Env.current_level env ~ab:ab_refine in
    let contrib = Array.make d 0.0 in
    Approx.truncate ~level:l_r ~max_level refine_iters (fun _k ->
        for i = 0 to d - 1 do
          contrib.(i) <-
            contrib.(i) +. (0.5 *. (1.0 +. quant (st.h.(i) +. st.drift.(i)) -. contrib.(i)))
        done;
        Env.charge env ~ab:ab_refine d);
    for i = 0 to d - 1 do
      st.out.(i) <- st.out.(i) +. contrib.(i)
    done;

    (* Commit this token's hidden state to the history and integrate the
       drift: the integral never decays, so damage done to early tokens
       keeps shifting every later decode. *)
    Array.blit st.h 0 st.hist.(t) 0 d;
    let gain = 4.0 /. float_of_int st.n_tokens in
    for i = 0 to d - 1 do
      st.drift.(i) <- st.drift.(i) +. (gain *. st.h.(i))
    done;
    Env.charge_base env d;
    st.t <- st.t + 1;
    true
  end

let finish env st =
  Env.charge_base env st.d;
  let inv = 1.0 /. float_of_int st.n_tokens in
  Array.append
    (Array.map (fun x -> x *. inv) st.out)
    [| st.entropy *. inv |]

let training_inputs =
  Opprox_sim.Inputs.grid [ [ 64.0; 96.0 ]; [ 16.0; 24.0 ]; [ 8.0 ] ]

let app =
  App.make_iterative ~name:"transformer"
    ~description:
      "autoregressive transformer-inference simulation: per-token decode over a KV-cache \
       history; 13 ABs x 9 levels (9^13 ~ 2.5e12 joint configs, stochastic-search only)"
    ~param_names:[| "n_tokens"; "d_model"; "n_layers" |]
    ~abs
    ~default_input:[| 96.0; 24.0; 8.0 |]
    ~training_inputs:(Array.append training_inputs [| [| 96.0; 24.0; 8.0 |] |])
    ~init ~step ~finish ~copy ~seed:0x7F08 ()
