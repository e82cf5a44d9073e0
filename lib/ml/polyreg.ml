module Rng = Opprox_util.Rng
module Sexp = Opprox_util.Sexp
module Stats = Opprox_util.Stats
module Matrix = Opprox_linalg.Matrix
module Lstsq = Opprox_linalg.Lstsq
module Polyfeat = Opprox_linalg.Polyfeat

type config = {
  min_degree : int;
  max_degree : int;
  target_r2 : float;
  folds : int;
  mic_threshold : float option;
  max_splits : int;
  ridge : float;
}

let default_config =
  {
    min_degree = 1;
    max_degree = 6;
    target_r2 = 0.9;
    folds = 10;
    mic_threshold = Some 0.05;
    max_splits = 3;
    ridge = 1e-9;
  }

type single = {
  feat : Polyfeat.t;
  weights : float array;
  means : float array;  (* per-feature standardization *)
  scales : float array;
  lo : float array;  (* training range of each feature: predictions are *)
  hi : float array;  (* clamped into it, because polynomials explode when
                        extrapolating even slightly outside the data *)
  r_diag : float array;  (* signed R diagonal of the design-matrix QR; [||]
                            when QR was unavailable (rows < cols).  Kept so
                            the static checker can audit conditioning of a
                            persisted model without refitting. *)
}

type body =
  | Constant of float
  | Single of single
  | Split of { split_feature : int; cuts : float array; parts : body array }

type t = {
  body : body;
  selected : int list;  (* column indices kept after MIC screening *)
  arity : int;  (* raw arity before screening *)
  deg : int;
  cv : float;
  train : float;
  resid : float array;
}

let standardize_params rows =
  let arity = Array.length rows.(0) in
  let means = Array.make arity 0.0 and scales = Array.make arity 1.0 in
  for j = 0 to arity - 1 do
    let col = Array.map (fun r -> r.(j)) rows in
    let m = Stats.mean col in
    let s = Stats.stddev col in
    means.(j) <- m;
    scales.(j) <- (if s > 1e-12 then s else 1.0)
  done;
  (means, scales)

let apply_standardize ~means ~scales row =
  Array.mapi (fun j x -> (x -. means.(j)) /. scales.(j)) row

(* Number of distinct values in column [j] of [rows], counted only up to
   [limit] when given.  Float [=] makes -0. and 0. one value and every NaN
   its own.  Each value is checked against those seen so far: cheap for
   the handful [fit_single] needs on every fit; quadratic at worst for the
   uncapped split choice, which runs once per escalation that misses its
   target. *)
let distinct_count ?(limit = max_int) rows j =
  let n = Array.length rows in
  let seen = Array.make (Stdlib.min limit n) 0.0 in
  let count = ref 0 and i = ref 0 in
  while !count < limit && !i < n do
    let v = rows.(!i).(j) in
    let rec known s = s < !count && (seen.(s) = v || known (s + 1)) in
    if not (known 0) then begin
      seen.(!count) <- v;
      incr count
    end;
    incr i
  done;
  !count

let fit_single ~ridge ~degree rows targets =
  let means, scales = standardize_params rows in
  let std_rows = Array.map (apply_standardize ~means ~scales) rows in
  (* A feature seen at k distinct values identifies powers up to k-1 only;
     higher powers oscillate between the observed values.  A cap at or
     above [degree] filters nothing, so counting stops at [degree + 1]. *)
  let arity = Array.length rows.(0) in
  let caps = Array.init arity (fun j -> distinct_count ~limit:(degree + 1) rows j - 1) in
  let feat = Polyfeat.create ~caps ~arity ~degree () in
  let x = Polyfeat.design_matrix feat std_rows in
  let weights, r_diag = Lstsq.fit_diag ~ridge x targets in
  (* Allowed prediction range: the training range plus a 25% margin, so
     mild extrapolation stays polynomial while far-out queries clamp. *)
  let lo = Array.init arity (fun j -> Array.fold_left (fun a r -> Float.min a r.(j)) infinity rows) in
  let hi = Array.init arity (fun j -> Array.fold_left (fun a r -> Float.max a r.(j)) neg_infinity rows) in
  let margin = Array.init arity (fun j -> 0.25 *. Float.max 1e-9 (hi.(j) -. lo.(j))) in
  let lo = Array.mapi (fun j v -> v -. margin.(j)) lo in
  let hi = Array.mapi (fun j v -> v +. margin.(j)) hi in
  { feat; weights; means; scales; lo; hi; r_diag }

let predict_single s row =
  let clamped = Array.mapi (fun j x -> Float.max s.lo.(j) (Float.min s.hi.(j) x)) row in
  let std = apply_standardize ~means:s.means ~scales:s.scales clamped in
  let expanded = Polyfeat.apply s.feat std in
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. (v *. s.weights.(i))) expanded;
  !acc

let rec predict_body body row =
  match body with
  | Constant c -> c
  | Single s -> predict_single s row
  | Split { split_feature; cuts; parts } ->
      let v = row.(split_feature) in
      let rec locate i = if i >= Array.length cuts || v <= cuts.(i) then i else locate (i + 1) in
      predict_body parts.(locate 0) row

(* Cross-validated R2 of a fixed-degree fit over the given data. *)
let cv_r2_of_degree ~rng ~folds ~ridge ~degree rows targets =
  let n = Array.length rows in
  let k = Stdlib.min folds (Stdlib.max 2 (n / 2)) in
  if k < 2 || n < 4 then
    (* Too little data for CV: fall back to train R2 penalized slightly. *)
    match fit_single ~ridge ~degree rows targets with
    | s ->
        let predicted = Array.map (predict_single s) rows in
        Stats.r2_score ~actual:targets ~predicted -. 0.05
    | exception Failure _ -> neg_infinity
  else
    Crossval.score ~rng ~k
      ~fit:(fun xs ys -> fit_single ~ridge ~degree xs ys)
      ~predict:predict_single rows targets

(* Escalate degree until CV R2 reaches the target; keep the best seen and
   stop early after two consecutive degrees without improvement (higher
   degrees only get more expensive and more overfit). *)
let escalate ~config ~rng rows targets =
  let n = Array.length rows in
  let rec go degree best misses =
    if degree > config.max_degree || misses >= 2 then best
    else begin
      (* Refuse degrees whose basis dimension exceeds the sample count. *)
      let dim = Polyfeat.output_dim (Polyfeat.create ~arity:(Array.length rows.(0)) ~degree ()) in
      if dim > n then best
      else
        let score = cv_r2_of_degree ~rng ~folds:config.folds ~ridge:config.ridge ~degree rows targets in
        let best, misses =
          match best with
          | Some (_, best_score) when best_score >= score -> (best, misses + 1)
          | _ -> (Some (degree, score), 0)
        in
        match best with
        | Some (_, s) when s >= config.target_r2 -> best
        | _ -> go (degree + 1) best misses
    end
  in
  go config.min_degree None 0

(* Pick the screened feature with the most distinct values to split on. *)
let pick_split_feature rows =
  let arity = Array.length rows.(0) in
  let distinct = distinct_count rows in
  let best = ref 0 and best_count = ref (distinct 0) in
  for j = 1 to arity - 1 do
    let c = distinct j in
    if c > !best_count then begin
      best := j;
      best_count := c
    end
  done;
  (!best, !best_count)

let rec fit_body ~config ~rng rows targets =
  if Stats.stddev targets < 1e-12 then (Constant targets.(0), 0, 1.0)
  else
    match escalate ~config ~rng rows targets with
    | Some (degree, score) when score >= config.target_r2 ->
        (Single (fit_single ~ridge:config.ridge ~degree rows targets), degree, score)
    | best ->
        let degree, score = match best with Some (d, s) -> (d, s) | None -> (config.min_degree, neg_infinity) in
        let fallback () =
          (Single (fit_single ~ridge:config.ridge ~degree rows targets), degree, score)
        in
        let split_feature, n_distinct = pick_split_feature rows in
        let k = Stdlib.min config.max_splits n_distinct in
        let n = Array.length rows in
        if k < 2 || n < 4 * k then fallback ()
        else begin
          (* Subcategory split: order by the chosen feature's magnitude and
             cut into k near-equal groups (paper Sec. 3.7). *)
          let order = Array.init n (fun i -> i) in
          Array.sort (fun a b -> compare rows.(a).(split_feature) rows.(b).(split_feature)) order;
          let groups = Array.init k (fun g -> Array.sub order (g * n / k) (((g + 1) * n / k) - (g * n / k))) in
          let cuts =
            Array.init (k - 1) (fun g ->
                let last = groups.(g).(Array.length groups.(g) - 1) in
                rows.(last).(split_feature))
          in
          let sub_config = { config with max_splits = 0 } in
          match
            Array.map
              (fun idxs ->
                let sub_rows = Array.map (fun i -> rows.(i)) idxs in
                let sub_targets = Array.map (fun i -> targets.(i)) idxs in
                let body, d, s = fit_body ~config:sub_config ~rng sub_rows sub_targets in
                (body, d, s))
              groups
          with
          | parts ->
              let bodies = Array.map (fun (b, _, _) -> b) parts in
              let deg = Array.fold_left (fun acc (_, d, _) -> Stdlib.max acc d) 0 parts in
              let cv = Stats.mean (Array.map (fun (_, _, s) -> s) parts) in
              if cv > score then (Split { split_feature; cuts; parts = bodies }, deg, cv)
              else fallback ()
          | exception Failure _ -> fallback ()
        end

(* Held-out residuals by nested cross-validation: an outer k-fold pass
   that, on each fold's training part, re-runs [fit_fn] and keeps the
   residuals on the held-out part.  {!fit} passes the whole degree
   escalation (without splits), so every outer fold repeats the inner
   k-fold CV for each degree tried.  The honest residual distribution
   for confidence intervals (training residuals of a flexible fit are near
   zero), and the bulk of the fitting cost: with k = 10, a model whose
   escalation tries D degrees takes about 10 (10 D + 1) least-squares fits
   here against 10 D + 1 for the model itself. *)
let cv_residuals ~config ~rng fit_fn predict_fn rows targets =
  let n = Array.length rows in
  let k = Stdlib.min config.folds (Stdlib.max 2 (n / 2)) in
  if n < 4 || k < 2 then [||]
  else begin
    let folds = Crossval.fold_indices ~rng ~n ~k in
    let residuals = ref [] in
    Array.iter
      (fun test ->
        if Array.length test >= 1 then begin
          let train_x, test_x = Crossval.split rows ~test in
          let train_y, test_y = Crossval.split targets ~test in
          if Array.length train_x >= 2 then
            match fit_fn train_x train_y with
            | model ->
                Array.iteri
                  (fun i x -> residuals := (test_y.(i) -. predict_fn model x) :: !residuals)
                  test_x
            | exception Failure _ -> ()
        end)
      folds;
    Array.of_list !residuals
  end

let fit ?(config = default_config) ~rng rows targets =
  let n = Array.length rows in
  if n < 2 then invalid_arg "Polyreg.fit: need at least two rows";
  if Array.length targets <> n then invalid_arg "Polyreg.fit: target length mismatch";
  let arity = Array.length rows.(0) in
  if arity = 0 then invalid_arg "Polyreg.fit: zero-arity features";
  Array.iter
    (fun r -> if Array.length r <> arity then invalid_arg "Polyreg.fit: ragged features")
    rows;
  let selected =
    match config.mic_threshold with
    | None -> List.init arity (fun j -> j)
    | Some threshold -> Mic.filter_features ~threshold rows targets
  in
  let project row = Array.of_list (List.map (fun j -> row.(j)) selected) in
  let proj_rows = Array.map project rows in
  let body, deg, cv = fit_body ~config ~rng proj_rows targets in
  let predicted = Array.map (predict_body body) proj_rows in
  let train = Stats.r2_score ~actual:targets ~predicted in
  let resid =
    let held_out =
      cv_residuals ~config ~rng
        (fun xs ys ->
          let b, _, _ = fit_body ~config:{ config with max_splits = 0 } ~rng xs ys in
          b)
        predict_body proj_rows targets
    in
    if Array.length held_out > 0 then held_out
    else Array.mapi (fun i a -> a -. predicted.(i)) targets
  in
  { body; selected; arity; deg; cv; train; resid }

let predict t row =
  if Array.length row <> t.arity then invalid_arg "Polyreg.predict: arity mismatch";
  let proj = Array.of_list (List.map (fun j -> row.(j)) t.selected) in
  predict_body t.body proj

(* Compiled predictor: same arithmetic as [predict] in the same order
   (clamp, standardize, expand, dot product), but every scratch array is
   allocated once at compile time and reused across calls, the expansion
   is summed as it is formed ({!Polyfeat.dot}), and nothing on the
   per-call path allocates but the returned float. *)
let single_predictor s =
  let arity = Array.length s.means in
  let std = Array.make arity 0.0 in
  let powers = Polyfeat.scratch s.feat in
  fun row ->
    for j = 0 to arity - 1 do
      let clamped = Float.max s.lo.(j) (Float.min s.hi.(j) row.(j)) in
      std.(j) <- (clamped -. s.means.(j)) /. s.scales.(j)
    done;
    Polyfeat.dot s.feat ~powers std s.weights

let rec body_predictor = function
  | Constant c -> fun _ -> c
  | Single s -> single_predictor s
  | Split { split_feature; cuts; parts } ->
      let compiled = Array.map body_predictor parts in
      fun row ->
        (* [predict_body]'s [locate], as a loop that allocates no closure. *)
        let v = row.(split_feature) in
        let part = ref 0 in
        while !part < Array.length cuts && not (v <= cuts.(!part)) do
          incr part
        done;
        compiled.(!part) row

let predictor t =
  let selected = Array.of_list t.selected in
  let proj = Array.make (Array.length selected) 0.0 in
  let compiled = body_predictor t.body in
  fun row ->
    if Array.length row <> t.arity then invalid_arg "Polyreg.predictor: arity mismatch";
    for i = 0 to Array.length selected - 1 do
      proj.(i) <- row.(selected.(i))
    done;
    compiled proj

let degree t = t.deg
let cv_r2 t = t.cv
let train_r2 t = t.train
let residuals t = Array.copy t.resid
let selected_features t = t.selected

let is_split t = match t.body with Split _ -> true | Constant _ | Single _ -> false

(* Flatten the model into auditable pieces: one (path, weights, r_diag)
   triple per leaf.  Constant leaves report their value as a singleton
   weight vector with no conditioning evidence. *)
let pieces t =
  let rec walk path = function
    | Constant c -> [ (path, [| c |], [||]) ]
    | Single s -> [ (path, s.weights, s.r_diag) ]
    | Split { parts; _ } ->
        List.concat
          (List.mapi
             (fun i part -> walk (Printf.sprintf "%s/part%d" path i) part)
             (Array.to_list parts))
  in
  walk "" t.body

(* -------------------------------------------------------- serialization *)

let single_to_sexp s =
  Sexp.record
    [
      ("exponents", Sexp.list (List.map Sexp.int_array (Polyfeat.exponents s.feat)));
      ("weights", Sexp.float_array s.weights);
      ("means", Sexp.float_array s.means);
      ("scales", Sexp.float_array s.scales);
      ("lo", Sexp.float_array s.lo);
      ("hi", Sexp.float_array s.hi);
      ("r_diag", Sexp.float_array s.r_diag);
    ]

let single_of_sexp sexp =
  let exponents =
    Array.of_list (List.map Sexp.to_int_array (Sexp.to_list (Sexp.field sexp "exponents")))
  in
  {
    feat = Polyfeat.of_exponents exponents;
    weights = Sexp.to_float_array (Sexp.field sexp "weights");
    means = Sexp.to_float_array (Sexp.field sexp "means");
    scales = Sexp.to_float_array (Sexp.field sexp "scales");
    lo = Sexp.to_float_array (Sexp.field sexp "lo");
    hi = Sexp.to_float_array (Sexp.field sexp "hi");
    (* Absent in files saved before conditioning evidence was recorded. *)
    r_diag =
      (match Sexp.field_opt sexp "r_diag" with
      | Some s -> Sexp.to_float_array s
      | None -> [||]);
  }

let rec body_to_sexp = function
  | Constant c -> Sexp.list [ Sexp.atom "constant"; Sexp.float c ]
  | Single s -> Sexp.list [ Sexp.atom "single"; single_to_sexp s ]
  | Split { split_feature; cuts; parts } ->
      Sexp.list
        [
          Sexp.atom "split";
          Sexp.int split_feature;
          Sexp.float_array cuts;
          Sexp.list (Array.to_list (Array.map body_to_sexp parts));
        ]

let rec body_of_sexp sexp =
  match Sexp.to_list sexp with
  | [ Sexp.Atom "constant"; c ] -> Constant (Sexp.to_float c)
  | [ Sexp.Atom "single"; s ] -> Single (single_of_sexp s)
  | [ Sexp.Atom "split"; f; cuts; parts ] ->
      Split
        {
          split_feature = Sexp.to_int f;
          cuts = Sexp.to_float_array cuts;
          parts = Array.of_list (List.map body_of_sexp (Sexp.to_list parts));
        }
  | _ -> failwith "Polyreg.of_sexp: malformed body"

let to_sexp t =
  Sexp.record
    [
      ("body", body_to_sexp t.body);
      ("selected", Sexp.list (List.map Sexp.int t.selected));
      ("arity", Sexp.int t.arity);
      ("degree", Sexp.int t.deg);
      ("cv", Sexp.float t.cv);
      ("train", Sexp.float t.train);
      ("residuals", Sexp.float_array t.resid);
    ]

let of_sexp sexp =
  {
    body = body_of_sexp (Sexp.field sexp "body");
    selected = List.map Sexp.to_int (Sexp.to_list (Sexp.field sexp "selected"));
    arity = Sexp.to_int (Sexp.field sexp "arity");
    deg = Sexp.to_int (Sexp.field sexp "degree");
    cv = Sexp.to_float (Sexp.field sexp "cv");
    train = Sexp.to_float (Sexp.field sexp "train");
    resid = Sexp.to_float_array (Sexp.field sexp "residuals");
  }
