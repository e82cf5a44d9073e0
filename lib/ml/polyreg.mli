(** Polynomial regression with automatic degree escalation (paper Sec. 3.6–3.7).

    The model pipeline mirrors OPPROX's:

    + optionally screen features by MIC against the target ({!Mic}),
    + standardize the surviving features,
    + fit least-squares polynomial models of increasing degree until the
      k-fold cross-validated R2 reaches the target score,
    + if escalation alone cannot reach the target, split the data into
      subcategories along the most informative feature (by magnitude order)
      and fit one sub-model per subcategory.

    Training residuals are retained for confidence-interval estimation
    ({!Confidence}). *)

type t

type config = {
  min_degree : int;  (** first degree tried; default 1 *)
  max_degree : int;  (** last degree tried; default 6 (paper: 2–6 suffice) *)
  target_r2 : float;  (** escalation stops at this CV R2; default 0.9 *)
  folds : int;  (** cross-validation folds; default 10 *)
  mic_threshold : float option;
      (** MIC screening threshold; [None] disables screening (ablation) *)
  max_splits : int;  (** sub-model subcategories when escalation fails; default 3 *)
  ridge : float;  (** initial ridge penalty passed to the solver *)
}

val default_config : config

val fit :
  ?config:config ->
  rng:Opprox_util.Rng.t ->
  float array array ->
  float array ->
  t
(** [fit ~rng features targets] trains a model.  Requires at least two rows
    and rectangular features.  Never raises on poor data: with too few rows
    for the requested fold count the fold count is reduced; a constant
    target yields a constant model. *)

val predict : t -> float array -> float
(** Predict one raw (unexpanded, unfiltered) feature vector.  Arity must
    match training arity.  Each feature is clamped into its training
    range before expansion — polynomial bases explode when extrapolating
    even slightly outside the data, and the clamped (constant) continuation
    is the safe behaviour for an optimizer querying edge settings. *)

val predictor : t -> float array -> float
(** [predictor t] compiles the model into a reusable prediction closure.
    Bit-identical to {!predict} (same clamp/standardize/expand/dot
    arithmetic in the same order), but the feature projection, the
    standardized row and the row's powers are allocated once and reused
    across calls, and the monomials are summed as they are formed
    ({!Opprox_linalg.Polyfeat.dot}), so a call allocates only its boxed
    result — the optimizer's enumeration calls each model
    hundreds of times per solve.  The closure owns mutable
    scratch: do not share one closure between domains (compile one per
    domain instead; compilation is cheap). *)

val degree : t -> int
(** Degree selected by escalation (max across sub-models). *)

val cv_r2 : t -> float
(** Cross-validated R2 of the selected model ([1.] for constant models). *)

val train_r2 : t -> float
(** R2 on the training set. *)

val residuals : t -> float array
(** Signed held-out residuals [actual - predicted] from a cross-validation
    pass over the training data (training residuals would understate the
    error of a flexible fit); falls back to training residuals when the
    data is too small to fold.  For CI estimation. *)

val selected_features : t -> int list
(** Indices of the feature columns that survived MIC screening. *)

val is_split : t -> bool
(** Whether sub-model splitting was engaged. *)

val pieces : t -> (string * float array * float array) list
(** [(path, weights, r_diag)] for every leaf of the model tree: [path] is
    [""] for an unsplit model and ["/part0/..."] under splits; [weights]
    are the fitted coefficients (a singleton for constant leaves); [r_diag]
    is the signed R-factor diagonal captured at fit time ([[||]] when QR
    was unavailable or for constant leaves).  This is the audit surface the
    static model checker walks — coefficient finiteness and
    near-rank-deficiency are checkable without refitting. *)

val to_sexp : t -> Opprox_util.Sexp.t
(** Serialize a trained model (the paper's systems persist trained models
    between the offline and runtime stages). *)

val of_sexp : Opprox_util.Sexp.t -> t
(** Inverse of {!to_sexp}; raises [Failure] on malformed input. *)
