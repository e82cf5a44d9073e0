(** Control-flow prediction (paper Sec. 3.4).

    The application's control flow — which sequence of AB call-contexts an
    execution follows — can change with the input parameters (e.g. the
    filter order in FFmpeg).  OPPROX extracts a control-flow {e signature}
    from each execution log, assigns distinct signatures class ids, and
    trains a decision-tree classifier that predicts the class from the
    input parameters, so per-class models can be selected before running. *)

type t

val signature_length : int
(** Number of leading call-context entries that form the signature (the
    per-outer-iteration AB pattern repeats, so a short prefix identifies
    the flow). *)

val signature_of_trace : int list -> int list
(** Truncate a trace to its signature. *)

val build : ?memo:Opprox_sim.Driver.memo -> Opprox_sim.App.t -> inputs:float array array -> t
(** Run each input exactly (looked up in [?memo] when given), extract
    signatures, assign class ids in first-seen order, and fit the
    decision tree. *)

val classify : t -> float array -> int
(** Predict the control-flow class of an input from its parameters. *)

val class_of_trace : t -> int list -> int
(** Class id of an observed trace; unseen signatures map to class 0,
    logging a warning and bumping the [cfmodel.unknown_signature]
    metric (a coverage gap in the training inputs). *)

val n_classes : t -> int

val training_accuracy : t -> float
(** Decision-tree accuracy on the signatures it was built from. *)

val to_sexp : t -> Opprox_util.Sexp.t
(** Serialize the signature table and the trained classifier. *)

val of_sexp : Opprox_util.Sexp.t -> t
(** Inverse of {!to_sexp}; raises [Failure] on malformed input,
    including a persisted [n_classes] that disagrees with the class
    table (a corrupted artifact would misindex per-class models). *)
