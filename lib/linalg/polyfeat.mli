(** Polynomial feature expansion.

    Maps a raw feature vector [(x1, ..., xk)] to the vector of all monomials
    [x1^e1 * ... * xk^ek] with [e1 + ... + ek <= degree], constant term
    included.  This is the basis OPPROX's polynomial-regression models are
    fit in (paper Sec. 3.6: "c0 + c1 s1 + c2 s2 + c3 s1 s2 + c4 s1^2 + ..."). *)

type t
(** A feature map for a fixed input arity and degree. *)

val create : ?caps:int array -> arity:int -> degree:int -> unit -> t
(** Requires [arity >= 1] and [degree >= 0].  [caps.(j)], when given,
    bounds the exponent of feature [j] in every monomial: a feature
    observed at only [k] distinct values cannot identify powers above
    [k - 1], and uncapped fits oscillate wildly between the observed
    values. *)

val arity : t -> int
val degree : t -> int

val output_dim : t -> int
(** Number of monomials: [C(arity + degree, degree)] when no [caps] were
    given, fewer when caps filter some out. *)

val of_exponents : int array array -> t
(** Rebuild a feature map from explicit exponent vectors (deserialization).
    Requires a non-empty, rectangular array; the degree is the largest
    total degree present. *)

val exponents : t -> int array list
(** The exponent vector of each monomial, in output order.  The first entry
    is the all-zero vector (constant term). *)

val apply : t -> float array -> float array
(** Expand one raw feature vector.  Raises [Invalid_argument] on arity
    mismatch. *)

val scratch : t -> float array
(** A fresh buffer for {!apply_into}'s per-row powers.  It is scratch:
    one caller (one domain) at a time. *)

val apply_into : t -> powers:float array -> float array -> float array -> unit
(** [apply_into t ~powers raw out] expands [raw] into the preallocated
    buffer [out] (length {!output_dim}), allocation-free, using [powers]
    (from {!scratch}) for the row's powers.  The hot prediction loops
    reuse both buffers across millions of expansions; see
    {!Opprox_ml.Polyreg.predictor}.  Every output is the product, from
    1.0 and in feature order, of [x_i ^ e_i] over the monomial's nonzero
    exponents, each power by square-and-multiply: the same float
    operations in the same order as a per-monomial loop.  Raises
    [Invalid_argument] on arity, output-length or scratch-size
    mismatch. *)

val dot : t -> powers:float array -> float array -> float array -> float
(** [dot t ~powers raw weights] is [sum_m (apply t raw).(m) *. weights.(m)]
    summed from 0.0 in monomial order, with each monomial formed as in
    {!apply_into}: the same float operations in the same order as
    expanding into a buffer and then taking the dot product, without the
    buffer.  Allocates only its result.  Raises [Invalid_argument] on
    arity, weights-length or scratch-size mismatch. *)

val design_matrix : t -> float array array -> Matrix.t
(** Expand a batch of raw feature vectors into a design matrix with one
    expanded row per input row; row [i] is bit-identical to
    [apply t rows.(i)].  Raises [Invalid_argument] on an empty batch or
    arity mismatch. *)
