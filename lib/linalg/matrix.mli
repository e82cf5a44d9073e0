(** Dense row-major float matrices.

    Just enough linear algebra to back polynomial regression: construction,
    products, transposition, and linear-system solving by Gaussian
    elimination with partial pivoting.  Training designs reach about
    140 x 110 and one model build fits some 15,000 of them, so {!mul}
    and {!solve} index their storage directly, unchecked in the innermost
    loops; each output entry still gets the float operations of the plain
    loops, in the same order (DESIGN.md §5, "Model-fitting cost"). *)

type t
(** An [rows] x [cols] matrix.  Values are mutable through {!set}. *)

val create : int -> int -> t
(** [create rows cols] is the zero matrix.  Requires positive dimensions. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)

val init_rows : int -> int -> (int -> float array -> unit) -> t
(** [init_rows rows cols fill] calls [fill i row] for each row [i] in
    order; [fill] must write all [cols] entries of row [i] into [row],
    whose contents are unspecified on entry. *)

val of_rows : float array array -> t
(** Build from row vectors; all rows must have equal non-zero length.
    The input arrays are copied. *)

val identity : int -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val row : t -> int -> float array
(** Copy of row [i]. *)

val col : t -> int -> float array
(** Copy of column [j]. *)

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on dimension mismatch. *)

val mul_vec : t -> float array -> float array
(** Matrix-vector product. *)

val add : t -> t -> t
val scale : t -> float -> t

val solve : t -> float array -> float array
(** [solve a b] solves the square system [a x = b] by Gaussian elimination
    with partial pivoting.  Raises [Failure "Matrix.solve: singular"] when a
    pivot underflows. *)

val copy : t -> t

val equal : ?eps:float -> t -> t -> bool
(** Entry-wise comparison within absolute tolerance [eps] (default 1e-9). *)

val pp : Format.formatter -> t -> unit
