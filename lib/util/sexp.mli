(** Minimal S-expressions: the on-disk format for trained models.

    OPPROX's workflow separates offline training from pre-run optimization
    (the paper stores trained models in Python's pickle format and loads
    them at job-submission time).  This module provides the equivalent:
    a tiny, dependency-free S-expression type with a printer and parser,
    plus typed helpers used by the model serializers.

    Grammar: an expression is an atom or a parenthesized list.  Atoms are
    bare words ([A-Za-z0-9._+-] and a few more) or double-quoted strings
    with [\\] escapes.  Whitespace separates expressions; [;] starts a
    line comment. *)

type t = Atom of string | List of t list

val atom : string -> t
val list : t list -> t

val int : int -> t
val float : float -> t
(** Floats print as [Printf.sprintf "%.17g"] does — 17 significant
    digits, enough to round-trip — byte for byte: an integral value with
    magnitude below 1e17 as its integer digits (["-0"] for -0.0), every
    other value through the C printer's ["%.17g"] (["nan"] or ["-nan"],
    ["inf"], ["-inf"], ["1e+17"], ["0.10000000000000001"]).  Model files,
    plan corpora and wire replies written by earlier builds therefore
    keep their exact bytes. *)

val string : string -> t

val to_int : t -> int
(** Raises [Failure] with a descriptive message on the wrong shape. *)

val to_float : t -> float
val to_string_atom : t -> string
val to_list : t -> t list

val int_array : int array -> t
val float_array : float array -> t
val to_int_array : t -> int array
val to_float_array : t -> float array

val record : (string * t) list -> t
(** [(field value) ...] — a list of two-element field lists. *)

val field : t -> string -> t
(** Look a field up in a {!record}; raises [Failure] when missing. *)

val field_opt : t -> string -> t option

val to_string : t -> string
(** Render with minimal quoting, line-wrapped at top-level record fields:
    a top-level list whose items are all lists headed by an atom puts
    ["\n "] between items, every other list a single space.  An atom is
    written bare when it is non-empty and made only of bare-word
    characters, otherwise double-quoted, with the quote character, [\\],
    newline and tab escaped. *)

val of_string : string -> t
(** Parse exactly one expression, surrounded by optional whitespace and
    comments.  Raises [Failure "Sexp: MSG at byte N"], where [N] is the
    0-based offset at which the scanner stopped and [MSG] is one of:
    - ["unexpected end of input"] — no expression starts before the end
      ([N] is the input length);
    - ["unterminated list"] — the input ends inside a list ([N] is the
      input length);
    - ["unexpected )"] — a [)] at [N] where an expression should start;
    - ["unterminated string"] — no closing quote ([N] is the input
      length);
    - ["dangling escape"] — the input ends right after a [\\] inside a
      string ([N] is the input length);
    - ["empty atom"] — the byte at [N] can start no expression (it is not
      a bare-word character, paren, quote, blank or [;]);
    - ["trailing input"] — the expression is followed, at [N], by more
      than whitespace and comments.
    Inside a string, [\\n] and [\\t] decode to newline and tab; a
    backslash before any other byte yields that byte. *)

val read_file : string -> string
(** Slurp a whole file.  The channel is closed via [Fun.protect] on every
    path, and failures ([Sys_error], truncation) re-raise as [Failure]
    with the file path in the message. *)

val save : string -> t -> unit
(** Write to a file (atomically via a temp file + rename).  The channel
    is closed via [Fun.protect]; on failure the temp file is removed and
    the error re-raised. *)

val load : string -> t
(** {!read_file} followed by {!of_string}; parse errors carry the file
    path ([Failure "PATH: Sexp: ... at byte N"]). *)
