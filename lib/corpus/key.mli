(** Canonical plan-request keys.

    One request for a plan is identified by (application, input vector,
    QoS budget, models hash).  The serving cache, the precomputed
    corpus, and the daemon's table of solves in flight all key on the
    same canonical string so an answer computed by any layer is
    addressable by every other.  Floats enter the key through their
    IEEE-754 bit patterns: two requests that are bitwise equal always
    collide — whatever intermediate re-parsing they went through — and
    anything a ulp apart never does.

    The key factors into a {e group} (everything but the budget) and
    the budget itself.  The corpus's nearest-neighbour fallback walks
    the budget axis {e within} one group: same app, same input bits,
    same models — only the budget differs. *)

val group : app:string -> input:float array -> models_hash:string -> string
(** [app | input bits… | models_hash] — the budget-independent part. *)

val of_group : group:string -> budget:float -> string
(** Append the budget's bit pattern to a {!group}. *)

val fingerprint :
  app:string -> input:float array -> budget:float -> models_hash:string -> string
(** [of_group ~group:(group ~app ~input ~models_hash) ~budget]. *)

val hash64 : string -> int64
(** Stable 64-bit hash of a key (chained SplitMix64 finalisers over
    8-byte chunks).  Independent of [Hashtbl.hash]'s representation, so
    safe to persist in the corpus index.  Collisions are possible and
    handled by comparing the stored full key. *)
