(** Sharded LRU plan cache.

    The daemon's whole point is that a plan query for a (app, input,
    budget, models) combination it has answered before must cost a cache
    lookup, not an optimizer solve.  Keys are canonical fingerprints
    ({!Opprox_corpus.Key.fingerprint}): the IEEE-754 bits of every float
    go into the key, so two inputs that print alike but differ in the
    last ulp never collide, and two requests that are bitwise equal
    always do — whatever intermediate re-parsing they went through.

    The table is sharded: a key's shard is a hash of the key, each shard
    is an independent mutex-guarded LRU, so in-process callers on
    several domains contend per shard rather than on one global lock.
    Total capacity is split across shards (remainder to the first shards); the global
    [size] therefore never exceeds [capacity], though a hot shard can
    evict while a cold one has room — the standard sharding trade.

    Recency is exact within a shard: every {!find} hit and every {!add}
    bumps the entry to most-recent; eviction removes the least recent
    entry of the full shard.  Counters ({!stats}) are exact per instance;
    the process-wide [plancache.*] metrics aggregate across instances. *)

type 'v t

val create : ?shards:int -> capacity:int -> unit -> 'v t
(** [create ~capacity ()] — [capacity >= 1] entries in total, spread over
    [shards] (default 8, clamped to [capacity]) independent LRUs.
    Raises [Invalid_argument] on a non-positive capacity or shard
    count. *)

val find : 'v t -> string -> 'v option
(** Lookup; a hit bumps the entry to most-recent.  Counted as one hit or
    one miss. *)

val add : 'v t -> string -> 'v -> unit
(** Insert a fresh key (counted as an insertion) or overwrite an existing
    one in place (not counted); either way the entry becomes most-recent.
    When a fresh key finds its shard full, the shard's least-recent entry
    is evicted (counted). *)

val mem : 'v t -> string -> bool
(** Membership without touching recency or counters. *)

val size : 'v t -> int
val capacity : 'v t -> int
val shards : 'v t -> int

val clear : 'v t -> unit
(** Drop every entry; counters keep accumulating. *)

type stats = { hits : int; misses : int; evictions : int; insertions : int }

val stats : 'v t -> stats
(** Exact per-instance counters, summed over shards. *)

val to_sexp : ('v -> Opprox_util.Sexp.t) -> 'v t -> Opprox_util.Sexp.t
(** Snapshot every entry, least-recent first within each shard, so that
    {!restore} reproduces each shard's recency (and hence eviction)
    order exactly.  Takes each shard's lock in turn; concurrent writers
    see a consistent per-shard view. *)

val restore : (Opprox_util.Sexp.t -> 'v) -> 'v t -> Opprox_util.Sexp.t -> int
(** Replay a {!to_sexp} snapshot through {!add} (counting insertions and
    evicting normally if the snapshot exceeds capacity) and return the
    number of entries restored.  Raises [Failure] on a malformed
    snapshot and whatever the value decoder raises on a malformed
    value. *)
