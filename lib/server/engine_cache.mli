(** The plan-shape compiled-engine cache (prepare-once / run-many): an
    LRU of {!Proteus.Db.prepared} handles.

    Handles are keyed by (plan-shape fingerprint, domain count, batch
    size): {!Proteus_algebra.Fingerprint.parameterize} lifts comparison
    literals into parameter slots before keying, so queries that differ
    only in constants share one staged engine, and a hit re-binds the
    slots instead of re-staging closures.

    Staleness is the handle's own check ({!Proteus.Db.staleness}): a
    handle whose registry generation moved is dropped at the next lookup,
    install or {!stats} read (an invalidation); one that only saw a cache
    fill install a column re-stages in place and stays a hit. Quarantine:
    freshly staged engines install only after their first run ends clean;
    a cached engine whose run degrades or errors is evicted. *)

open Proteus_model

type t

(** [create ?capacity db] — [capacity] is the LRU bound on resident
    engines (default 64). *)
val create : ?capacity:int -> Proteus.Db.t -> t

(** A checked-out engine: holds the entry's run mutex from {!acquire}
    until {!release} — one session runs one engine at a time. *)
type lease

(** [acquire t plan] optimizes, parameterizes and keys [plan] (bound by
    {!Proteus.Db.bind_all}: a user parameter left in it fails the run),
    returning a hit lease (slots re-bound to this query's constants) or
    staging a fresh engine on miss.
    Compiles are serialized under the cache's compile lock; the table's
    lock is never held across a compile, so hits do not wait behind one. *)
val acquire : t -> ?domains:int -> ?batch_size:int -> Proteus_algebra.Plan.t -> lease

val run : lease -> Value.t

(** [release l ~clean] returns the engine: a clean miss installs it for
    reuse (re-staged first if its own run filled a column), an unclean run
    quarantines (miss) or evicts (hit) it. Must be called exactly once per
    lease, on any outcome. *)
val release : lease -> clean:bool -> unit

val hit : lease -> bool

(** Staging time paid by this lease: the stage on a miss, a re-stage
    after a fill (0 on a plain hit). *)
val compile_seconds : lease -> float

type stats = {
  hits : int;
  misses : int;
  installs : int;
  evictions : int;      (** capacity pressure *)
  invalidations : int;  (** entries dropped because the registry generation moved *)
  poisoned : int;       (** engines dropped because their run was unclean *)
  entries : int;
  compile_seconds : float;  (** cumulative staging time: misses and re-stages *)
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
