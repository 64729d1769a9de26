(** The plug-in runtime: builds (and memoizes) structural indexes on first
    access, collects cold-access statistics into the catalog (Section 5.2
    "Enabling Cost-based Optimizations"), and splices the caching manager
    into scans — serving cached binary columns instead of raw bytes, and
    filling new caches as a side-effect of scanning (Section 6). *)

open Proteus_catalog

type t

(** Construction cost and footprint of a structural index, for the ratios
    reported in Section 7.1. *)
type index_info = {
  size_bytes : int;
  input_bytes : int;
  build_seconds : float;
  stats_seconds : float;
      (** the cold-statistics pass of the same first access, so a first
          touch splits into index build and statistics *)
  fixed_schema : bool;  (** fixed-schema JSON / fixed-width CSV *)
  layouts : int option;  (** JSON: the index's distinct layouts *)
  built_rows : int;  (** rows the last full build indexed *)
  extended_rows : int;
      (** rows indexed since by extending the index over appends *)
}

val create : ?cache:Cache_iface.t -> Catalog.t -> t

val catalog : t -> Catalog.t
val cache : t -> Cache_iface.t
val set_cache : t -> Cache_iface.t -> unit

(** The layout stamp for staged engines: bumped by {!invalidate},
    {!extend}, shard-set changes, {!set_cache}, {!set_interposer} and
    {!materialize_field} (promotions). A prepared handle
    ([Proteus.Db.prepare]) captures it at staging time and re-stages when
    it has moved, so it observes dataset updates, caching-mode changes and
    promoted layouts; the server's engine cache drops the handle instead. *)
val generation : t -> int

(** The fill stamp: bumped when {!session_commit} installs a column (a
    refused or quarantined fill leaves it), so handles re-stage to read it. *)
val fill_stamp : t -> int

(** [source t name] is the raw source for a dataset (builds the structural
    index on first access — the paper's "cold" query). No cache routing. *)
val source : t -> string -> Source.t

(** [fresh_source t name] is a {e new} source view over the dataset: a
    private cursor sharing the memoized read-only index with every other
    view, so parallel workers can scan the same dataset independently. The
    first access per dataset still builds the index and collects cold
    statistics exactly once. *)
val fresh_source : t -> string -> Source.t

(** [factory t name] is the dataset's source factory (building it on first
    use): each call stamps out a fresh view. Exposed so wrappers (e.g. the
    fault-injection harness) can capture the genuine factory before
    replacing it with {!install_factory}. *)
val factory : t -> string -> unit -> Source.t

(** [index_info t name] is available after the first access to a CSV or
    JSON dataset. *)
val index_info : t -> string -> index_info option

(** [read_column src path ~lo ~hi] reads rows [\[lo, hi)] of [path] into
    one column, a batch of 1024 rows at a time: through the accessor's
    native batch fill when it has one, else seek-and-get per row. Checks
    cancellation per batch; raises what the accessor raises. The one range
    reader behind slot columns ({!materialize_field}), shard digests and
    the cache's append tails. *)
val read_column : Source.t -> string -> lo:int -> hi:int -> Proteus_storage.Column.t

(** [materialize_field t ~dataset ~path] eagerly materializes a promoted
    JSON path into a typed cache column straight from the format index's
    slot accessors (a {e pre-parsed slot column}), so later promoted reads
    skip numparse/span decoding entirely. No-op for non-JSON datasets,
    already-cached paths, and paths the cache policy rejects; recoverable
    failures abandon the materialization silently. Moves {!generation}
    either way (a promotion changes the layout staged engines baked in).
    Wired as the promotion hook by the db facade. *)
val materialize_field : t -> dataset:string -> path:string -> unit

(** Whether cache hits on [(dataset, path)] are served by a pre-parsed slot
    column (observability; feeds the [slot-reads=] counter). *)
val slot_column : t -> dataset:string -> path:string -> bool

(** Invalidate the memoized index of a dataset (data updates: "drop and
    rebuild affected auxiliary structures", Section 4). Also resets the
    dataset's circuit breaker: a re-registered member starts with a clean
    circuit. *)
val invalidate : t -> string -> unit

(** [extend t name ~tail] follows an append to [name]'s byte image: the
    structural index is extended over the appended bytes only and the
    dataset's views, statistics and factory move to the grown index, which
    bumps {!generation}. Before anything can see the grown view, [tail src
    ~from] gets a view over it and the index of the first appended row, so
    the caching manager can fill its columns' appended rows. Returns
    [false] — having done {!invalidate} instead — when no index was built
    yet, or when the appended bytes break a specialization (a fixed JSON
    schema), fail to parse, or continue the last old row. *)
val extend : t -> string -> tail:(Source.t -> from:int -> unit) -> bool

(** {1 Resilience}

    The shard member build path runs through a resilience ladder
    (DESIGN.md section 15): a per-member circuit {!Proteus_resilience.Breaker}
    (open members are skipped without touching their plug-in), an optional
    straggler {!Proteus_resilience.Hedge}, and a configurable retry budget
    ({!Proteus_resilience.Policy}) replacing the historical rebuild-once. *)

(** A factory interposer: [ip name genuine] wraps the genuine source
    factory of dataset [name]. Applied at every factory {e resolution},
    so — unlike {!install_factory} wrappers — it survives the retry
    path's invalidations. The fault-injection harness uses it for latency
    stalls and flaky members. *)
type interposer = string -> (unit -> Source.t) -> unit -> Source.t

(** Install (or clear) the interposer; resolved factories are dropped so
    the change takes effect on the next build. *)
val set_interposer : t -> interposer option -> unit

val interposer : t -> interposer option

(** The retry budget of shard member builds. The default,
    {!Proteus_resilience.Policy.default} (2 attempts), preserves the
    historical rebuild-once-from-scratch contract. *)
val set_retry_policy : t -> Proteus_resilience.Policy.t -> unit

(** The straggler hedge over member builds; [None] (the default) disables
    hedging. Only armed under [Fail_fast] — degraded policies record
    per-row errors into shared report cells, and a speculative duplicate
    would double-account them. *)
val set_hedge : t -> Proteus_resilience.Hedge.t option -> unit

(** Breaker thresholds for member circuits; existing breakers are dropped
    and recreated under the new config on next admission. *)
val set_breaker_config : t -> Proteus_resilience.Breaker.config -> unit

(** Current breaker states, sorted by member name — the server's [health]
    verb. Only members that have been admitted at least once appear. *)
val breaker_states : t -> (string * Proteus_resilience.Breaker.state) list

(** Whether [name]'s breaker is currently rejecting admissions (open,
    still cooling). Read-only — never claims the half-open probe slot;
    the engine's shard arm consults this to skip digest work for members
    the scatter will skip anyway. *)
val breaker_blocked : t -> string -> bool

(** A segmented cache-fill in flight: per-range column builders keyed by
    their start row, committed in ascending start order with one [Array.blit]
    per segment — so a cold run installs columns bit-identical at every
    width. Created by a filling {!scan} and shared across the
    {!scan_view}s of the fleet that drives it, whose driver runs
    {!session_arm} before the run, {!session_commit} after a clean one, and
    {!session_release} when the run raises. A session whose run recorded
    errors (skipped rows leave compacted, hole-y segments) is
    quarantined at commit, never installed — the DESIGN.md section 10
    install-on-commit contract, kept on the morsel spine. *)
type fill_session

val session_arm : fill_session -> unit
val session_commit : fill_session -> unit
val session_release : fill_session -> unit

(** A cache-aware scan over one dataset. *)
type scan = {
  sc_source : Source.t;
      (** like {!source}, but [field] serves cache-hit paths from their
          binary cache columns *)
  sc_count : int;  (** row count of the underlying source *)
  sc_range : lo:int -> hi:int -> on_tuple:(unit -> unit) -> unit;
      (** scan one OID morsel [lo, hi) — every scan is driven morsel by
          morsel; with a fill session it fills one cache segment keyed by
          [lo] as a side effect *)
  sc_range_batches :
    lo:int -> hi:int -> batch:int -> on_batch:(base:int -> len:int -> unit) -> unit;
      (** one OID morsel as fixed-size batches (the batch lane's driver);
          never fills inline — the driver fills per batch through
          [sc_fill_sel] *)
  sc_fill : fill_session option;
      (** the scan's fill session: a filling {!scan} exposes the session
          its policy elected here so the fleet driver can run the
          arm/commit/release lifecycle and share it with per-worker views *)
  sc_fill_sel : (base:int -> sel:int array -> n:int -> unit) option;
      (** [sc_fill_sel ~base ~sel ~n] fills rows [base + sel.(0..n-1)] into
          a fresh segment keyed by [base] — the batch lane's fill: called on
          the probe-surviving selection of each batch, before query filters
          narrow it. Vector-capable paths gather through the plug-in's
          native batch fill; the rest seek per selected row. *)
  sc_probe : (unit -> unit) option;
      (** reads every fallible accessor the query requires at the current
          cursor (plus the format's structural validator and, when [whole],
          the boxed element) — the Skip_row commit test. [None] when the
          scan cannot fail (all paths cache-routed or binary). *)
  sc_dataset : string;  (** dataset name, for error attribution *)
}

(** [scan t ~dataset ~required] prepares a scan reading the [required]
    dotted paths. [whole] declares that the consumer also reconstructs
    whole elements (Volcano-style [Whole] requirements), so the Skip_row
    probe must cover the full element, not just [required]. Scan drivers
    honour the active {!Proteus_model.Fault} policy: they skip faulty rows
    (probe-then-commit), check the cancellation token at row-chunk
    boundaries, and quarantine cache fills of runs that saw errors. The
    engine reads a driving scan's row count and fill session from it; the
    fleet's workers then scan through {!scan_view}s sharing that session. *)
val scan : ?whole:bool -> t -> dataset:string -> required:string list -> scan

(** [scan_view t ~dataset ~required] is like {!scan} but over a
    {!fresh_source} view and with no private cache filling — the per-worker
    scan of morsel-driven parallel execution. Cache-hit paths still route
    to their (read-only) cache columns. Passing [?session] (a filling scan's
    [sc_fill]) makes the view fill that shared session's elected paths
    through its own raw accessors: each [sc_range] morsel (tuple lane)
    or [sc_fill_sel] batch (batch lane) lands in its own segment, and the
    fleet driver commits them in row order — the parallel cold run. *)
val scan_view :
  ?whole:bool -> ?session:fill_session -> t -> dataset:string ->
  required:string list -> scan

(** [install_factory t name f] replaces the source factory of a registered
    dataset — the hook the fault-injection test harness uses to wrap real
    sources with failing accessors. The shared source view is replaced
    eagerly so cold statistics are not re-collected through [f]. *)
val install_factory : t -> string -> (unit -> Source.t) -> unit

(** {1 Shard sets}

    A dataset may be a {e shard set}: an ordered list of immutable member
    datasets (each its own file and plug-in instance) scanned as one
    concatenated row space. The concatenated view enumerates rows in
    member order, so sharded execution is bit-identical to a single file
    holding the same rows; the engine additionally prunes shards whose
    digests prove a pushed-down conjunct empty (DESIGN.md section 14). *)

(** One shard's slice of the concatenated row space. *)
type shard_info = { sh_member : string; sh_offset : int; sh_rows : int }

(** Pruning digest of one (member, path): a zone map with one zone over
    the member's rows (min/max over numbers or strings, exact) and a Bloom
    filter over the canonical keys of its non-null values, which refines
    equality — see DESIGN.md section 17 for soundness w.r.t. [Expr.cmp]. *)
type shard_digest = {
  sd_zones : Proteus_storage.Zonemap.t;
  sd_bloom : Proteus_storage.Bloom.t;
}

(** [register_shard_set t ~name ~members] registers [name] as a shard set
    over the already-registered [members] (which must share one element
    type) and gives it a catalog entry of its own. Raises [Plan_error] on
    an empty member list, element mismatch, or unknown member. *)
val register_shard_set : t -> name:string -> members:string list -> unit

(** [add_shard t ~name ~member] appends one more (already-registered)
    member to a shard set — the immutable-shard growth path. *)
val add_shard : t -> name:string -> member:string -> unit

(** [shard_parents t name] lists the shard sets containing [name]. *)
val shard_parents : t -> string -> string list

(** [shards t name] is the shard layout the engine prunes against —
    offsets and row counts in member order, matching the views the parent
    factory last stamped out (a degraded member shows as an empty shard).
    [None] for ordinary datasets. *)
val shards : t -> string -> shard_info array option

(** [shard_digest t ~member ~path] builds (lazily, memoized) the pruning
    digest of one member for one dotted path, from one {!read_column}
    pass. [None] when the digest is unobtainable (unknown or boolean path,
    degraded member, no rows) — pruning stands down. *)
val shard_digest : t -> member:string -> path:string -> shard_digest option
