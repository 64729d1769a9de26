(** The Caching Manager (Section 6 "Adapting Storage to Workload").

    Caches are populated as a side-effect of query execution and exposed to
    later queries as an extra binary input:

    - {b field caches}: evaluated field expressions of raw CSV/JSON scans,
      packed into binary columns aligned with the dataset's OIDs. Policy
      (Section 6 "Cache Policies"): eager for primitive values of verbose
      formats, never for variable-length strings (they pollute the cache);
    - {b packed caches}: materialized intermediate relations — join build
      sides — keyed by the canonical fingerprint of the sub-plan that
      produced them ("implicit caching"; the partial-match reuse of one
      already-materialized radix-join side).

    All blocks live in the memory manager's pinned arena and are evicted by
    its format-biased LRU (JSON caches outlive CSV, CSV outlive binary). *)

open Proteus_catalog

type config = {
  cache_csv_fields : bool;
  cache_json_fields : bool;
  cache_strings : bool;      (** default false, as in the paper *)
  cache_join_sides : bool;
  cache_select_results : bool;
      (** materialize sigma-over-scan results (explicit caching operators near
          the leaves); default false *)
  subsumption : bool;
      (** let a cached weaker predicate answer a stricter query with a
          residual re-filter — the future-work extension of Section 6;
          default true (only observable when sigma-results exist) *)
  promote : bool;
      (** workload-adaptive promotion: track per-column reads and
          selective-predicate compilations; past [promote_threshold],
          promote the cached column — numeric columns gain a zone map the
          scan drivers use to skip morsels, string columns become cacheable
          as dictionaries. Default false *)
  promote_threshold : int;
      (** accesses (reads + selective-conjunct compilations) before a column
          promotes; default 3 *)
  promote_projections : bool;
      (** adaptive storage 2.0: promoted numeric columns whose workload
          showed range predicates additionally materialize a sorted
          projection (the OID permutation in value order), so range scans
          skip morsels even on unclustered data. Default true (inert unless
          [promote] is on) *)
}

val default_config : config

val config_disabled : config

type t

val create : ?config:config -> Catalog.t -> t

(** The interface handed to the execution layer. Every entry point (and the
    introspection/maintenance API below) is serialized by an internal lock,
    so one manager can back concurrent query sessions. *)
val iface : t -> Proteus_plugin.Cache_iface.t

(** [set_on_promote t f] registers [f dataset path] to run after a column
    promotes (outside the manager's lock). Hooks accumulate and fire in
    registration order. The db layer's hook materializes pre-parsed slot
    columns for promoted JSON paths and moves the registry generation, so
    prepared statements and the server's engine cache re-stage the plans
    that baked in the pre-promotion layout — no zone skip, no dictionary
    probe. *)
val set_on_promote : t -> (string -> string -> unit) -> unit

(** {1 Introspection} *)

type stats = {
  field_hits : int;
  field_misses : int;
  field_stores : int;
  packed_hits : int;
  packed_misses : int;
  packed_stores : int;
  select_hits : int;
  select_subsumed : int;
  select_stores : int;
  quarantined : int;
      (** fills computed but discarded because the producing run recorded
          errors or aborted (install-on-commit; see {!Cache_iface.t}) *)
  fill_commits : int;
      (** committed segmented fills — one per cache-filling dataset scan
          whose run finished clean (serial or parallel) *)
  fill_segments : int;
      (** per-(worker,morsel) buffer segments blit-assembled into cache
          columns across all committed fills (serial fills count 1 each) *)
  fill_rows : int;  (** rows materialized across committed fills *)
  promotions : int;
      (** promotion events: columns whose access count crossed the
          workload threshold *)
  zone_maps : int;  (** zone-map side structures built (at fill commit or
                        at promotion of an already-filled column) *)
  dict_columns : int;  (** string columns re-encoded as dictionaries *)
  sorted_projections : int;
      (** sorted projections built (OID permutation in value order)
          for promoted columns with observed range predicates *)
  slot_columns : int;
      (** typed columns materialized straight from format-index spans at
          promotion (pre-parsed JSON slot columns) *)
  tail_rows : int;
      (** appended rows filled into kept cached columns, summed over
          columns ({!extend_dataset}) *)
  layouts_extended : int;
      (** cached columns, zone maps and sorted projections extended over
          appended rows instead of dropped *)
  layouts_dropped : int;
      (** of those, dropped because the appended rows broke them: a row
          that does not parse, a NaN under a projection *)
}

val stats : t -> stats

(** {1 Promotion introspection (tests, CLI)} *)

val is_promoted : t -> dataset:string -> path:string -> bool

(** The zone map of a promoted column, when one exists ([None] for
    unpromoted or unsupported columns, and after eviction). *)
val lookup_zones :
  t -> dataset:string -> path:string -> Proteus_storage.Zonemap.t option

(** The sorted projection of a promoted column, when one was built ([None]
    for unpromoted columns, columns without observed range predicates, and
    after eviction). *)
val lookup_projection :
  t -> dataset:string -> path:string -> Proteus_storage.Projection.t option

(** [bytes_for t ~dataset] is the total resident cache bytes built from one
    dataset (field caches plus materialized join sides and sigma-results). *)
val bytes_for : t -> dataset:string -> int

(** [field_bytes_for t ~dataset] counts only the OID-aligned field-cache
    columns — the quantity behind the cache-size/file-size ratios of
    Section 7.2. *)
val field_bytes_for : t -> dataset:string -> int

(** Total resident cache bytes. *)
val resident_bytes : t -> int

(** [invalidate_dataset t ~dataset] drops every cache derived from the
    dataset (the paper's update handling: affected auxiliary structures are
    dropped and rebuilt). *)
val invalidate_dataset : t -> dataset:string -> unit

(** [extend_dataset t ~dataset ~source ~from] follows an append that grew
    [dataset] from [from] rows to [source]'s count, rows [\[0, from)]
    unchanged. Cached columns keep their rows and read only the appended
    ones through [source]; zone maps and sorted projections extend over
    them; access history and promotions stay. A column whose appended rows
    do not all read cleanly is dropped (the next scan refills it), as is a
    projection a NaN arrived under. Materialized join sides and
    sigma-results over the dataset are dropped: they are plan-derived. *)
val extend_dataset :
  t -> dataset:string -> source:Proteus_plugin.Source.t -> from:int -> unit

val clear : t -> unit
