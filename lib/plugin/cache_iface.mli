(** The narrow interface through which the execution layer talks to the
    caching manager (implemented in [proteus_cache]; wired by the facade).
    Keeping it here avoids a dependency cycle: plug-ins fill caches as a
    side-effect of scanning, the engine consults them when compiling. *)

open Proteus_model
open Proteus_storage

(** A materialized relation: OID-aligned columns keyed by field path. *)
type packed = {
  length : int;
  cols : (string * Column.t) list;
}

type t = {
  lookup_field : dataset:string -> path:string -> Column.t option;
      (** a binary column caching expression [x.path] over [dataset] *)
  store_field :
    dataset:string -> path:string -> bias:Memory.Arena.bias -> Column.t -> bool;
      (** [false] when the arena refused the column (larger than the whole
          arena): nothing was installed *)
  should_cache_field : dataset:string -> path:string -> ty:Ptype.t -> rows:int -> bool;
      (** the caching policy: e.g. eager for CSV/JSON primitives, never for
          variable-length strings (Section 6 "Cache Policies"); never for a
          column of [rows] values that could not fit the whole arena, so no
          scan builds a fill that [store_field] must refuse *)
  lookup_packed : key:string -> packed option;
      (** a materialized join build side, keyed by the fingerprint of the
          sub-plan that produced it *)
  store_packed :
    key:string -> datasets:string list -> bias:Memory.Arena.bias -> packed -> unit;
      (** [datasets] are the raw inputs the packed result derives from (for
          invalidation and accounting) *)
  quarantine : id:string -> unit;
      (** account one fill discarded instead of installed because the
          producing scan saw errors or aborted (install-on-commit: a query
          that skips rows or dies mid-scan must never install a
          partially-filled or hole-y cache block) *)
  note_fill : dataset:string -> segments:int -> rows:int -> unit;
      (** account one committed segmented fill: [segments] per-range buffers
          were blit-assembled into [rows]-row cache columns for [dataset] *)
  note_selective : dataset:string -> path:string -> ranged:bool -> unit;
      (** workload feedback: the engine compiled a selective comparison
          conjunct over [dataset.path] — the promotion policy's signal that
          the column is hot (ticked once per query compilation, not per
          tuple). [ranged] marks a range (not just equality) comparison:
          the additional signal that a sorted projection would pay off *)
  lookup_zones : dataset:string -> path:string -> Zonemap.t option;
      (** the zone map of a {e promoted} cached column, if any: per-zone
          min/max the scan drivers consult to skip whole morsels/batches
          that cannot satisfy a pushed-down comparison *)
  lookup_projection : dataset:string -> path:string -> Projection.t option;
      (** the sorted projection of a {e promoted} cached column, if any:
          an OID permutation in value order that proves morsels empty
          under range conjuncts even when the data is unclustered *)
  note_slot_column : dataset:string -> path:string -> unit;
      (** the registry materialized a promoted path straight from a format
          index (pre-parsed slot column) and stored it: the manager marks
          the installed entry (no-op when the arena refused the block) —
          provenance plus a stats signal *)
  slot_column : dataset:string -> path:string -> bool;
      (** whether the cached column of [dataset.path] is a pre-parsed slot
          column; the mark belongs to the cached entry, so a drop or an
          eviction takes it and a later refill starts unmarked *)
}

(** A cache handle that never hits and never stores (caching disabled). *)
val disabled : t
