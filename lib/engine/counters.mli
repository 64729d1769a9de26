(** Proxy performance counters.

    The paper explains Proteus' join wins over MonetDB with hardware
    counters (dTLB misses, LLC misses, branches). Hardware counters are not
    reachable from portable OCaml, so both executors maintain software
    proxies that expose the same mechanism: per-tuple interpretation
    dispatches, boxed values materialized at pipeline breakers, and
    per-tuple control-flow branch points.

    The counters are domain-safe: each domain increments its own atomic
    cell and {!snapshot} sums across cells, so concurrent morsel workers
    lose no increments. *)

type snapshot = {
  tuples : int;          (** tuples pushed through scan loops *)
  dispatches : int;
      (** dynamic-dispatch events: one per interpreted expression node
          evaluation (Volcano) — the compiled engine resolves these at
          query-compile time *)
  materialized : int;    (** boxed values written at pipeline breakers *)
  branch_points : int;   (** per-tuple control-flow decisions taken *)
  batches : int;         (** batches emitted by batch-lane scans *)
  batch_rows : int;      (** rows entering batch-lane pipelines *)
  batch_selected : int;  (** rows surviving batch-lane filters *)
  lanes_batch : int;     (** pipeline fragments compiled to the batch lane *)
  lanes_tuple : int;     (** pipelines driven tuple-at-a-time *)
  scan_ns : int;         (** wall clock driving join-free pipelines *)
  build_ns : int;        (** wall clock in join builds (materialize + cluster) *)
  probe_ns : int;        (** wall clock driving the probe side of joins *)
  merge_ns : int;        (** wall clock merging parallel partials / replays *)
  fill_ns : int;
      (** wall clock committing segmented cache fills (blit assembly +
          arena installation) *)
  morsels : int;
      (** morsels handed out by fleet dispensers — at every width, since a
          one-domain query runs a one-worker fleet *)
  morsels_skipped : int;
      (** morsels (fleet dispenser) and batches (batch driver) skipped
          outright because a pruning summary proved no row could qualify:
          a zone map or sorted projection refuting a pushed-down
          comparison, a range lying wholly in pruned shards, or an Inner
          join build's key summary refuting the probe key (which also
          ticks [probe_morsels_skipped]) *)
  zone_checks : int;
      (** summary tests evaluated by the pruning layer: zone-map,
          sorted-projection and join-key tests per morsel/batch, plus one
          shard-digest test per (shard, test) when a run arms *)
  sorted_seeks : int;
      (** binary-search seeks into a sorted projection: one per range-conjunct
          resolution that narrowed the value order to a zone bitmap *)
  probe_morsels_skipped : int;
      (** probe-side morsels/batches skipped because the join build's key
          summary (min/max, Bloom filter) proved them free of matches *)
  slot_reads : int;
      (** rows served from a pre-parsed slot column — a cache column the
          registry materialized straight from format-index spans, skipping
          numparse/span decoding (plugin-layer total, mirrored here) *)
  shards_pruned : int;
      (** shards excluded before dispatch because their digest (row count,
          min/max, Bloom filter) proved a pushed-down conjunct or
          equi-join key set empty *)
  dict_probes : int;
      (** batch-kernel evaluations that ran on dictionary codes instead of
          decoded strings (equality as code compare, LIKE per entry) *)
  errors_seen : int;     (** recoverable data errors observed (fault layer) *)
  rows_skipped : int;    (** rows dropped by the [Skip_row] policy *)
  fields_nulled : int;   (** field reads substituted by [Null_fill] *)
  shards_retried : int;
      (** shard member build retries taken out of the retry budget
          (resilience layer) *)
  shards_hedged : int;   (** speculative straggler re-dispatches launched *)
  breaker_open : int;    (** member builds skipped by an open circuit breaker *)
  shed : int;
      (** queries rejected at submit because their deadline was infeasible
          given the scheduler's queue-wait estimate *)
}

(** Coarse execution phases for wall-clock attribution. [Scan] is pipeline
    driving with no join on the pipeline; [Probe] is the probe-side drive of
    a join-bearing pipeline (its scan time counts as probe); [Build] is join
    build work; [Merge] is partial-result merging and buffered replay;
    [Fill] is cache-fill commit (segment blit assembly and installation). *)
type phase = Scan | Build | Probe | Merge | Fill

val reset : unit -> unit
val snapshot : unit -> snapshot

val add_tuples : int -> unit
val add_dispatches : int -> unit
val add_materialized : int -> unit
val add_branch_points : int -> unit
val add_batches : int -> unit
val add_batch_rows : int -> unit
val add_batch_selected : int -> unit
val add_lanes_batch : int -> unit
val add_lanes_tuple : int -> unit
val add_morsels : int -> unit
val add_morsels_skipped : int -> unit
val add_zone_checks : int -> unit
val add_sorted_seeks : int -> unit
val add_probe_morsels_skipped : int -> unit
val add_shards_pruned : int -> unit
val add_dict_probes : int -> unit
val add_phase_ns : phase -> int -> unit

(** [time ph f] runs [f ()] and adds its wall-clock duration to phase [ph].
    Phase times are cumulative across domains (two domains timing the same
    phase concurrently both contribute), and nested spans each record their
    full extent — read them as attribution, not elapsed time. *)
val time : phase -> (unit -> 'a) -> 'a

(** Average selection density of batch-lane batches
    ([batch_selected / batch_rows]; 1.0 when no batches ran). *)
val selection_density : snapshot -> float

val pp : Format.formatter -> snapshot -> unit
