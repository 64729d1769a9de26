(* Query counters: software proxies for the paper's hardware counters,
   pruning, caching and resilience event counts, and per-phase wall clock.

   The paper explains Proteus' join wins over MonetDB with hardware
   counters (dTLB misses, LLC misses, branches). Hardware counters are not
   reachable from portable OCaml, so both executors maintain software
   proxies that expose the same mechanism: per-tuple interpretation
   dispatches, boxed values materialized at pipeline breakers, and
   per-tuple control-flow branch points.

   Every count belongs to a query. A query's fault context
   ([Fault.install]) owns a [t]: one plain int block per domain that ran
   the query, reached through domain-local storage, so a tick on the
   per-tuple path is a DLS read and an unshared array write, never a
   shared atomic. When the query finishes, [Fault.finish] sums the blocks
   on the installing domain (after every worker joined, so the plain
   writes are visible) into the query's [snapshot], carried by its report,
   and folds the sum into the process totals that [snapshot ()] reads.
   With no query active a tick lands in the process totals directly,
   atomically, since any domain may tick them. *)

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
      (** morsels the fleet dispenser skipped outright because a pruning summary proved no row could qualify:
          a zone map or sorted projection refuting a pushed-down
          comparison, a range lying wholly in pruned shards, or an Inner
          join build's key summary refuting the probe key (which also
          ticks [probe_morsels_skipped]) *)
  zone_checks : int;
      (** summary tests evaluated by the pruning layer: zone-map,
          sorted-projection and join-key tests per morsel, plus one
          shard-digest test per (shard, test) when a run arms *)
  sorted_seeks : int;
      (** binary-search seeks into a sorted projection: one per range-conjunct
          resolution that narrowed the value order to a zone bitmap *)
  probe_morsels_skipped : int;
      (** probe-side morsels skipped because the join build's key
          summary (min/max, Bloom filter) proved them free of matches *)
  slot_reads : int;
      (** rows served from a pre-parsed slot column — a cache column the
          registry materialized straight from format-index spans, skipping
          numparse/span decoding *)
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
}

(* Coarse execution phases for wall-clock attribution. [Scan] is pipeline
   driving with no join on the pipeline; [Probe] is the probe-side drive of
   a join-bearing pipeline (its scan time counts as probe); [Build] is join
   build work; [Merge] is partial-result merging and buffered replay;
   [Fill] is cache-fill commit (segment blit assembly and installation). *)
type phase = Scan | Build | Probe | Merge | Fill

(* One cell per [snapshot] field, in field order. *)
let n = 28

let of_counts a =
  {
    tuples = a.(0);
    dispatches = a.(1);
    materialized = a.(2);
    branch_points = a.(3);
    batches = a.(4);
    batch_rows = a.(5);
    batch_selected = a.(6);
    lanes_batch = a.(7);
    lanes_tuple = a.(8);
    scan_ns = a.(9);
    build_ns = a.(10);
    probe_ns = a.(11);
    merge_ns = a.(12);
    fill_ns = a.(13);
    morsels = a.(14);
    morsels_skipped = a.(15);
    zone_checks = a.(16);
    sorted_seeks = a.(17);
    probe_morsels_skipped = a.(18);
    slot_reads = a.(19);
    shards_pruned = a.(20);
    dict_probes = a.(21);
    errors_seen = a.(22);
    rows_skipped = a.(23);
    fields_nulled = a.(24);
    shards_retried = a.(25);
    shards_hedged = a.(26);
    breaker_open = a.(27);
  }

let totals = Array.init n (fun _ -> Atomic.make 0)

(* The process totals: every finished query's counts plus the ticks made
   with no query active. Monotonic — a delta of two snapshots is the work
   done between them. *)
let snapshot () = of_counts (Array.map Atomic.get totals)

let zero = of_counts (Array.make n 0)

(* One query's counter cells: a private block per domain that ran it. *)
type t = { blocks : int array list Atomic.t }

let create () = { blocks = Atomic.make [] }

(* The calling domain's block of the active query; empty = no query. *)
let block = Domain.DLS.new_key (fun () -> [||])

(* A cache of [block] in front of the DLS lookup, which costs more than the
   tick itself: slot [id land 63] holds the block of the domain [id] that
   attached last. Only domain [id] writes an entry owned by [id] (domain
   ids are never reused), so an owner match is always the domain's current
   block; a domain whose slot another domain took falls back to the DLS. *)
type owned = { owner : int; cells : int array }

let vacant = { owner = -1; cells = [||] }
let owners = Array.make 64 vacant

let rec push t b =
  let l = Atomic.get t.blocks in
  if not (Atomic.compare_and_set t.blocks l (b :: l)) then push t b

(* [attach (Some t)] routes the calling domain's ticks into a fresh block
   of [t]; [attach None] routes them to the process totals. *)
let attach c =
  let me = (Domain.self () :> int) in
  let b =
    match c with
    | None -> [||]
    | Some t ->
      let b = Array.make n 0 in
      push t b;
      b
  in
  Domain.DLS.set block b;
  let slot = me land 63 in
  if Array.length b > 0 then owners.(slot) <- { owner = me; cells = b }
  else if owners.(slot).owner = me then owners.(slot) <- vacant

(* Sum [t]'s blocks, add the sum to the process totals and return it: once,
   after every domain that ran the query is done. *)
let fold t =
  let sum = Array.make n 0 in
  List.iter
    (Array.iteri (fun i v -> sum.(i) <- sum.(i) + v))
    (Atomic.get t.blocks);
  Array.iteri
    (fun i v -> if v <> 0 then ignore (Atomic.fetch_and_add totals.(i) v))
    sum;
  of_counts sum

let add i k =
  let me = (Domain.self () :> int) in
  let o = owners.(me land 63) in
  let b = if o.owner = me then o.cells else Domain.DLS.get block in
  if Array.length b = 0 then ignore (Atomic.fetch_and_add totals.(i) k)
  else b.(i) <- b.(i) + k

let add_tuples k = add 0 k
let add_dispatches k = add 1 k
let add_materialized k = add 2 k
let add_branch_points k = add 3 k
let add_batches k = add 4 k
let add_batch_rows k = add 5 k
let add_batch_selected k = add 6 k
let add_lanes_batch k = add 7 k
let add_lanes_tuple k = add 8 k
let add_morsels k = add 14 k
let add_morsels_skipped k = add 15 k
let add_zone_checks k = add 16 k
let add_sorted_seeks k = add 17 k
let add_probe_morsels_skipped k = add 18 k
let add_slot_reads k = add 19 k
let add_shards_pruned k = add 20 k
let add_dict_probes k = add 21 k
let add_errors_seen k = add 22 k
let add_rows_skipped k = add 23 k
let add_fields_nulled k = add 24 k
let add_shards_retried k = add 25 k
let add_shards_hedged k = add 26 k
let add_breaker_open k = add 27 k

let add_phase_ns ph k =
  add (match ph with Scan -> 9 | Build -> 10 | Probe -> 11 | Merge -> 12 | Fill -> 13) k

(* Per-phase wall clock, cumulative across domains: a span timed on two
   domains at once contributes twice, so sums can exceed elapsed time on a
   parallel run — they answer "where did the work go", not "how long did
   the query take". Exceptions propagate with the partial span recorded. *)
let time ph f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      add_phase_ns ph (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)))
    f

let selection_density s =
  if s.batch_rows = 0 then 1.
  else float_of_int s.batch_selected /. float_of_int s.batch_rows

let ms ns = float_of_int ns /. 1e6

let pp ppf s =
  Fmt.pf ppf
    "tuples=%d dispatches=%d materialized=%d branches=%d batches=%d \
     batch-rows=%d batch-selected=%d (density %.3f) lanes: %d batch / %d tuple"
    s.tuples s.dispatches s.materialized s.branch_points s.batches s.batch_rows
    s.batch_selected (selection_density s) s.lanes_batch s.lanes_tuple;
  if s.morsels > 0 || s.morsels_skipped > 0 then
    Fmt.pf ppf " morsels=%d" s.morsels;
  if s.morsels_skipped > 0 || s.zone_checks > 0 then
    Fmt.pf ppf " zone-checks=%d morsels-skipped=%d" s.zone_checks s.morsels_skipped;
  if s.sorted_seeks > 0 then Fmt.pf ppf " sorted-seeks=%d" s.sorted_seeks;
  if s.probe_morsels_skipped > 0 then
    Fmt.pf ppf " probe-morsels-skipped=%d" s.probe_morsels_skipped;
  if s.slot_reads > 0 then Fmt.pf ppf " slot-reads=%d" s.slot_reads;
  if s.shards_pruned > 0 then Fmt.pf ppf " shards-pruned=%d" s.shards_pruned;
  if s.dict_probes > 0 then Fmt.pf ppf " dict-probes=%d" s.dict_probes;
  if s.scan_ns + s.build_ns + s.probe_ns + s.merge_ns + s.fill_ns > 0 then begin
    Fmt.pf ppf " phases[ms]: scan=%.2f build=%.2f probe=%.2f merge=%.2f"
      (ms s.scan_ns) (ms s.build_ns) (ms s.probe_ns) (ms s.merge_ns);
    if s.fill_ns > 0 then Fmt.pf ppf " fill=%.2f" (ms s.fill_ns)
  end;
  if s.errors_seen + s.rows_skipped + s.fields_nulled > 0 then
    Fmt.pf ppf " faults: errors=%d skipped=%d nulled=%d" s.errors_seen
      s.rows_skipped s.fields_nulled;
  if s.shards_retried + s.shards_hedged + s.breaker_open > 0 then
    Fmt.pf ppf " shards-retried=%d shards-hedged=%d breaker-open=%d"
      s.shards_retried s.shards_hedged s.breaker_open
