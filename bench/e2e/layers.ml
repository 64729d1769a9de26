(* Per-layer metrics of a traced run.

   Times come from the spans (self time per layer, [Trace.self_times]).
   Counts are deltas of the program's existing public statistics — the
   engine's [Counters] and the caching manager's stats — taken around each
   traced request and summed. Times and counts are reported per traced
   request, so their base (the number of traced requests, printed with
   them) travels along; each share names its base below. *)

module Counters = Proteus_engine.Counters
module Manager = Proteus_cache.Manager

type counts = {
  scan_ns : int;
  build_ns : int;
  probe_ns : int;
  merge_ns : int;
  fill_ns : int;
  tuples : int;
  batches : int;
  batch_rows : int;
  batch_selected : int;
  morsels : int;
  morsels_skipped : int;
  probe_skipped : int;
  sorted_seeks : int;
  slot_reads : int;
  field_hits : int;
  field_misses : int;
  fill_rows : int;
  promotions : int;
}

let read db =
  let c = Counters.snapshot () in
  let m = Manager.stats (Proteus.Db.cache_manager db) in
  {
    scan_ns = c.scan_ns;
    build_ns = c.build_ns;
    probe_ns = c.probe_ns;
    merge_ns = c.merge_ns;
    fill_ns = c.fill_ns;
    tuples = c.tuples;
    batches = c.batches;
    batch_rows = c.batch_rows;
    batch_selected = c.batch_selected;
    morsels = c.morsels;
    morsels_skipped = c.morsels_skipped;
    probe_skipped = c.probe_morsels_skipped;
    sorted_seeks = c.sorted_seeks;
    slot_reads = c.slot_reads;
    field_hits = m.field_hits;
    field_misses = m.field_misses;
    fill_rows = m.fill_rows;
    promotions = m.promotions;
  }

let combine f a b =
  {
    scan_ns = f a.scan_ns b.scan_ns;
    build_ns = f a.build_ns b.build_ns;
    probe_ns = f a.probe_ns b.probe_ns;
    merge_ns = f a.merge_ns b.merge_ns;
    fill_ns = f a.fill_ns b.fill_ns;
    tuples = f a.tuples b.tuples;
    batches = f a.batches b.batches;
    batch_rows = f a.batch_rows b.batch_rows;
    batch_selected = f a.batch_selected b.batch_selected;
    morsels = f a.morsels b.morsels;
    morsels_skipped = f a.morsels_skipped b.morsels_skipped;
    probe_skipped = f a.probe_skipped b.probe_skipped;
    sorted_seeks = f a.sorted_seeks b.sorted_seeks;
    slot_reads = f a.slot_reads b.slot_reads;
    field_hits = f a.field_hits b.field_hits;
    field_misses = f a.field_misses b.field_misses;
    fill_rows = f a.fill_rows b.fill_rows;
    promotions = f a.promotions b.promotions;
  }

let zero =
  {
    scan_ns = 0;
    build_ns = 0;
    probe_ns = 0;
    merge_ns = 0;
    fill_ns = 0;
    tuples = 0;
    batches = 0;
    batch_rows = 0;
    batch_selected = 0;
    morsels = 0;
    morsels_skipped = 0;
    probe_skipped = 0;
    sorted_seeks = 0;
    slot_reads = 0;
    field_hits = 0;
    field_misses = 0;
    fill_rows = 0;
    promotions = 0;
  }

(* What the server layer adds; only serve_prepared fills it. *)
type server = {
  tcp_p50_s : float;          (* request latency over the wire *)
  inproc_p50_s : float;       (* same stream through Scheduler.run *)
  queue_wait_s : float;       (* summed over the Scheduler.run requests *)
  compile_s : float;
  run_s : float;
  sched_wall_s : float;
  sched_requests : int;
  lookups : int;              (* engine-cache deltas over the wire phase *)
  hits : int;
  evictions : int;
  invalidations : int;
  wire_requests : int;
}

type t = {
  trace : Trace.t;
  mutable requests : int;  (* traced requests: the base of every per-request value *)
  mutable sum : counts;
  (* tracing overhead: traced and untraced requests of one run, interleaved *)
  mutable traced_n : int;
  mutable traced_wall : float;
  mutable plain_n : int;
  mutable plain_wall : float;
  mutable resident_bytes : int;
  mutable server : server option;
}

let create () =
  {
    trace = Trace.create ();
    requests = 0;
    sum = zero;
    traced_n = 0;
    traced_wall = 0.;
    plain_n = 0;
    plain_wall = 0.;
    resident_bytes = 0;
    server = None;
  }

let add_counts t d = t.sum <- combine ( + ) t.sum d

(* One request's wall clock, on the traced or the untraced side of the
   overhead comparison. *)
let note t ~traced wall =
  if traced then begin
    t.traced_n <- t.traced_n + 1;
    t.traced_wall <- t.traced_wall +. wall
  end
  else begin
    t.plain_n <- t.plain_n + 1;
    t.plain_wall <- t.plain_wall +. wall
  end

(* [counted t db f] runs one traced request [f], adding the statistics it
   moved. Only one client runs at a time on this path. *)
let counted t db f =
  let before = read db in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let wall = Unix.gettimeofday () -. t0 in
  add_counts t (combine ( - ) (read db) before);
  t.requests <- t.requests + 1;
  note t ~traced:true wall;
  v

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Every per-layer metric BENCHMARK.json declares, in its order, as
   (name, value, unit). A layer a workload does not exercise reads 0. *)
let metrics t =
  let n = float_of_int (max 1 t.requests) in
  let self = Trace.self_times t.trace in
  let span_ms name = 1000. *. Option.value ~default:0. (Hashtbl.find_opt self name) /. n in
  let per_req x = float_of_int x /. n in
  let c = t.sum in
  let phase_ms x = float_of_int x /. 1e6 /. n in
  let sv f = match t.server with Some s -> f s | None -> 0. in
  [
    ("optimizer.plan_ms", span_ms "optimizer.plan", "ms");
    ("engine.stage_ms", span_ms "engine.stage", "ms");
    ("engine.exec_ms", span_ms "engine.exec", "ms");
    ("plugin.index_ms", span_ms "plugin.index", "ms");
    ("proteus.encode_ms", span_ms "proteus.encode", "ms");
    ("engine.scan_ms", phase_ms c.scan_ns, "ms");
    ("engine.build_ms", phase_ms c.build_ns, "ms");
    ("engine.probe_ms", phase_ms c.probe_ns, "ms");
    ("engine.tuples", per_req c.tuples, "count/req");
    (* base: rows entering batch-lane pipelines *)
    ("engine.batch_density", ratio c.batch_selected c.batch_rows, "ratio");
    (* base of both skip shares: the scan units (batches and morsels)
       dispatched, plus the ones skipped *)
    ( "engine.probe_skip_share",
      ratio c.probe_skipped (c.batches + c.morsels + c.probe_skipped),
      "ratio" );
    ( "storage.skip_share",
      ratio c.morsels_skipped (c.batches + c.morsels + c.morsels_skipped),
      "ratio" );
    ("storage.sorted_seeks", per_req c.sorted_seeks, "count/req");
    ("plugin.slot_reads", per_req c.slot_reads, "count/req");
    ("cache.fill_rows", per_req c.fill_rows, "count/req");
    ("cache.field_hit_ratio", ratio c.field_hits (c.field_hits + c.field_misses), "ratio");
    ("cache.promotions", per_req c.promotions, "count/req");
    ("cache.resident_mb", float_of_int t.resident_bytes /. 1e6, "MB");
    (* base: the wire p50 *)
    ( "server.protocol_share",
      sv (fun s -> (s.tcp_p50_s -. s.inproc_p50_s) /. s.tcp_p50_s),
      "ratio" );
    (* base: summed Scheduler.run request wall *)
    ("server.queue_wait_share", sv (fun s -> s.queue_wait_s /. s.sched_wall_s), "ratio");
    ("server.engine_hit_ratio", sv (fun s -> ratio s.hits s.lookups), "ratio");
    ( "server.engine_evictions",
      sv (fun s -> ratio s.evictions s.wire_requests),
      "count/req" );
    ( "server.engine_invalidations",
      sv (fun s -> ratio s.invalidations s.wire_requests),
      "count/req" );
    ( "trace.overhead_pct",
      (if t.traced_n = 0 || t.plain_n = 0 then 0.
       else
         100.
         *. ((t.traced_wall /. float_of_int t.traced_n)
             /. (t.plain_wall /. float_of_int t.plain_n)
            -. 1.)),
      "%" );
  ]

(* Layer numbers printed beside the declared ones but kept out of
   BENCHMARK.json: each is structurally zero on some workload (no SQL text
   in spam_cold, no fills once tpch_mixed is warm, no parallel merge on one
   domain, no server elsewhere). *)
let details t =
  let n = float_of_int (max 1 t.requests) in
  let self = Trace.self_times t.trace in
  let self_of name = Option.value ~default:0. (Hashtbl.find_opt self name) in
  let request_total = Trace.total t.trace "request" in
  let server =
    match t.server with
    | None -> []
    | Some s ->
      let per x = 1000. *. x /. float_of_int (max 1 s.sched_requests) in
      [
        ("server.protocol_ms", 1000. *. (s.tcp_p50_s -. s.inproc_p50_s), "ms");
        ("server.queue_wait_ms", per s.queue_wait_s, "ms");
        ("server.compile_ms", per s.compile_s, "ms");
        ("server.run_ms", per s.run_s, "ms");
      ]
  in
  [
    ("trace.requests", float_of_int t.requests, "count");
    ("lang.parse_ms", 1000. *. self_of "lang.parse" /. n, "ms");
    ("engine.fill_ms", float_of_int t.sum.fill_ns /. 1e6 /. n, "ms");
    ("engine.merge_ms", float_of_int t.sum.merge_ns /. 1e6 /. n, "ms");
    (* share of traced request wall that the layer spans account for *)
    ( "trace.coverage_pct",
      (if request_total = 0. then 0.
       else 100. *. (1. -. (self_of "request" /. request_total))),
      "%" );
  ]
  @ server
