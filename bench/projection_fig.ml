(* Adaptive storage 2.0 (DESIGN.md section 16): what do the three promoted
   layouts buy over the layouts that came before them?

   Three experiments, each cell median-of-k warm:

   - scrambled scan: outlier-planted data (every zone's [min,max] spans the
     whole domain) under a 1% BETWEEN band. unpromoted = caching without
     promotion; zone_only = promotion without projections (min/max pruning is
     powerless here); sorted = the sorted projection isolates the band's
     zones and skips the rest.
   - json slots: a hot numeric JSON path. span_decoded = caching disabled, so
     every run re-walks the format index and numparses the spans; slot = the
     promotion hook materialized a typed column straight from the spans.
   - selective join: a 100-key dimension probing a 200k fact. unarmed = no
     promotion, the probe drives every batch; armed = the build's key summary
     (min/max + Bloom) prunes probe batches wholesale. *)

module Plan = Proteus_algebra.Plan
module Expr = Proteus_model.Expr
module Ptype = Proteus_model.Ptype
module Value = Proteus_model.Value
module Monoid = Proteus_model.Monoid
module Manager = Proteus_cache.Manager
module Counters = Proteus_engine.Counters
module Json = Proteus_format.Json

let fact_rows = 200_000
let band_lo = 100_000
let band_n = 2_000 (* 1% of the fact *)
let dim_lo = 100_000
let dim_n = 100
let json_rows = 40_000

let fact_type =
  Ptype.Record [ ("k", Ptype.Int); ("u", Ptype.Int); ("price", Ptype.Float) ]

(* u = i except every 50th row is pinned to a domain edge: zone min/max are
   useless, value order is not *)
let u_of i =
  if i mod 50 = 0 then 0 else if i mod 50 = 25 then fact_rows - 1 else i

let fact_csv =
  let buf = Buffer.create (fact_rows * 20) in
  for i = 0 to fact_rows - 1 do
    Buffer.add_string buf (Fmt.str "%d,%d,%d.25\n" i (u_of i) (i mod 100))
  done;
  Buffer.contents buf

let json_type =
  Ptype.Record [ ("id", Ptype.Int); ("price", Ptype.Float); ("qty", Ptype.Int) ]

let json_text =
  let buf = Buffer.create (json_rows * 40) in
  for i = 0 to json_rows - 1 do
    Buffer.add_string buf
      (Fmt.str "{\"id\": %d, \"price\": %d.5, \"qty\": %d}\n" i i (i mod 7))
  done;
  Buffer.contents buf

let dim_type = Ptype.Record [ ("gid", Ptype.Int); ("w", Ptype.Int) ]

let dims =
  List.init dim_n (fun i ->
      Value.record
        [ ("gid", Value.Int (dim_lo + i)); ("w", Value.Int (2 * (dim_lo + i))) ])

let make_db ?caching () =
  let db = Proteus.Db.create ?caching () in
  Proteus.Db.register_csv db ~name:"fact" ~element:fact_type ~contents:fact_csv
    ();
  Proteus.Db.register_json db ~name:"events" ~element:json_type
    ~contents:json_text;
  Proteus.Db.register_columns_of db ~name:"dim" ~element:dim_type dims;
  db

let promote_cfg =
  { Manager.default_config with promote = true; promote_threshold = 2 }

let zone_only_cfg = { promote_cfg with promote_projections = false }
let slot_cfg = { promote_cfg with promote_threshold = 1 }

let x f = Expr.(Field (var "x", f))

let scan_query =
  Plan.reduce
    ~pred:Expr.((x "u" >=. int band_lo) &&& (x "u" <. int (band_lo + band_n)))
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "price") ]
    (Plan.scan ~dataset:"fact" ~binding:"x" ())

let json_query =
  Plan.reduce
    ~pred:Expr.(x "price" >=. float 10_000.)
    [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "price") ]
    (Plan.scan ~dataset:"events" ~binding:"x" ())

let join_query =
  Plan.reduce
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"w" (Monoid.Primitive Monoid.Sum)
        Expr.(Field (var "d", "w")) ]
    (Plan.join
       ~pred:Expr.(x "k" ==. Field (var "d", "gid"))
       (Plan.scan ~dataset:"fact" ~binding:"x" ())
       (Plan.scan ~dataset:"dim" ~binding:"d" ()))

let cell ~experiment ~name db query =
  let run () =
    Proteus.Db.run_plan ~engine:Proteus.Db.Engine_compiled ~batch_size:1024 db query
  in
  (* enough passes to cross any promotion threshold and fill caches before
     the median is taken *)
  for _ = 1 to 3 do ignore (run ()) done;
  let t = Util.measure_n 7 (fun () -> ignore (run ())) in
  (* the counters of one instrumented run *)
  let _, s = Proteus_engine.Executor.measure run in
  ( Util.record ~figure:"projection_layouts"
      ~params:[ ("experiment", Json.Str experiment) ]
      ~counters:
        [
          ("morsels", s.Counters.morsels);
          ("morsels_skipped", s.Counters.morsels_skipped);
          ("probe_morsels_skipped", s.Counters.probe_morsels_skipped);
          ("slot_reads", s.Counters.slot_reads);
        ]
      name t,
    t.Util.median,
    s )

let run_all () =
  Fmt.pr "@.== Adaptive storage 2.0: sorted projections, slots, join pruning ==@.";
  (* scrambled scan: unpromoted / zone-only / sorted projection *)
  let r_base, base_t, _ =
    cell ~experiment:"scrambled_scan" ~name:"unpromoted" (make_db ()) scan_query
  in
  let r_zone, zone_t, zone_s =
    cell ~experiment:"scrambled_scan" ~name:"zone_only"
      (make_db ~caching:zone_only_cfg ()) scan_query
  in
  let r_proj, proj_t, proj_s =
    cell ~experiment:"scrambled_scan" ~name:"sorted_projection"
      (make_db ~caching:promote_cfg ()) scan_query
  in
  (* skipped morsels out of all the scan's morsels, run or skipped *)
  let skips (s : Counters.snapshot) = (s.morsels_skipped, s.morsels_skipped + s.morsels) in
  let zone_skipped, zone_total = skips zone_s and proj_skipped, proj_total = skips proj_s in
  Fmt.pr "   unpromoted: %.2fms  zone-only: %.2fms (skipped %d/%d)  sorted: %.2fms (skipped %d/%d)@."
    (Util.ms base_t) (Util.ms zone_t) zone_skipped zone_total (Util.ms proj_t) proj_skipped
    proj_total;
  Fmt.pr "   sorted vs zone-only: %.1fx, skip rate %.1f%% (target: >=3x, >=90%%)@."
    (zone_t /. proj_t)
    (100. *. float_of_int proj_skipped /. float_of_int (max 1 proj_total));
  (* json slots: span-decoded every run vs the pre-parsed slot column *)
  let span_db = make_db () in
  Proteus.Db.set_caching span_db false;
  let r_span, span_t, _ =
    cell ~experiment:"json_slots" ~name:"span_decoded" span_db json_query
  in
  let r_slot, slot_t, slot_s =
    cell ~experiment:"json_slots" ~name:"slot_column" (make_db ~caching:slot_cfg ())
      json_query
  in
  Fmt.pr "   span-decoded: %.2fms  slot: %.2fms (slot-reads=%d) — %.1fx (target >=2x)@."
    (Util.ms span_t) (Util.ms slot_t) slot_s.Counters.slot_reads
    (span_t /. slot_t);
  (* selective join: the build's key summary pruning the probe *)
  let r_unarmed, unarmed_t, _ =
    cell ~experiment:"selective_join" ~name:"unarmed" (make_db ()) join_query
  in
  let armed_db = make_db ~caching:promote_cfg () in
  (* a ranged warm-up promotes the probe key, publishing its zone map *)
  let warm_key =
    Plan.reduce ~pred:Expr.(x "k" <. int 64)
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.scan ~dataset:"fact" ~binding:"x" ())
  in
  for _ = 1 to 3 do
    ignore (Proteus.Db.run_plan ~engine:Proteus.Db.Engine_compiled
              ~batch_size:1024 armed_db warm_key)
  done;
  let r_armed, armed_t, armed_s =
    cell ~experiment:"selective_join" ~name:"bloom_armed" armed_db join_query
  in
  Fmt.pr "   unarmed: %.2fms  armed: %.2fms (probe-skipped=%d) — %.1fx@."
    (Util.ms unarmed_t) (Util.ms armed_t)
    armed_s.Counters.probe_morsels_skipped (unarmed_t /. armed_t);
  Util.print_note
    "zone maps see [min,max] = the whole domain in every zone here; only the \
     value-ordered projection can isolate the band, and only the build-side \
     key summary can prune the join probe";
  [ r_base; r_zone; r_proj; r_span; r_slot; r_unarmed; r_armed ]
