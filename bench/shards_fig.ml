(* Sharded scatter-gather execution: shard-count scaling against the
   single-file engine, and pre-dispatch zone-map/Bloom pruning at two
   predicate selectivities (DESIGN.md section 14).

   Two questions, each with an honest baseline among the records:
   - what does splitting one file into N shards cost on a non-selective
     scan (fan-out/fan-in overhead vs the same rows in one file)?
   - what does pruning buy on a selective scan over clustered keys, where
     most shards are provably empty — vs the same query unsharded, and vs
     the 50%-selectivity case where half the shards must still run? *)

module Plan = Proteus_algebra.Plan
module Expr = Proteus_model.Expr
module Ptype = Proteus_model.Ptype
module Monoid = Proteus_model.Monoid
module Counters = Proteus_engine.Counters
module Json = Proteus_format.Json

let rows = 200_000
let shard_counts = [ 2; 4; 8 ]

let ev_type =
  Ptype.Record [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float) ]

(* one CSV text for the single file, split into contiguous chunks for the
   shard sets — identical bytes overall, so the cells isolate the shard
   machinery, not the data *)
let csv_lines =
  lazy
    (Array.init rows (fun i ->
         Fmt.str "%d,%d,%d.25" i (i mod 7) (i mod 100)))

let csv_range lo hi =
  let lines = Lazy.force csv_lines in
  let buf = Buffer.create ((hi - lo) * 16) in
  for i = lo to hi - 1 do
    Buffer.add_string buf lines.(i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let make_db ~shards =
  let db = Proteus.Db.create () in
  (if shards <= 1 then
     Proteus.Db.register_csv db ~name:"events" ~element:ev_type
       ~contents:(csv_range 0 rows) ()
   else
     let per = rows / shards in
     let chunks =
       List.init shards (fun s ->
           csv_range (s * per) (if s = shards - 1 then rows else (s + 1) * per))
     in
     Proteus.Db.register_sharded_csv db ~name:"events" ~element:ev_type
       ~shards:chunks ());
  db

let scan_query frac =
  Util.tune
    (Plan.reduce
       ~pred:Expr.(Field (var "x", "k") <. int (rows * frac / 100))
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
         Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum)
           (Expr.Field (Expr.var "x", "price")) ]
       (Plan.scan ~dataset:"events" ~binding:"x" ()))

let shard_label shards =
  if shards <= 1 then "single file" else Fmt.str "%d shards" shards

let at ?counters ~figure name ~shards ~domains t =
  Util.record ~figure ?counters
    ~params:[ ("shards", Json.Int shards); ("domains", Json.Int domains) ]
    name t

(* Non-selective scan, warm caches: every shard runs, so the cell is pure
   fan-out/fan-in overhead against the single file. *)
let scaling_cells () =
  let plan = scan_query 100 in
  List.concat_map
    (fun shards ->
      let db = make_db ~shards in
      Fmt.pr "   full scan, %s:" (shard_label shards);
      let records =
        List.map
          (fun domains ->
            let t = Util.measure_at db ~domains plan in
            Fmt.pr " %dd=%.2fms" domains (Util.ms t.Util.median);
            at ~figure:"shard_scaling" "full scan" ~shards ~domains t)
          (List.sort_uniq compare [ 1; Util.max_domains ])
      in
      Fmt.pr "@.";
      records)
    (1 :: shard_counts)

(* Selective scans over clustered keys, raw files (caching off so pruning
   arms — a cold cache fill deliberately stands down): at 1% selectivity
   7 of 8 shards are provably empty and never dispatched; at 50% half the
   shards must run regardless. The single-file rows run the same queries
   without shards. *)
let pruning_cells () =
  let domains = Util.max_domains in
  List.concat_map
    (fun frac ->
      let name = Fmt.str "selective %d%%" frac in
      let plan = scan_query frac in
      List.map
        (fun shards ->
          let db = make_db ~shards in
          Proteus.Db.set_caching db false;
          let t = Util.measure_at db ~domains plan in
          let _, s =
            Proteus_engine.Executor.measure (fun () ->
                Proteus.Db.run_plan ~domains db plan)
          in
          let pruned = s.Counters.shards_pruned in
          Fmt.pr "   pruning, %s, %s: %.2fms (pruned %d/%d)@." name (shard_label shards)
            (Util.ms t.Util.median) pruned shards;
          at ~figure:"shard_pruning" ~counters:[ ("shards_pruned", pruned) ] name ~shards
            ~domains t)
        [ 1; 8 ])
    [ 1; 50 ]

let run_all () =
  Fmt.pr "@.== Sharded scatter-gather: scaling + zone-map/Bloom pruning ==@.";
  let scaling = scaling_cells () in
  let pruning = pruning_cells () in
  Util.print_note
    "full-scan cells measure fan-out/fan-in overhead (all shards run); \
     pruning cells run over raw files where provably-empty shards are \
     never dispatched";
  scaling @ pruning
