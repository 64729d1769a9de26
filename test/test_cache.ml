(* Tests for the caching manager and its integration with scans and joins:
   policies, population as a side-effect, hits on re-query, eviction wiring,
   invalidation. *)

open Proteus_model
open Proteus_catalog
open Proteus_plugin
open Proteus_cache
module Plan = Proteus_algebra.Plan
module Executor = Proteus_engine.Executor

let check_value = Alcotest.testable Value.pp Value.equal

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("v", Ptype.Float); ("s", Ptype.String) ]

let items =
  List.init 100 (fun i ->
      Value.record
        [ ("k", Value.Int i); ("v", Value.Float (float_of_int (i mod 10)));
          ("s", Value.String (Fmt.str "str%d" i)) ])

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)

let make_session ?config () =
  let cat = Catalog.create () in
  let mem = Catalog.memory cat in
  Proteus_storage.Memory.register_blob mem ~name:"items.json" (to_json items);
  Catalog.register cat
    (Dataset.make ~name:"items" ~format:Dataset.Json
       ~location:(Dataset.Blob "items.json") ~element:item_type);
  Proteus_storage.Memory.register_blob mem ~name:"items.csv"
    (Proteus_format.Csv.of_records Proteus_format.Csv.default_config
       (Schema.of_type item_type) items);
  Catalog.register cat
    (Dataset.make ~name:"items_csv"
       ~format:(Dataset.Csv Proteus_format.Csv.default_config)
       ~location:(Dataset.Blob "items.csv") ~element:item_type);
  let mgr = Manager.create ?config cat in
  let reg = Registry.create ~cache:(Manager.iface mgr) cat in
  (cat, mgr, reg)

let count_plan ds =
  Plan.reduce
    ~pred:Expr.(Field (var "x", "k") <. int 50)
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
    (Plan.scan ~dataset:ds ~binding:"x" ())

let test_fill_then_hit () =
  let _, mgr, reg = make_session () in
  let r1 = Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items") in
  Alcotest.check check_value "first run" (Value.Int 50) r1;
  let s = Manager.stats mgr in
  Alcotest.(check bool) "populated k column" true (s.Manager.field_stores >= 1);
  let before_hits = s.Manager.field_hits in
  let r2 = Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items") in
  Alcotest.check check_value "second run same result" (Value.Int 50) r2;
  let s2 = Manager.stats mgr in
  Alcotest.(check bool) "second run hits the cache" true
    (s2.Manager.field_hits > before_hits)

let test_strings_not_cached () =
  let _, mgr, reg = make_session () in
  let plan =
    Plan.reduce
      ~pred:Expr.(Binop (Like, Field (var "x", "s"), str "str1%"))
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.scan ~dataset:"items" ~binding:"x" ())
  in
  ignore (Executor.run reg ~engine:Executor.Engine_compiled plan);
  let s = Manager.stats mgr in
  Alcotest.(check int) "no string columns stored" 0 s.Manager.field_stores

let test_csv_policy_toggle () =
  let config = { Manager.default_config with cache_csv_fields = false } in
  let _, mgr, reg = make_session ~config () in
  ignore (Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items_csv"));
  Alcotest.(check int) "csv caching disabled" 0 (Manager.stats mgr).Manager.field_stores;
  ignore (Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items"));
  Alcotest.(check bool) "json caching still on" true
    ((Manager.stats mgr).Manager.field_stores > 0)

let test_cached_result_identical () =
  (* results and cache-backed results must agree on every engine *)
  let _, _, reg = make_session () in
  let plan =
    Plan.nest
      ~keys:[ ("vv", Expr.(Field (var "x", "v"))) ]
      ~aggs:[ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      ~binding:"g"
      (Plan.scan ~dataset:"items" ~binding:"x" ())
  in
  let r1 = Executor.run reg ~engine:Executor.Engine_compiled plan in
  let r2 = Executor.run reg ~engine:Executor.Engine_compiled plan in
  Alcotest.check check_value "idempotent under caching" r1 r2

let test_join_side_cached () =
  let _, mgr, reg = make_session () in
  let plan =
    Plan.reduce
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.join
         ~pred:Expr.(Field (var "a", "v") ==. Field (var "b", "v"))
         (Plan.scan ~dataset:"items_csv" ~binding:"a" ())
         (Plan.scan ~dataset:"items" ~binding:"b" ()))
  in
  let r1 = Executor.run reg ~engine:Executor.Engine_compiled plan in
  let s1 = Manager.stats mgr in
  Alcotest.(check bool) "build side stored" true (s1.Manager.packed_stores >= 1);
  let r2 = Executor.run reg ~engine:Executor.Engine_compiled plan in
  let s2 = Manager.stats mgr in
  Alcotest.check check_value "same result from packed cache" r1 r2;
  Alcotest.(check bool) "packed hit" true (s2.Manager.packed_hits > s1.Manager.packed_hits)

let test_bytes_accounting () =
  let _, mgr, reg = make_session () in
  ignore (Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items"));
  Alcotest.(check bool) "bytes attributed to dataset" true
    (Manager.bytes_for mgr ~dataset:"items" > 0);
  Alcotest.(check int) "other dataset untouched" 0
    (Manager.bytes_for mgr ~dataset:"items_csv")

let test_invalidate_dataset () =
  let _, mgr, reg = make_session () in
  ignore (Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items"));
  Manager.invalidate_dataset mgr ~dataset:"items";
  Alcotest.(check int) "caches dropped" 0 (Manager.bytes_for mgr ~dataset:"items");
  (* and the query still works, re-populating *)
  Alcotest.check check_value "requery ok" (Value.Int 50)
    (Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items"))

let test_eviction_under_pressure () =
  (* tiny arena: caches must be evicted, queries must stay correct *)
  let cat = Catalog.create ~cache_budget:2_000 () in
  let mem = Catalog.memory cat in
  Proteus_storage.Memory.register_blob mem ~name:"items.json" (to_json items);
  Catalog.register cat
    (Dataset.make ~name:"items" ~format:Dataset.Json
       ~location:(Dataset.Blob "items.json") ~element:item_type);
  let mgr = Manager.create cat in
  let reg = Registry.create ~cache:(Manager.iface mgr) cat in
  for _ = 1 to 3 do
    Alcotest.check check_value "stable under eviction" (Value.Int 50)
      (Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items"))
  done

let test_disabled_config_stores_nothing () =
  let _, mgr, reg = make_session ~config:Manager.config_disabled () in
  ignore (Executor.run reg ~engine:Executor.Engine_compiled (count_plan "items"));
  let s = Manager.stats mgr in
  Alcotest.(check int) "no field stores" 0 s.Manager.field_stores;
  Alcotest.(check int) "no resident bytes" 0 (Manager.resident_bytes mgr)

let count_k_lt ds k =
  Plan.reduce
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
    (Plan.select
       Expr.(Field (var "x", "k") <. int k)
       (Plan.scan ~dataset:ds ~binding:"x" ()))

(* A select over a scan caches the field columns it read and nothing
   plan-derived: every resident byte is an OID-aligned column. *)
let test_select_caches_columns_only () =
  let _, mgr, reg = make_session () in
  List.iter
    (fun ds ->
      Alcotest.check check_value (ds ^ " count") (Value.Int 50)
        (Executor.run reg ~engine:Executor.Engine_compiled (count_k_lt ds 50)))
    [ "items"; "items_csv" ];
  let s = Manager.stats mgr in
  Alcotest.(check bool) "field columns stored" true (s.Manager.field_stores >= 2);
  Alcotest.(check int) "no packed stores" 0 s.Manager.packed_stores;
  Alcotest.(check int) "resident bytes are field columns"
    (Manager.field_bytes_for mgr ~dataset:"items"
    + Manager.field_bytes_for mgr ~dataset:"items_csv")
    (Manager.resident_bytes mgr)

(* A stricter predicate over the same column reads the column a looser one
   cached: no new stores, only hits. *)
let test_stricter_select_reads_cached_columns () =
  let _, mgr, reg = make_session () in
  Alcotest.check check_value "looser count" (Value.Int 80)
    (Executor.run reg ~engine:Executor.Engine_compiled (count_k_lt "items" 80));
  let s1 = Manager.stats mgr in
  Alcotest.check check_value "stricter count" (Value.Int 20)
    (Executor.run reg ~engine:Executor.Engine_compiled (count_k_lt "items" 20));
  let s2 = Manager.stats mgr in
  Alcotest.(check int) "no new field stores" s1.Manager.field_stores s2.Manager.field_stores;
  Alcotest.(check bool) "column hit" true (s2.Manager.field_hits > s1.Manager.field_hits)

(* Without a caching manager the registry holds the null cache interface:
   a select over a scan reads the raw file on both lanes, every run. *)
let test_select_without_manager () =
  let cat, _, _ = make_session () in
  let reg = Registry.create cat in
  List.iter
    (fun bs ->
      for _ = 1 to 2 do
        Alcotest.check check_value (Fmt.str "batch=%d count" bs) (Value.Int 30)
          (Executor.run ~batch_size:bs reg ~engine:Executor.Engine_compiled
             (count_k_lt "items_csv" 30))
      done)
    [ 0; 1024 ]

(* An arena too small for any column: the policy declines every fill up
   front, so a prepared statement over a 20k-row CSV (four shards, so that
   pruning has per-shard digests without any cache) commits no fill on any
   run, keeps pruning on — it skips the morsels a caching-off run skips —
   and answers as a fresh [Db.sql]. *)
let test_oversized_fill_not_elected () =
  let module Db = Proteus.Db in
  let module Counters = Proteus_engine.Counters in
  let shard s =
    Proteus_format.Csv.of_records Proteus_format.Csv.default_config
      (Schema.of_type item_type)
      (List.init 5_000 (fun i ->
           let k = (s * 5_000) + i in
           Value.record
             [ ("k", Value.Int k); ("v", Value.Float (float_of_int (k mod 10)));
               ("s", Value.String "s") ]))
  in
  let shards = List.init 4 shard in
  let session ?cache_budget () =
    let db = Db.create ?cache_budget () in
    Db.register_sharded_csv db ~name:"items_csv" ~element:item_type ~shards ();
    db
  in
  let q = "SELECT COUNT(1), SUM(v) FROM items_csv WHERE k < ?" in
  let params = [ ("1", Value.Int 100) ] in
  let prepared db = Db.prepare ~optimize:false ~params db (Db.plan_sql db q) in
  let off = session () in
  Db.set_caching off false;
  let _, s_off = Executor.measure (prepared off).Db.run in
  Alcotest.(check bool) "caching off skips morsels" true (s_off.Counters.morsels_skipped > 0);
  let db = session ~cache_budget:64 () in
  let p = prepared db in
  for i = 1 to 3 do
    let v, s = Executor.measure p.Db.run in
    let tag x = Fmt.str "run %d: %s" i x in
    Alcotest.check check_value (tag "answer") (Db.sql db ~params q) v;
    Alcotest.(check int) (tag "no fill committed") 0
      (Db.cache_stats db).Manager.fill_commits;
    Alcotest.(check int) (tag "skips as caching off") s_off.Counters.morsels_skipped
      s.Counters.morsels_skipped
  done

let () =
  Alcotest.run "cache"
    [
      ( "manager",
        [
          Alcotest.test_case "fill then hit" `Quick test_fill_then_hit;
          Alcotest.test_case "strings not cached" `Quick test_strings_not_cached;
          Alcotest.test_case "csv policy toggle" `Quick test_csv_policy_toggle;
          Alcotest.test_case "cached result identical" `Quick test_cached_result_identical;
          Alcotest.test_case "join side cached" `Quick test_join_side_cached;
          Alcotest.test_case "bytes accounting" `Quick test_bytes_accounting;
          Alcotest.test_case "invalidate dataset" `Quick test_invalidate_dataset;
          Alcotest.test_case "eviction under pressure" `Quick test_eviction_under_pressure;
          Alcotest.test_case "disabled stores nothing" `Quick
            test_disabled_config_stores_nothing;
          Alcotest.test_case "select caches columns only" `Quick
            test_select_caches_columns_only;
          Alcotest.test_case "stricter select reads cached columns" `Quick
            test_stricter_select_reads_cached_columns;
          Alcotest.test_case "select without a manager" `Quick test_select_without_manager;
          Alcotest.test_case "oversized fill not elected" `Quick
            test_oversized_fill_not_elected;
        ] );
    ]
