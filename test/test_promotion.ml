(* Differential tests for workload-adaptive cache promotion: zone-map morsel
   skipping and dictionary-encoded string caches must be invisible in results
   — promotion on/off, any domain count, any batch size, any format — while
   observably skipping work on clustered selective scans. *)

open Proteus_model
open Proteus_catalog
open Proteus_plugin
open Proteus_cache
open Proteus_storage
module Plan = Proteus_algebra.Plan
module Executor = Proteus_engine.Executor
module Counters = Proteus_engine.Counters

let check_value = Alcotest.testable Value.pp Value.equal

let n_rows = 4000

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("u", Ptype.Int); ("v", Ptype.Float); ("s", Ptype.String) ]

let item_schema = Schema.of_type item_type

(* k is sorted (clustered: zone maps differentiate); u is the same domain
   scrambled by a Knuth-style multiplicative hash (zones all span nearly the
   full range: skipping must stand down, results must not change). *)
let items =
  List.init n_rows (fun i ->
      Value.record
        [ ("k", Value.Int i);
          ("u", Value.Int (i * 2654435761 mod n_rows));
          ("v", Value.Float (float_of_int i *. 0.5));
          ("s", Value.String (Fmt.str "str%d" (i mod 97))) ])

let null_type = Ptype.Record [ ("k", Ptype.Int); ("m", Ptype.Option Ptype.Int) ]

let nulls =
  List.init 500 (fun i ->
      Value.record [ ("k", Value.Int i); ("m", Value.Null) ])

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)

let formats = [ "pcsv"; "pjson"; "prow"; "pcol" ]

let make_session ?cache_budget ?config () =
  let cat = Catalog.create ?cache_budget () in
  let mem = Catalog.memory cat in
  Memory.register_blob mem ~name:"p.csv"
    (Proteus_format.Csv.of_records Proteus_format.Csv.default_config item_schema
       items);
  Catalog.register cat
    (Dataset.make ~name:"pcsv"
       ~format:(Dataset.Csv Proteus_format.Csv.default_config)
       ~location:(Dataset.Blob "p.csv") ~element:item_type);
  Memory.register_blob mem ~name:"p.json" (to_json items);
  Catalog.register cat
    (Dataset.make ~name:"pjson" ~format:Dataset.Json
       ~location:(Dataset.Blob "p.json") ~element:item_type);
  Catalog.register cat
    (Dataset.make ~name:"prow" ~format:Dataset.Binary_row
       ~location:(Dataset.Rows (Rowpage.of_records item_schema items))
       ~element:item_type);
  let col name ty =
    (name, Column.of_values ty (List.map (fun r -> Value.field r name) items))
  in
  Catalog.register cat
    (Dataset.make ~name:"pcol" ~format:Dataset.Binary_column
       ~location:
         (Dataset.Columns
            [ col "k" Ptype.Int; col "u" Ptype.Int; col "v" Ptype.Float;
              col "s" Ptype.String ])
       ~element:item_type);
  Memory.register_blob mem ~name:"pnull.json" (to_json nulls);
  Catalog.register cat
    (Dataset.make ~name:"pnull" ~format:Dataset.Json
       ~location:(Dataset.Blob "pnull.json") ~element:null_type);
  let mgr = Manager.create ?config cat in
  let reg = Registry.create ~cache:(Manager.iface mgr) cat in
  (mgr, reg)

let promote_config =
  { Manager.default_config with promote = true; promote_threshold = 2 }

let agg_count = Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1)

let count ~pred ds =
  Plan.reduce ~pred [ agg_count ] (Plan.scan ~dataset:ds ~binding:"x" ())

let x field = Expr.(Field (var "x", field))

(* The query mix: selective range on the clustered column, range on the
   scrambled column, a wider range summing a second column, and string
   equality / LIKE (the dictionary lane). *)
let plans ds =
  [ ("k<40", count ~pred:Expr.(x "k" <. int 40) ds);
    ("u<40", count ~pred:Expr.(x "u" <. int 40) ds);
    ( "sum v | k<200",
      Plan.reduce
        ~pred:Expr.(x "k" <. int 200)
        [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "v") ]
        (Plan.scan ~dataset:ds ~binding:"x" ()) );
    ("s=str7", count ~pred:Expr.(x "s" ==. str "str7") ds);
    ("s like", count ~pred:Expr.(Binop (Like, x "s", str "str1%")) ds) ]

(* --- bit-identity: promotion on/off x domains x batch sizes x formats ----- *)

let test_differential () =
  (* reference: caching disabled entirely, serial tuple lane *)
  let _, reg_ref = make_session ~config:Manager.config_disabled () in
  let reference ds =
    List.map
      (fun (name, p) ->
        (name, Executor.run ~batch_size:0 reg_ref ~engine:Executor.Engine_compiled p))
      (plans ds)
  in
  let engines = [ ("d1", 1); ("d2", 2); ("d4", 4) ] in
  let batches = [ 0; 256; 1024 ] in
  List.iter
    (fun ds ->
      let expected = reference ds in
      List.iter
        (fun (cfg_name, config) ->
          let _, reg = make_session ~config () in
          (* several passes so caches fill, columns cross the promotion
             threshold, and zone maps / dictionaries engage mid-matrix *)
          for pass = 1 to 4 do
            List.iter
              (fun (ename, domains) ->
                List.iter
                  (fun bs ->
                    List.iter2
                      (fun (pname, p) (_, want) ->
                        let got =
                          Executor.run ~batch_size:bs reg
                            ~domains ~engine:Executor.Engine_compiled p
                        in
                        Alcotest.check check_value
                          (Fmt.str "%s/%s pass%d %s bs=%d %s" ds cfg_name pass
                             ename bs pname)
                          want got)
                      (plans ds) expected)
                  batches)
              engines
          done)
        [ ("off", Manager.default_config); ("on", promote_config) ])
    formats

(* --- zone-map skipping: clustered, scrambled, all-null ------------------- *)

(* Warm the cache and cross the promotion threshold, then measure one run. *)
let warm_then_measure ?domains reg ~runs plan ~engine ~batch_size =
  for _ = 1 to runs do
    ignore (Executor.run ~batch_size reg ~engine:Executor.Engine_compiled plan)
  done;
  Executor.measure (fun () -> Executor.run ~batch_size ?domains reg ~engine plan)

let test_zone_skip_clustered () =
  let mgr, reg = make_session ~config:promote_config () in
  let plan = count ~pred:Expr.(x "k" <. int 40) "pcsv" in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~domains:4 ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  Alcotest.check check_value "clustered count" (Value.Int 40) r;
  Alcotest.(check bool) "column promoted" true
    (Manager.is_promoted mgr ~dataset:"pcsv" ~path:"k");
  Alcotest.(check bool) "zone map exists" true
    (Manager.lookup_zones mgr ~dataset:"pcsv" ~path:"k" <> None);
  Alcotest.(check bool)
    (Fmt.str "skips most morsels (skipped=%d dispensed=%d)" s.Counters.morsels_skipped
       s.Counters.morsels)
    true
    (s.Counters.morsels_skipped >= s.Counters.morsels);
  Alcotest.(check bool) "zone tests ran" true (s.Counters.zone_checks > 0)

let test_zone_skip_serial_batches () =
  let _, reg = make_session ~config:promote_config () in
  let plan = count ~pred:Expr.(x "k" <. int 40) "pjson" in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~engine:Executor.Engine_compiled
      ~batch_size:256
  in
  Alcotest.check check_value "serial count" (Value.Int 40) r;
  (* 4000 rows / 256 per batch = 16 batches; only the first can contain k<40 *)
  Alcotest.(check bool)
    (Fmt.str "batch-granularity skip (skipped=%d)" s.Counters.morsels_skipped)
    true
    (s.Counters.morsels_skipped >= 8)

let test_zone_skip_scrambled () =
  let _, reg = make_session ~config:promote_config () in
  let plan = count ~pred:Expr.(x "u" <. int 40) "pcsv" in
  let r, _ =
    warm_then_measure reg ~runs:4 plan ~domains:4 ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  (* u is a permutation of 0..n-1, so the count matches the clustered one;
     zones span nearly the whole domain and may not skip anything — the
     result is the only contract *)
  Alcotest.check check_value "scrambled count" (Value.Int 40) r

let test_zone_skip_all_null () =
  let mgr, reg = make_session ~config:promote_config () in
  let plan = count ~pred:Expr.(x "m" <. int 5) "pnull" in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~domains:2 ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  (* Null < 5 is false for every row; all-null zones prove it wholesale *)
  Alcotest.check check_value "all-null count" (Value.Int 0) r;
  Alcotest.(check bool) "null column promoted" true
    (Manager.is_promoted mgr ~dataset:"pnull" ~path:"m");
  Alcotest.(check bool)
    (Fmt.str "all-null zones skip everything (skipped=%d dispensed=%d)"
       s.Counters.morsels_skipped s.Counters.morsels)
    true
    (s.Counters.morsels_skipped > 0 && s.Counters.morsels = 0)

(* --- dictionary-encoded string caches ------------------------------------ *)

let test_dict_parity () =
  let mgr, reg = make_session ~config:promote_config () in
  let eq_plan = count ~pred:Expr.(x "s" ==. str "str7") "pjson" in
  let like_plan = count ~pred:Expr.(Binop (Like, x "s", str "str1%")) "pjson" in
  let expected_eq =
    Value.Int (List.length (List.filter (fun r ->
        Value.equal (Value.field r "s") (Value.String "str7")) items))
  in
  let expected_like =
    Value.Int (List.length (List.filter (fun r ->
        match Value.field r "s" with
        | Value.String s -> Expr.like ~pattern:"str1%" s
        | _ -> false) items))
  in
  let r_eq, s_eq =
    warm_then_measure reg ~runs:4 eq_plan ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  let r_like, s_like =
    warm_then_measure reg ~runs:4 like_plan ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  Alcotest.check check_value "dict equality" expected_eq r_eq;
  Alcotest.check check_value "dict like" expected_like r_like;
  Alcotest.(check bool) "string column stored as dictionary" true
    ((Manager.stats mgr).Manager.dict_columns >= 1);
  Alcotest.(check bool) "equality ran on codes" true (s_eq.Counters.dict_probes > 0);
  Alcotest.(check bool) "like ran on codes" true (s_like.Counters.dict_probes > 0);
  (* an absent constant short-circuits to all-false, never a wrong row *)
  Alcotest.check check_value "absent constant"
    (Value.Int 0)
    (Executor.run reg ~engine:Executor.Engine_compiled
       (count ~pred:Expr.(x "s" ==. str "no-such") "pjson"));
  (* parallel + small batches agree with the decoded-string path *)
  Alcotest.check check_value "dict parallel parity" expected_like
    (Executor.run ~batch_size:256 reg ~domains:4 ~engine:Executor.Engine_compiled like_plan)

(* --- eviction of a promoted column falls back cleanly --------------------- *)

let test_evicted_promoted_falls_back () =
  (* arena too small for every column: promoted blocks get evicted and the
     scans must fall back to raw re-parsing without corruption *)
  let mgr, reg =
    make_session ~cache_budget:40_000 ~config:promote_config ()
  in
  let qk = count ~pred:Expr.(x "k" <. int 40) "pjson" in
  let qv =
    Plan.reduce
      ~pred:Expr.(x "k" <. int 200)
      [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "v") ]
      (Plan.scan ~dataset:"pjson" ~binding:"x" ())
  in
  let qs = count ~pred:Expr.(x "s" ==. str "str7") "pjson" in
  let want_v =
    Executor.run reg ~engine:Executor.Engine_compiled qv
  in
  for _ = 1 to 5 do
    Alcotest.check check_value "k stable under churn" (Value.Int 40)
      (Executor.run reg ~engine:Executor.Engine_compiled qk);
    Alcotest.check check_value "v stable under churn" want_v
      (Executor.run reg ~engine:Executor.Engine_compiled qv);
    ignore (Executor.run reg ~engine:Executor.Engine_compiled qs)
  done;
  (* explicit invalidation drops zone maps with their blocks *)
  Manager.invalidate_dataset mgr ~dataset:"pjson";
  Alcotest.(check bool) "zones dropped with blocks" true
    (Manager.lookup_zones mgr ~dataset:"pjson" ~path:"k" = None);
  Alcotest.check check_value "requery after invalidate" (Value.Int 40)
    (Executor.run reg ~engine:Executor.Engine_compiled qk)

(* An evicted promoted column loses what was derived from its rows (zone
   map, sorted projection) but keeps the evidence: it stays promoted, and
   its refill installs with the zone map again. *)
let test_evicted_promoted_keeps_promotion () =
  (* room for one 4000-row int column, not two *)
  let mgr, reg = make_session ~cache_budget:40_000 ~config:promote_config () in
  let qk = count ~pred:Expr.(x "k" <. int 40) "pjson" in
  let run plan = Executor.run reg ~engine:Executor.Engine_compiled plan in
  for _ = 1 to 4 do
    Alcotest.check check_value "k count" (Value.Int 40) (run qk)
  done;
  let layout () =
    ( Manager.lookup_zones mgr ~dataset:"pjson" ~path:"k" <> None,
      Manager.lookup_projection mgr ~dataset:"pjson" ~path:"k" <> None )
  in
  Alcotest.(check (pair bool bool)) "zone map and projection built" (true, true) (layout ());
  (* filling u evicts k's block *)
  Alcotest.check check_value "u count" (Value.Int 40)
    (run (count ~pred:Expr.(x "u" <. int 40) "pjson"));
  Alcotest.(check (pair bool bool)) "zone map and projection evicted" (false, false)
    (layout ());
  Alcotest.(check bool) "still promoted" true
    (Manager.is_promoted mgr ~dataset:"pjson" ~path:"k");
  Alcotest.check check_value "k count after eviction" (Value.Int 40) (run qk);
  Alcotest.(check bool) "refill rebuilds the zone map" true (fst (layout ()))

(* Re-collecting statistics is not a dataset change: promotions, zone maps
   and projections survive it, and the next query still skips morsels. *)
let test_refresh_stats_keeps_layouts () =
  let db = Proteus.Db.create ~caching:promote_config () in
  Proteus.Db.register_csv db ~name:"pcsv" ~element:item_type
    ~contents:
      (Proteus_format.Csv.of_records Proteus_format.Csv.default_config item_schema items)
    ();
  let mgr = Proteus.Db.cache_manager db in
  let plan = count ~pred:Expr.(x "k" <. int 40) "pcsv" in
  let run () = Proteus.Db.run_plan ~optimize:false ~domains:2 db plan in
  for _ = 1 to 4 do
    Alcotest.check check_value "warm count" (Value.Int 40) (run ())
  done;
  let layout () =
    ( Manager.is_promoted mgr ~dataset:"pcsv" ~path:"k",
      ( Manager.lookup_zones mgr ~dataset:"pcsv" ~path:"k" <> None,
        Manager.lookup_projection mgr ~dataset:"pcsv" ~path:"k" <> None ) )
  in
  let all = (true, (true, true)) in
  Alcotest.(check (pair bool (pair bool bool))) "promoted, zone map, projection" all
    (layout ());
  Proteus.Db.refresh_stats db;
  Alcotest.(check (pair bool (pair bool bool))) "all survive refresh_stats" all (layout ());
  let r, s = Executor.measure run in
  Alcotest.check check_value "count after refresh" (Value.Int 40) r;
  Alcotest.(check bool)
    (Fmt.str "still skips morsels (skipped=%d)" s.Counters.morsels_skipped)
    true
    (s.Counters.morsels_skipped > 0)

(* --- promotion bookkeeping ------------------------------------------------ *)

let test_promotion_stats () =
  let mgr, reg = make_session ~config:promote_config () in
  let plan = count ~pred:Expr.(x "k" <. int 40) "pcsv" in
  for _ = 1 to 4 do
    ignore (Executor.run reg ~engine:Executor.Engine_compiled plan)
  done;
  let s = Manager.stats mgr in
  Alcotest.(check bool) "promotion recorded" true (s.Manager.promotions >= 1);
  Alcotest.(check bool) "zone maps recorded" true (s.Manager.zone_maps >= 1);
  (* default config never promotes *)
  let mgr0, reg0 = make_session () in
  for _ = 1 to 4 do
    ignore (Executor.run reg0 ~engine:Executor.Engine_compiled plan)
  done;
  let s0 = Manager.stats mgr0 in
  Alcotest.(check int) "no promotions when off" 0 s0.Manager.promotions;
  Alcotest.(check bool) "not promoted when off" false
    (Manager.is_promoted mgr0 ~dataset:"pcsv" ~path:"k")

(* The promotion signal does not depend on the lane: a root Reduce
   predicate and every Select of a Select*-over-Scan spine count at batch
   size 0 exactly as they do on the batch lane. *)
let check_lane_parity plans =
  List.iter
    (fun (name, plan) ->
      let layouts bs =
        let mgr, reg = make_session ~config:promote_config () in
        for _ = 1 to 5 do
          ignore (Executor.run ~batch_size:bs reg ~engine:Executor.Engine_compiled plan)
        done;
        let s = Manager.stats mgr in
        [ s.Manager.promotions; s.Manager.zone_maps; s.Manager.sorted_projections ]
      in
      Alcotest.(check (list int))
        (name ^ ": promotions, zone maps, sorted projections")
        (layouts 1024) (layouts 0))
    plans

let stacked ds =
  Plan.reduce [ agg_count ]
    (Plan.select
       Expr.(x "u" <. int 40)
       (Plan.select Expr.(x "k" <. int 200) (Plan.scan ~dataset:ds ~binding:"x" ())))

let test_lane_independent_signal () =
  check_lane_parity
    [ ("reduce pred", count ~pred:Expr.(x "k" <. int 40) "pcsv"); ("stacked selects", stacked "pcsv") ]

let test_lane_independent_signal_json () =
  check_lane_parity
    [ ("reduce pred", count ~pred:Expr.(x "k" <. int 40) "pjson"); ("stacked selects", stacked "pjson") ]

(* a select whose consumer reads the whole record still feeds the signal *)
let test_lane_independent_signal_records () =
  check_lane_parity
    [ ( "bag of records",
        Plan.reduce
          [ Plan.agg ~name:"b" (Monoid.Collection Ptype.Bag) (Expr.var "x") ]
          (Plan.select Expr.(x "k" <. int 40) (Plan.scan ~dataset:"pcsv" ~binding:"x" ())) ) ]

(* The outer Select of a stacked spine promotes its column and prunes on
   the tuple lane as on the batch lane: every drive holds a pruning handle
   that collected every spine predicate. *)
let test_zone_skip_stacked_selects () =
  let plan =
    Plan.reduce [ agg_count ]
      (Plan.select
         Expr.(x "k" <. int 40)
         (Plan.select Expr.(x "u" <. int n_rows) (Plan.scan ~dataset:"pcsv" ~binding:"x" ())))
  in
  List.iter
    (fun bs ->
      let mgr, reg = make_session ~config:promote_config () in
      let r, s =
        warm_then_measure reg ~runs:4 plan ~domains:2 ~engine:Executor.Engine_compiled
          ~batch_size:bs
      in
      Alcotest.check check_value (Fmt.str "batch=%d count" bs) (Value.Int 40) r;
      Alcotest.(check bool) (Fmt.str "batch=%d outer column promoted" bs) true
        (Manager.is_promoted mgr ~dataset:"pcsv" ~path:"k");
      Alcotest.(check bool)
        (Fmt.str "batch=%d skips morsels (skipped=%d)" bs s.Counters.morsels_skipped)
        true
        (s.Counters.morsels_skipped > 0))
    [ 0; 1024 ]

let () =
  Alcotest.run "promotion"
    [
      ( "differential",
        [ Alcotest.test_case "promotion x domains x batch x format" `Slow
            test_differential ] );
      ( "zones",
        [
          Alcotest.test_case "clustered skips" `Quick test_zone_skip_clustered;
          Alcotest.test_case "serial batch skips" `Quick test_zone_skip_serial_batches;
          Alcotest.test_case "scrambled exact" `Quick test_zone_skip_scrambled;
          Alcotest.test_case "all-null skips everything" `Quick test_zone_skip_all_null;
          Alcotest.test_case "stacked selects skip on both lanes" `Quick
            test_zone_skip_stacked_selects;
        ] );
      ( "dictionary",
        [ Alcotest.test_case "code-compare parity" `Quick test_dict_parity ] );
      ( "fallback",
        [
          Alcotest.test_case "eviction falls back" `Quick
            test_evicted_promoted_falls_back;
          Alcotest.test_case "stats surface" `Quick test_promotion_stats;
          Alcotest.test_case "lane-independent signal" `Quick test_lane_independent_signal;
          Alcotest.test_case "lane-independent signal (json)" `Quick
            test_lane_independent_signal_json;
          Alcotest.test_case "lane-independent signal (records)" `Quick
            test_lane_independent_signal_records;
          Alcotest.test_case "eviction keeps the promotion" `Quick
            test_evicted_promoted_keeps_promotion;
          Alcotest.test_case "refresh_stats keeps layouts" `Quick
            test_refresh_stats_keeps_layouts;
        ] );
    ]
