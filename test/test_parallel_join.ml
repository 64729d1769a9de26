(* Differential tests for the partitioned parallel join build, the
   partitioned parallel group-by and the vectorized join probe: on every
   plan shape the parallel engine must agree with the serial compiled
   engine, the Volcano interpreter and the reference evaluator across
   domain counts {1,2,4} x batch sizes {0,256,1024} — including the
   degenerate shapes (empty build side, build larger than probe,
   duplicate-heavy keys) where partitioning bugs hide. Prices are
   quarter-step floats, so sums are exact and equality can be bit-level. *)

open Proteus_model
open Proteus_storage
open Proteus_catalog
open Proteus_plugin
open Proteus_engine
module Plan = Proteus_algebra.Plan
module Interp = Proteus_algebra.Interp
module Manager = Proteus_cache.Manager

(* force the partitioned build paths even on single-core test boxes — the
   engine otherwise caps the build fan-out at the machine's core count *)
let () = Unix.putenv "PROTEUS_PAR_BUILD" "1"

let check_value = Alcotest.testable Value.pp Value.equal

(* --- datasets ------------------------------------------------------------- *)

let order_type =
  Ptype.Record
    [ ("oid", Ptype.Int); ("pid", Ptype.Int); ("qty", Ptype.Int);
      ("amt", Ptype.Float) ]

(* probe side: 900 rows, many morsels *)
let orders =
  List.init 900 (fun i ->
      Value.record
        [ ("oid", Value.Int i);
          ("pid", Value.Int ((i * 13) mod 120));
          ("qty", Value.Int (1 + (i mod 9)));
          ("amt", Value.Float (float_of_int ((i * 29) mod 800) /. 4.0)) ])

let part_type =
  Ptype.Record [ ("pid", Ptype.Int); ("cat", Ptype.Int); ("label", Ptype.String) ]

(* build side: 120 distinct keys, a subset of the probed ids *)
let parts =
  List.init 100 (fun p ->
      Value.record
        [ ("pid", Value.Int p); ("cat", Value.Int (p mod 6));
          ("label", Value.String (Fmt.str "p%d" p)) ])

(* build side LARGER than the probe side: 2000 rows, keys overlapping the
   orders' pid range plus a long disjoint tail *)
let big_parts =
  List.init 2000 (fun p ->
      Value.record
        [ ("pid", Value.Int p); ("cat", Value.Int (p mod 11));
          ("label", Value.String (Fmt.str "b%d" p)) ])

(* duplicate-heavy build side: 5 distinct keys x 120 copies each — every
   probe hit multiplies, and every partition holds long chains *)
let dup_parts =
  List.init 600 (fun i ->
      Value.record
        [ ("pid", Value.Int (i mod 5)); ("cat", Value.Int (i mod 3));
          ("label", Value.String (Fmt.str "d%d" i)) ])

let empty_parts : Value.t list = []

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)

let make_catalog () =
  let cat = Catalog.create () in
  let mem = Catalog.memory cat in
  let col ty records name =
    (name, Column.of_values ty (List.map (fun r -> Value.field r name) records))
  in
  Catalog.register cat
    (Dataset.make ~name:"orders" ~format:Dataset.Binary_column
       ~location:
         (Dataset.Columns
            [ col Ptype.Int orders "oid"; col Ptype.Int orders "pid";
              col Ptype.Int orders "qty"; col Ptype.Float orders "amt" ])
       ~element:order_type);
  Memory.register_blob mem ~name:"orders.json" (to_json orders);
  Catalog.register cat
    (Dataset.make ~name:"orders_json" ~format:Dataset.Json
       ~location:(Dataset.Blob "orders.json") ~element:order_type);
  let reg_parts name records =
    Catalog.register cat
      (Dataset.make ~name ~format:Dataset.Binary_row
         ~location:(Dataset.Rows (Rowpage.of_records (Schema.of_type part_type) records))
         ~element:part_type)
  in
  reg_parts "parts" parts;
  reg_parts "big_parts" big_parts;
  reg_parts "dup_parts" dup_parts;
  reg_parts "empty_parts" empty_parts;
  Memory.register_blob mem ~name:"parts.csv"
    (Proteus_format.Csv.of_records Proteus_format.Csv.default_config
       (Schema.of_type part_type) parts);
  Catalog.register cat
    (Dataset.make ~name:"parts_csv"
       ~format:(Dataset.Csv Proteus_format.Csv.default_config)
       ~location:(Dataset.Blob "parts.csv") ~element:part_type);
  cat

let lookup name =
  match name with
  | "orders" | "orders_json" -> orders
  | "parts" | "parts_csv" -> parts
  | "big_parts" -> big_parts
  | "dup_parts" -> dup_parts
  | "empty_parts" -> empty_parts
  | other -> Perror.plan_error "no dataset %s" other

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

let registry = lazy (Registry.create (make_catalog ()))

let domain_counts = [ 1; 2; 4 ]
let batch_sizes = [ 0; 256; 1024 ]

(* The differential harness: one oracle, then every engine x every domain
   count x every batch size. The parallel runs must match the serial
   compiled run EXACTLY (same value, bit-level floats, same row order up to
   the bag sort) — the test data is exactly summable, so partitioned
   merges have no association slack to hide in. *)
let check_join ?(name = "plan") plan =
  let reg = Lazy.force registry in
  let expected = sort_bag (Interp.run ~lookup plan) in
  let volcano = Executor.run reg ~engine:Executor.Engine_volcano plan in
  Alcotest.check check_value (name ^ " (volcano)") expected (sort_bag volcano);
  List.iter
    (fun bs ->
      let serial =
        Executor.run ~batch_size:bs reg ~engine:Executor.Engine_compiled plan
      in
      Alcotest.check check_value
        (Fmt.str "%s (serial, batch=%d)" name bs)
        expected (sort_bag serial);
      List.iter
        (fun d ->
          let par =
            Executor.run ~batch_size:bs reg
              ~domains:d ~engine:Executor.Engine_compiled plan
          in
          Alcotest.check check_value
            (Fmt.str "%s (domains=%d, batch=%d)" name d bs)
            (sort_bag serial) (sort_bag par))
        domain_counts)
    batch_sizes

let join_pred = Expr.(Field (var "o", "pid") ==. Field (var "p", "pid"))

let scan_orders ds = Plan.scan ~dataset:ds ~binding:"o" ()
let scan_parts ds = Plan.scan ~dataset:ds ~binding:"p" ()

(* select -> join -> aggregate: the shape the vectorized probe keeps in the
   batch lane end to end *)
let join_reduce ~probe ~build =
  Plan.reduce
    [
      Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "amt"));
      Plan.agg ~name:"q" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "qty"));
    ]
    (Plan.join ~pred:join_pred
       (Plan.select Expr.(Field (var "o", "oid") <. int 700) (scan_orders probe))
       (scan_parts build))

let test_join_reduce () =
  List.iter
    (fun probe ->
      check_join ~name:(Fmt.str "%s |X| parts" probe)
        (join_reduce ~probe ~build:"parts"))
    [ "orders"; "orders_json" ]

let test_empty_build () =
  (* int aggregates only: the reference evaluator's empty Sum is [Int 0]
     regardless of element type, while the compiled engine's typed float
     lane yields [Float 0.] — a pre-existing empty-input edge orthogonal to
     parallel execution *)
  check_join ~name:"empty build side"
    (Plan.reduce
       [
         Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
         Plan.agg ~name:"q" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "qty"));
       ]
       (Plan.join ~pred:join_pred
          (Plan.select Expr.(Field (var "o", "oid") <. int 700) (scan_orders "orders"))
          (scan_parts "empty_parts")))

let test_build_larger_than_probe () =
  check_join ~name:"build > probe" (join_reduce ~probe:"orders" ~build:"big_parts")

let test_duplicate_heavy () =
  check_join ~name:"duplicate-heavy keys"
    (join_reduce ~probe:"orders" ~build:"dup_parts")

(* residual predicate on top of the equi-key: probe lanes that match the
   hash but fail the residual must not emit *)
let test_residual_predicate () =
  check_join ~name:"residual"
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.join
          ~pred:Expr.(join_pred &&& (Field (var "p", "cat") <. Field (var "o", "qty")))
          (scan_orders "orders") (scan_parts "parts")))

(* left outer join: unmatched probe lanes pad a null row *)
let test_left_outer () =
  List.iter
    (fun build ->
      check_join ~name:(Fmt.str "left outer vs %s" build)
        (Plan.reduce
           [
             Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum)
               Expr.(Field (var "o", "amt"));
           ]
           (Plan.join ~kind:Plan.Left_outer ~pred:join_pred
              (Plan.select
                 Expr.(Field (var "o", "oid") <. int 500)
                 (scan_orders "orders"))
              (scan_parts "parts"))))
    [ "parts"; "empty_parts" ]

(* a parameterized build side: the parallel build's fan-out analysis
   resolves the parameter from the engine's slots, at every domain count
   and batch size, and a rebind re-arms the same engine *)
let test_parameterized_build () =
  let reg = Lazy.force registry in
  let plan cat =
    Plan.reduce
      [
        Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
        Plan.agg ~name:"q" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "qty"));
      ]
      (Plan.join ~pred:join_pred (scan_orders "orders")
         (Plan.select Expr.(Field (var "p", "cat") ==. cat) (scan_parts "parts")))
  in
  List.iter
    (fun bs ->
      List.iter
        (fun d ->
          let b =
            Compiled.prepare_bound_par ~batch_size:bs reg ~domains:d
              (plan (Expr.Param "cat"))
          in
          List.iter
            (fun cat ->
              Compiled.bind b [ ("cat", Value.Int cat) ];
              Alcotest.check check_value
                (Fmt.str "cat = %d (domains=%d, batch=%d)" cat d bs)
                (Interp.run ~lookup (plan (Expr.int cat)))
                (b.Compiled.bd_run ()))
            [ 3; 5 ])
        domain_counts)
    batch_sizes

(* join feeding a group-by: partitioned parallel build + partitioned
   parallel aggregation in one pipeline *)
let test_join_group_by () =
  check_join ~name:"join -> nest"
    (Plan.nest
       ~keys:[ ("cat", Expr.(Field (var "p", "cat"))) ]
       ~aggs:
         [
           Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
           Plan.agg ~name:"rev" (Monoid.Primitive Monoid.Sum)
             Expr.(Field (var "o", "amt"));
         ]
       ~binding:"g"
       (Plan.join ~pred:join_pred (scan_orders "orders") (scan_parts "parts")))

(* group-by straight over a scan: the per-domain tables merged in domain
   order must reproduce the serial result exactly at every width *)
let test_partitioned_group_by () =
  List.iter
    (fun probe ->
      check_join ~name:(Fmt.str "nest over %s" probe)
        (Plan.nest
           ~keys:[ ("pid", Expr.(Field (var "o", "pid"))) ]
           ~aggs:
             [
               Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
               Plan.agg ~name:"amt" (Monoid.Primitive Monoid.Sum)
                 Expr.(Field (var "o", "amt"));
               Plan.agg ~name:"mx" (Monoid.Primitive Monoid.Max)
                 Expr.(Field (var "o", "qty"));
             ]
           ~binding:"g" (scan_orders probe)))
    [ "orders"; "orders_json" ]

(* the Q1 shape: partitioned group-by below a serial sort; order-sensitive *)
let test_sorted_group_by () =
  let reg = Lazy.force registry in
  let plan =
    Plan.sort
      ~keys:[ (Expr.(Field (var "g", "pid")), Plan.Asc) ]
      (Plan.nest
         ~keys:[ ("pid", Expr.(Field (var "o", "pid"))) ]
         ~aggs:
           [
             Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"amt" (Monoid.Primitive Monoid.Sum)
               Expr.(Field (var "o", "amt"));
           ]
         ~binding:"g" (scan_orders "orders"))
  in
  let expected = Interp.run ~lookup plan in
  List.iter
    (fun bs ->
      Alcotest.check check_value
        (Fmt.str "sorted nest (serial, batch=%d)" bs)
        expected
        (Executor.run ~batch_size:bs reg ~engine:Executor.Engine_compiled plan);
      List.iter
        (fun d ->
          Alcotest.check check_value
            (Fmt.str "sorted nest (domains=%d, batch=%d)" d bs)
            expected
            (Executor.run ~batch_size:bs reg ~domains:d ~engine:Executor.Engine_compiled plan))
        domain_counts)
    batch_sizes

(* determinism: repeated parallel runs of a join + group-by pipeline are
   bit-identical, and domain counts agree with each other *)
let test_repeat_determinism () =
  let reg = Lazy.force registry in
  let plan =
    Plan.nest
      ~keys:[ ("cat", Expr.(Field (var "p", "cat"))) ]
      ~aggs:
        [
          Plan.agg ~name:"rev" (Monoid.Primitive Monoid.Sum)
            Expr.(Field (var "o", "amt"));
        ]
      ~binding:"g"
      (Plan.join ~pred:join_pred (scan_orders "orders") (scan_parts "dup_parts"))
  in
  let at d =
    Executor.run ~batch_size:256 reg ~domains:d ~engine:Executor.Engine_compiled plan
  in
  let base = at 4 in
  Alcotest.check check_value "repeat run bit-identical" base (at 4);
  Alcotest.check check_value "2 == 4 domains" (sort_bag (at 2)) (sort_bag base)

(* --- every probe mode, join kind and placement --------------------------- *)

(* The join probe modes, as a join over a given probe side: a radix int
   key; a boxed float key (the orders against their own JSON copy); a
   boxed key read from an inner join's materialized rows; a nested loop
   with no equi conjunct. *)
let probe_joins =
  [
    ("radix int key", fun kind left -> Plan.join ~kind ~pred:join_pred left (scan_parts "parts"));
    ( "boxed float key",
      fun kind left ->
        Plan.join ~kind
          ~pred:Expr.(Field (var "o", "amt") ==. Field (var "f", "amt"))
          left
          (Plan.select
             Expr.(Field (var "f", "oid") <. int 150)
             (Plan.scan ~dataset:"orders_json" ~binding:"f" ())) );
    ( "boxed key over materialized rows",
      fun kind left ->
        Plan.join ~kind
          ~pred:Expr.(Field (var "p", "cat") ==. Field (var "d", "pid"))
          (Plan.join ~pred:join_pred left (scan_parts "parts"))
          (Plan.scan ~dataset:"dup_parts" ~binding:"d" ()) );
    ( "nested loop",
      fun kind left ->
        Plan.join ~kind
          ~pred:Expr.(Field (var "o", "qty") <. Field (var "p", "cat"))
          left (scan_parts "parts") );
  ]

(* a spine join probes the driving scan's fleet; a join above a spliced
   sort probes the replayed rows on the serial consumer *)
let probe_placements =
  [
    ("spine", Plan.select Expr.(Field (var "o", "oid") <. int 700) (scan_orders "orders"));
    ( "above a spliced sort",
      Plan.sort
        ~keys:[ (Expr.(Field (var "o", "amt")), Plan.Desc) ]
        (Plan.select Expr.(Field (var "o", "oid") <. int 500) (scan_orders "orders")) );
  ]

let probe_reduce join =
  Plan.reduce
    [
      Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "amt"));
      Plan.agg ~name:"q" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "qty"));
    ]
    join

let test_probe_modes () =
  List.iter
    (fun (mode, join) ->
      List.iter
        (fun (placement, left) ->
          List.iter
            (fun (kind, kname) ->
              check_join
                ~name:(Fmt.str "%s, %s, %s" mode kname placement)
                (probe_reduce (join kind left)))
            [ (Plan.Inner, "inner"); (Plan.Left_outer, "left outer") ])
        probe_placements)
    probe_joins

(* Workers probe on the lane the template chose, and only the template
   counts it: a join's per-query lane counts do not depend on the width. *)
let test_probe_lanes () =
  let reg = Lazy.force registry in
  List.iter
    (fun (mode, join) ->
      let plan = probe_reduce (join Plan.Inner (snd (List.hd probe_placements))) in
      let lanes d =
        let _, s =
          Executor.measure (fun () ->
              Executor.run ~batch_size:1024 reg ~domains:d ~engine:Executor.Engine_compiled
                plan)
        in
        s.Counters.lanes_batch
      in
      Alcotest.(check int) (mode ^ ": lanes_batch at 1 and 4 domains") (lanes 1) (lanes 4))
    probe_joins

(* --- every scan is a fleet ----------------------------------------------- *)

(* Bags compare element-wise in order; the reference evaluator and the
   engine may enumerate groups (and their bags) differently, so compare
   with every bag sorted, at any depth. *)
let rec canon (v : Value.t) =
  match v with
  | Value.Coll (Ptype.Bag, es) ->
    Value.Coll (Ptype.Bag, List.sort Value.compare (List.map canon es))
  | Value.Coll (c, es) -> Value.Coll (c, List.map canon es)
  | Value.Record fs -> Value.Record (Array.map (fun (n, x) -> (n, canon x)) fs)
  | v -> v

(* one oracle, every domain count x both lanes *)
let check_fleet ~name plan =
  let reg = Lazy.force registry in
  let expected = canon (Interp.run ~lookup plan) in
  List.iter
    (fun bs ->
      List.iter
        (fun d ->
          Alcotest.check check_value
            (Fmt.str "%s (domains=%d, batch=%d)" name d bs)
            expected
            (canon
               (Executor.run ~batch_size:bs reg ~domains:d
                  ~engine:Executor.Engine_compiled plan)))
        domain_counts)
    [ 0; 1024 ]

let bag_of e = Plan.agg ~name:"b" (Monoid.Collection Ptype.Bag) e

(* collection aggregates: per-group partials concatenate in the
   partitioned group-by *)
let test_group_bag () =
  let group ~pred agg =
    Plan.nest
      ~keys:[ ("cat", Expr.(Field (var "o", "qty"))) ]
      ~aggs:[ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1); agg ]
      ~binding:"g"
      (Plan.select pred (scan_orders "orders_json"))
  in
  let below600 = Expr.(Field (var "o", "oid") <. int 600) in
  List.iter
    (fun (name, plan) -> check_fleet ~name plan)
    [
      ("group by with a bag per group", group ~pred:below600 (bag_of Expr.(Field (var "o", "oid"))));
      ( "group by with a set per group",
        group ~pred:below600
          (Plan.agg ~name:"s" (Monoid.Collection Ptype.Set) Expr.(Field (var "o", "pid"))) );
      ( "group by with a list per group",
        group ~pred:below600
          (Plan.agg ~name:"l" (Monoid.Collection Ptype.List) Expr.(Field (var "o", "oid"))) );
      ("group by over no rows", group ~pred:(Expr.bool false) (bag_of Expr.(Field (var "o", "oid"))));
    ]

(* root Reduce mixing primitive and collection monoids: one fleet fold; a
   root collection is also the serial run in exact scan order *)
let test_reduce_count_bag () =
  let reg = Lazy.force registry in
  let count = Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) in
  let joined =
    Plan.join ~pred:join_pred
      (Plan.select Expr.(Field (var "o", "oid") <. int 300) (scan_orders "orders"))
      (scan_parts "parts")
  in
  List.iter
    (fun (name, plan) ->
      check_fleet ~name plan;
      let serial = Executor.run ~batch_size:0 reg ~engine:Executor.Engine_compiled plan in
      List.iter
        (fun bs ->
          List.iter
            (fun d ->
              Alcotest.check check_value
                (Fmt.str "%s (domains=%d, batch=%d) in scan order" name d bs)
                serial
                (Executor.run ~batch_size:bs reg ~domains:d
                   ~engine:Executor.Engine_compiled plan))
            domain_counts)
        [ 0; 1024 ])
    [
      ( "reduce count + bag",
        Plan.reduce [ count; bag_of Expr.(Field (var "o", "amt")) ] joined );
      ( "reduce count + set",
        Plan.reduce
          [ count; Plan.agg ~name:"s" (Monoid.Collection Ptype.Set) Expr.(Field (var "p", "cat")) ]
          joined );
      ( "reduce count + list",
        Plan.reduce
          [ count; Plan.agg ~name:"l" (Monoid.Collection Ptype.List) Expr.(Field (var "o", "oid")) ]
          joined );
      ( "reduce bag over no rows",
        Plan.reduce ~pred:(Expr.bool false) [ bag_of Expr.(Field (var "o", "amt")) ] joined );
      ( "reduce count + bag over a scan",
        Plan.reduce [ count; bag_of Expr.(Field (var "o", "amt")) ] (scan_orders "orders_json") );
    ]

(* a build side whose spine holds a breaker: a serial consumer over a
   spliced group-by fleet *)
let test_build_group_by () =
  check_fleet ~name:"join over a GROUP BY build side"
    (Plan.reduce
       [
         Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
         Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "g", "n"));
         Plan.agg ~name:"q" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "qty"));
       ]
       (Plan.join
          ~pred:Expr.(Field (var "o", "qty") ==. Field (var "g", "cat"))
          (scan_orders "orders")
          (Plan.nest
             ~keys:[ ("cat", Expr.(Field (var "p", "cat"))) ]
             ~aggs:[ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
             ~binding:"g" (scan_parts "big_parts"))))

(* joins above a spliced breaker: the probe streams the replayed rows on
   the serial consumer, the build runs as a fleet of its own *)
let test_join_above_splice () =
  check_fleet ~name:"join above a spliced nest"
    (Plan.project ~binding:"r"
       ~fields:
         [
           ("pid", Expr.(Field (var "g", "pid")));
           ("n", Expr.(Field (var "g", "n")));
           ("amt", Expr.(Field (var "g", "amt")));
           ("cat", Expr.(Field (var "p", "cat")));
         ]
    @@ Plan.join
       ~pred:Expr.(Field (var "g", "pid") ==. Field (var "p", "pid"))
       (Plan.nest
          ~keys:[ ("pid", Expr.(Field (var "o", "pid"))) ]
          ~aggs:
            [
              Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
              Plan.agg ~name:"amt" (Monoid.Primitive Monoid.Sum)
                Expr.(Field (var "o", "amt"));
            ]
          ~binding:"g" (scan_orders "orders"))
       (scan_parts "parts"));
  check_fleet ~name:"join above a spliced sort"
    (Plan.reduce
       [
         Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
         Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "amt"));
       ]
       (Plan.join ~pred:join_pred
          (Plan.sort
             ~keys:[ (Expr.(Field (var "o", "amt")), Plan.Desc) ]
             (Plan.select Expr.(Field (var "o", "oid") <. int 500) (scan_orders "orders")))
          (scan_parts "dup_parts")))

let fresh_session ?config () =
  let cat = make_catalog () in
  let mgr = Manager.create ?config cat in
  (mgr, Registry.create ~cache:(Manager.iface mgr) cat)

(* A cold one-domain join over a CSV build side builds on a one-worker
   fleet: its cache fill commits one segment per morsel, and the query's
   morsel count is the probe's plus the build's. Left outer, so no
   join-key pruning thins the probe's morsels. *)
let test_one_domain_build_fleet () =
  let plan =
    Plan.reduce
      [
        Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
        Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "amt"));
      ]
      (Plan.join ~kind:Plan.Left_outer ~pred:join_pred (scan_orders "orders")
         (scan_parts "parts_csv"))
  in
  let probe_only =
    Plan.reduce
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (scan_orders "orders")
  in
  let build_morsels =
    let d = Pool.Dispenser.create () in
    Pool.Dispenser.reset d ~total:(List.length parts);
    Pool.Dispenser.morsels d
  in
  List.iter
    (fun bs ->
      let name = Fmt.str "batch=%d" bs in
      let mgr, reg = fresh_session () in
      let run plan =
        Executor.measure (fun () ->
            Executor.run ~batch_size:bs reg ~domains:1 ~engine:Executor.Engine_compiled plan)
      in
      let _, probe = run probe_only in
      let got, s = run plan in
      Alcotest.check check_value (name ^ " vs oracle") (Interp.run ~lookup plan) got;
      let st = Manager.stats mgr in
      Alcotest.(check int) (name ^ " one fill commit") 1 st.Manager.fill_commits;
      Alcotest.(check bool)
        (Fmt.str "%s build fill segmented (%d segments)" name st.Manager.fill_segments)
        true
        (st.Manager.fill_segments > 1);
      Alcotest.(check int) (name ^ " morsels = probe + build")
        (probe.Counters.morsels + build_morsels)
        s.Counters.morsels)
    [ 0; 1024 ]

(* A driving select over a cold JSON scan runs as a fleet at every width
   and lane: its cache fill commits once, one segment per morsel, and a
   warm run reads the columns back without storing again. *)
let test_driving_select_fleet () =
  let plan =
    Plan.reduce
      [
        Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
        Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "amt"));
      ]
      (Plan.select Expr.(Field (var "o", "qty") <. int 5) (scan_orders "orders_json"))
  in
  let expected = Interp.run ~lookup plan in
  List.iter
    (fun bs ->
      List.iter
        (fun d ->
          let name = Fmt.str "domains=%d, batch=%d" d bs in
          let mgr, reg = fresh_session () in
          let run () =
            Executor.run ~batch_size:bs reg ~domains:d ~engine:Executor.Engine_compiled plan
          in
          Alcotest.check check_value (name ^ " cold") expected (run ());
          let cold = Manager.stats mgr in
          Alcotest.(check int) (name ^ " one fill commit") 1 cold.Manager.fill_commits;
          Alcotest.(check bool)
            (Fmt.str "%s fill segmented (%d segments)" name cold.Manager.fill_segments)
            true
            (cold.Manager.fill_segments > 1);
          Alcotest.check check_value (name ^ " warm") expected (run ());
          let warm = Manager.stats mgr in
          Alcotest.(check int) (name ^ " warm stores nothing") cold.Manager.field_stores
            warm.Manager.field_stores;
          Alcotest.(check bool) (name ^ " warm hits") true
            (warm.Manager.field_hits > cold.Manager.field_hits))
        domain_counts)
    [ 0; 1024 ]

let () =
  Alcotest.run "parallel_join"
    [
      ( "join",
        [
          Alcotest.test_case "select -> join -> aggregate" `Quick test_join_reduce;
          Alcotest.test_case "empty build side" `Quick test_empty_build;
          Alcotest.test_case "build larger than probe" `Quick
            test_build_larger_than_probe;
          Alcotest.test_case "duplicate-heavy keys" `Quick test_duplicate_heavy;
          Alcotest.test_case "residual predicate" `Quick test_residual_predicate;
          Alcotest.test_case "left outer" `Quick test_left_outer;
          Alcotest.test_case "parameterized build side" `Quick test_parameterized_build;
          Alcotest.test_case "every probe mode, kind and placement" `Quick test_probe_modes;
          Alcotest.test_case "probe lanes independent of width" `Quick test_probe_lanes;
        ] );
      ( "group-by",
        [
          Alcotest.test_case "join -> nest" `Quick test_join_group_by;
          Alcotest.test_case "partitioned nest" `Quick test_partitioned_group_by;
          Alcotest.test_case "sorted nest (Q1 shape)" `Quick test_sorted_group_by;
          Alcotest.test_case "repeat determinism" `Quick test_repeat_determinism;
        ] );
      ( "fleets",
        [
          Alcotest.test_case "group by with a bag per group" `Quick test_group_bag;
          Alcotest.test_case "reduce count + bag" `Quick test_reduce_count_bag;
          Alcotest.test_case "join over a group-by build side" `Quick test_build_group_by;
          Alcotest.test_case "join above a spliced breaker" `Quick test_join_above_splice;
          Alcotest.test_case "one-domain build is a fleet" `Quick
            test_one_domain_build_fleet;
          Alcotest.test_case "driving select is a fleet" `Quick test_driving_select_fleet;
        ] );
    ]
