(* Differential tests for the vectorized (batch) execution lane: on the same
   plans and datasets (every format plug-in), the batch lane must agree —
   bit for bit, floats included — with the tuple-at-a-time lane
   ([~batch_size:0]), the Volcano interpreter and the reference algebra
   evaluator, serially and at every domain count, across batch sizes, and
   across the spill boundary where a batched scan feeds tuple-lane
   operators (joins, group-bys, sorts, unnests, bag collectors). *)

open Proteus_model
open Proteus_storage
open Proteus_catalog
open Proteus_plugin
open Proteus_engine
module Plan = Proteus_algebra.Plan
module Interp = Proteus_algebra.Interp
module Manager = Proteus_cache.Manager

let check_value = Alcotest.testable Value.pp Value.equal

let execute ?batch_size ?(domains = 1) reg plan =
  Compiled.prepare_par ?batch_size reg ~domains plan ()

(* --- one relational dataset in all four formats ---------------------------- *)

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

let item_schema = Schema.of_type item_type

let items =
  (* quarter-step prices survive the CSV/JSON decimal round-trip bit-exactly,
     so one oracle serves all four formats *)
  List.init 800 (fun i ->
      Value.record
        [ ("k", Value.Int i); ("grp", Value.Int (i mod 7));
          ("price", Value.Float (float_of_int ((i * 37) mod 1000) /. 4.0));
          ("name", Value.String (Fmt.str "n%d" (i mod 13))) ])

(* nullable fields: score/tag are absent on every third row *)
let sparse_type =
  Ptype.Record
    [ ("id", Ptype.Int); ("score", Ptype.Option Ptype.Float);
      ("tag", Ptype.Option Ptype.String) ]

let sparse =
  List.init 200 (fun i ->
      let score = if i mod 3 = 0 then Value.Null else Value.Float (float_of_int i /. 4.0) in
      let tag = if i mod 3 = 0 then Value.Null else Value.String (Fmt.str "t%d" (i mod 5)) in
      Value.record [ ("id", Value.Int i); ("score", score); ("tag", tag) ])

let groups_type = Ptype.Record [ ("gid", Ptype.Int); ("label", Ptype.String) ]

let groups =
  List.init 7 (fun g ->
      Value.record [ ("gid", Value.Int g); ("label", Value.String (Fmt.str "g%d" g)) ])

let nested_type =
  Ptype.Record
    [
      ("id", Ptype.Int);
      ( "kids",
        Ptype.Collection
          (Ptype.List, Ptype.Record [ ("age", Ptype.Int); ("nick", Ptype.String) ]) );
    ]

let nested =
  List.init 120 (fun i ->
      let kids =
        List.init (i mod 4) (fun j ->
            Value.record
              [ ("age", Value.Int ((i + (j * 11)) mod 40));
                ("nick", Value.String (Fmt.str "kid%d_%d" i j)) ])
      in
      Value.record [ ("id", Value.Int i); ("kids", Value.list_ kids) ])

(* floats that are NOT exactly summable: any change of fold order or
   operation sequence between the lanes flips low-order bits *)
let harmonic_type = Ptype.Record [ ("i", Ptype.Int); ("w", Ptype.Float) ]

let harmonic =
  List.init 700 (fun i ->
      Value.record
        [ ("i", Value.Int i); ("w", Value.Float (1.0 /. float_of_int (i + 3))) ])

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)

let make_catalog () =
  let cat = Catalog.create () in
  let mem = Catalog.memory cat in
  Memory.register_blob mem ~name:"items.csv"
    (Proteus_format.Csv.of_records Proteus_format.Csv.default_config item_schema items);
  Catalog.register cat
    (Dataset.make ~name:"items_csv"
       ~format:(Dataset.Csv Proteus_format.Csv.default_config)
       ~location:(Dataset.Blob "items.csv") ~element:item_type);
  Memory.register_blob mem ~name:"items.json" (to_json items);
  Catalog.register cat
    (Dataset.make ~name:"items_json" ~format:Dataset.Json
       ~location:(Dataset.Blob "items.json") ~element:item_type);
  Catalog.register cat
    (Dataset.make ~name:"items_row" ~format:Dataset.Binary_row
       ~location:(Dataset.Rows (Rowpage.of_records item_schema items))
       ~element:item_type);
  let col name ty =
    (name, Column.of_values ty (List.map (fun r -> Value.field r name) items))
  in
  Catalog.register cat
    (Dataset.make ~name:"items_col" ~format:Dataset.Binary_column
       ~location:
         (Dataset.Columns
            [ col "k" Ptype.Int; col "grp" Ptype.Int; col "price" Ptype.Float;
              col "name" Ptype.String ])
       ~element:item_type);
  Memory.register_blob mem ~name:"sparse.json" (to_json sparse);
  Catalog.register cat
    (Dataset.make ~name:"sparse_json" ~format:Dataset.Json
       ~location:(Dataset.Blob "sparse.json") ~element:sparse_type);
  let scol name ty =
    (name, Column.of_values ty (List.map (fun r -> Value.field r name) sparse))
  in
  Catalog.register cat
    (Dataset.make ~name:"sparse_col" ~format:Dataset.Binary_column
       ~location:
         (Dataset.Columns
            [ scol "id" Ptype.Int; scol "score" (Ptype.Option Ptype.Float);
              scol "tag" (Ptype.Option Ptype.String) ])
       ~element:sparse_type);
  let hcol name ty =
    (name, Column.of_values ty (List.map (fun r -> Value.field r name) harmonic))
  in
  Catalog.register cat
    (Dataset.make ~name:"harmonic" ~format:Dataset.Binary_column
       ~location:(Dataset.Columns [ hcol "i" Ptype.Int; hcol "w" Ptype.Float ])
       ~element:harmonic_type);
  Memory.register_blob mem ~name:"groups.json" (to_json groups);
  Catalog.register cat
    (Dataset.make ~name:"groups" ~format:Dataset.Json
       ~location:(Dataset.Blob "groups.json") ~element:groups_type);
  Memory.register_blob mem ~name:"nested.json" (to_json nested);
  Catalog.register cat
    (Dataset.make ~name:"nested" ~format:Dataset.Json
       ~location:(Dataset.Blob "nested.json") ~element:nested_type);
  cat

let lookup name =
  match name with
  | "items_csv" | "items_json" | "items_row" | "items_col" -> items
  | "sparse_json" | "sparse_col" -> sparse
  | "harmonic" -> harmonic
  | "groups" -> groups
  | "nested" -> nested
  | other -> Perror.plan_error "no dataset %s" other

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

let registry = lazy (Registry.create (make_catalog ()))

(* The core differential harness: the batch lane (several batch sizes, so
   fragment boundaries land everywhere) against the tuple lane, the Volcano
   interpreter and the reference evaluator; then batch-vs-tuple at 2 and 4
   domains, where the comparison is exact (order included) because the two
   lanes share the morsel merge structure. *)
let check_lanes ?(name = "plan") plan =
  let reg = Lazy.force registry in
  let expected = sort_bag (Interp.run ~lookup plan) in
  let tuple = execute ~batch_size:0 reg plan in
  let volcano = Volcano.execute reg plan in
  Alcotest.check check_value (name ^ " (tuple vs oracle)") expected (sort_bag tuple);
  Alcotest.check check_value (name ^ " (volcano vs oracle)") expected (sort_bag volcano);
  List.iter
    (fun bs ->
      let batch = execute ~batch_size:bs reg plan in
      Alcotest.check check_value (Fmt.str "%s (batch %d == tuple)" name bs) tuple batch)
    [ 1; 7; 256; 1024; 4096 ];
  List.iter
    (fun domains ->
      let tuple_par = execute ~batch_size:0 reg ~domains plan in
      let batch_par = execute reg ~domains plan in
      Alcotest.check check_value
        (Fmt.str "%s (batch == tuple, %d domains)" name domains)
        tuple_par batch_par;
      Alcotest.check check_value
        (Fmt.str "%s (parallel batch vs oracle, %d domains)" name domains)
        expected (sort_bag batch_par))
    [ 2; 4 ]

let item_datasets = [ "items_csv"; "items_json"; "items_row"; "items_col" ]

(* --- scan → select → aggregate, fully on the batch lane -------------------- *)

let test_scan_aggregate () =
  List.iter
    (fun ds ->
      check_lanes ~name:ds
        (Plan.reduce
           [
             Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"sp" (Monoid.Primitive Monoid.Sum)
               Expr.(Field (var "x", "price"));
             Plan.agg ~name:"sk" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "k"));
             Plan.agg ~name:"mx" (Monoid.Primitive Monoid.Max)
               Expr.(Field (var "x", "price"));
             Plan.agg ~name:"mn" (Monoid.Primitive Monoid.Min) Expr.(Field (var "x", "k"));
             Plan.agg ~name:"av" (Monoid.Primitive Monoid.Avg)
               Expr.(Field (var "x", "price"));
           ]
           (Plan.select
              Expr.(Field (var "x", "price") >=. float 40.0)
              (Plan.scan ~dataset:ds ~binding:"x" ()))))
    item_datasets

let test_multi_conjunct () =
  (* one vectorizable conjunct, one string equality, stacked Selects *)
  List.iter
    (fun ds ->
      check_lanes ~name:ds
        (Plan.reduce
           [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "k")) ]
           (Plan.select
              Expr.(Field (var "x", "name") ==. str "n3")
              (Plan.select
                 Expr.(Field (var "x", "k") >=. int 100 &&& (Field (var "x", "grp") <. int 5))
                 (Plan.scan ~dataset:ds ~binding:"x" ())))))
    item_datasets

let test_short_circuit () =
  (* [&&&] must evaluate its right side only on lanes the left leaves
     undecided: k = 0 rows would raise Division_by_zero eagerly *)
  check_lanes ~name:"guarded division"
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.select
          Expr.(Field (var "x", "k") >. int 0 &&& (int 7200 /. Field (var "x", "k") >=. int 36))
          (Plan.scan ~dataset:"items_col" ~binding:"x" ())))

let test_arith_kernels () =
  (* mixed int/float arithmetic inside both predicate and aggregates *)
  check_lanes ~name:"arith"
    (Plan.reduce
       ~pred:Expr.(Field (var "x", "price") *. float 2.0 >. Field (var "x", "k") +. int 10)
       [
         Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum)
           Expr.(Field (var "x", "price") *. float 0.25 +. Field (var "x", "k"));
         Plan.agg ~name:"a" (Monoid.Primitive Monoid.Avg)
           Expr.(Field (var "x", "price") -. float 3.5);
       ]
       (Plan.scan ~dataset:"items_col" ~binding:"x" ()))

(* --- nullable fields: the batch lane falls back leaf-by-leaf --------------- *)

let test_nullable () =
  List.iter
    (fun ds ->
      check_lanes ~name:ds
        (Plan.reduce
           ~pred:Expr.(Unop (Not, Unop (Is_null, Field (var "s", "score"))))
           [
             Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"sum" (Monoid.Primitive Monoid.Sum)
               Expr.(Field (var "s", "score"));
           ]
           (Plan.select
              Expr.(Field (var "s", "id") <. int 150)
              (Plan.scan ~dataset:ds ~binding:"s" ()))))
    [ "sparse_json"; "sparse_col" ]

(* --- the spill boundary: batched fragment feeding tuple-lane operators ----- *)

let test_spill_join () =
  (* batched select-over-scan drives a tuple-lane join probe *)
  List.iter
    (fun ds ->
      check_lanes ~name:ds
        (Plan.reduce
           [
             Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"m" (Monoid.Primitive Monoid.Max) Expr.(Field (var "x", "k"));
           ]
           (Plan.select
              Expr.(Field (var "x", "k") <. int 650)
              (Plan.join
                 ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
                 (Plan.select
                    Expr.(Field (var "x", "price") >=. float 10.0)
                    (Plan.scan ~dataset:ds ~binding:"x" ()))
                 (Plan.scan ~dataset:"groups" ~binding:"g" ())))))
    item_datasets

let test_spill_collect () =
  (* collection monoid: the fold itself stays on the tuple lane, fed by the
     batched fragment — output order must be the scan order *)
  let plan =
    Plan.reduce
      [
        Plan.agg ~name:"r" (Monoid.Collection Ptype.Bag)
          Expr.(Field (var "x", "price") +. float 1.0);
      ]
      (Plan.select
         Expr.(Field (var "x", "k") <. int 40)
         (Plan.scan ~dataset:"items_col" ~binding:"x" ()))
  in
  let reg = Lazy.force registry in
  (* order-sensitive equality between the lanes *)
  Alcotest.check check_value "bag order across lanes"
    (execute ~batch_size:0 reg plan)
    (execute reg plan);
  check_lanes ~name:"collect bag" plan

let test_spill_group_by () =
  List.iter
    (fun ds ->
      check_lanes ~name:ds
        (Plan.nest
           ~keys:[ ("g", Expr.(Field (var "x", "grp"))) ]
           ~aggs:
             [
               Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
               Plan.agg ~name:"total" (Monoid.Primitive Monoid.Sum)
                 Expr.(Field (var "x", "price"));
             ]
           ~binding:"grp"
           (Plan.select
              Expr.(Field (var "x", "k") >=. int 25)
              (Plan.scan ~dataset:ds ~binding:"x" ()))))
    item_datasets

let test_spill_sort () =
  let plan =
    Plan.sort ~limit:23
      ~keys:
        [ (Expr.(Field (var "x", "grp")), Plan.Asc);
          (Expr.(Field (var "x", "price")), Plan.Desc) ]
      (Plan.select
         Expr.(Field (var "x", "k") <. int 300)
         (Plan.scan ~dataset:"items_csv" ~binding:"x" ()))
  in
  let reg = Lazy.force registry in
  let expected = Interp.run ~lookup plan in
  Alcotest.check check_value "sort (tuple)" expected
    (execute ~batch_size:0 reg plan);
  Alcotest.check check_value "sort (batch)" expected (execute reg plan);
  List.iter
    (fun domains ->
      Alcotest.check check_value
        (Fmt.str "sort (batch, %d domains)" domains)
        expected
        (execute reg ~domains plan))
    [ 2; 4 ]

let test_spill_unnest () =
  (* the structural-index unnest fast path reads the cursor the batched
     fragment just seeked *)
  check_lanes ~name:"unnest"
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.unnest
          ~pred:Expr.(Field (var "kid", "age") >. int 18)
          ~path:Expr.(Field (var "n", "kids"))
          ~binding:"kid"
          (Plan.select
             Expr.(Field (var "n", "id") <. int 90)
             (Plan.scan ~dataset:"nested" ~binding:"n" ()))))

(* --- project fusion: scan → select → project → aggregate ------------------- *)

let test_project_fusion () =
  List.iter
    (fun ds ->
      check_lanes ~name:ds
        (Plan.reduce
           [
             Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "o", "pp"));
             Plan.agg ~name:"m" (Monoid.Primitive Monoid.Max) Expr.(Field (var "o", "kk"));
           ]
           (Plan.project ~binding:"o"
              ~fields:
                [ ("pp", Expr.(Field (var "x", "price") *. float 2.0));
                  ("kk", Expr.(Field (var "x", "k") +. int 1)) ]
              (Plan.select
                 Expr.(Field (var "x", "grp") ==. int 3)
                 (Plan.scan ~dataset:ds ~binding:"x" ())))))
    item_datasets

(* --- float bit-identity across lanes, batch sizes and domain counts -------- *)

let float_bits v field =
  match Value.field v field with
  | Value.Float f -> Int64.bits_of_float f
  | v -> Alcotest.failf "expected float in %s, got %a" field Value.pp v

let test_float_bit_identity () =
  let reg = Lazy.force registry in
  let plan =
    Plan.reduce
      ~pred:Expr.(Field (var "x", "i") >=. int 5)
      [
        Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "w"));
        Plan.agg ~name:"a" (Monoid.Primitive Monoid.Avg) Expr.(Field (var "x", "w"));
      ]
      (Plan.scan ~dataset:"harmonic" ~binding:"x" ())
  in
  let tuple = execute ~batch_size:0 reg plan in
  List.iter
    (fun bs ->
      let batch = execute ~batch_size:bs reg plan in
      List.iter
        (fun f ->
          Alcotest.(check int64)
            (Fmt.str "serial %s bits at batch=%d" f bs)
            (float_bits tuple f) (float_bits batch f))
        [ "s"; "a" ])
    [ 1; 7; 256; 1024; 4096 ];
  List.iter
    (fun domains ->
      let tuple_par = execute ~batch_size:0 reg ~domains plan in
      let batch_par = execute reg ~domains plan in
      List.iter
        (fun f ->
          Alcotest.(check int64)
            (Fmt.str "%d-domain %s bits" domains f)
            (float_bits tuple_par f) (float_bits batch_par f))
        [ "s"; "a" ])
    [ 2; 3; 4 ];
  (* and the batch lane is itself deterministic across domain counts *)
  Alcotest.check check_value "batch lane: 2 == 4 domains"
    (execute reg ~domains:2 plan)
    (execute reg ~domains:4 plan)

(* --- counters: the lane decision and batch statistics are observable ------- *)

let test_counters () =
  let reg = Lazy.force registry in
  let plan =
    Plan.reduce
      ~pred:Expr.(Field (var "x", "k") <. int 400)
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.scan ~dataset:"items_col" ~binding:"x" ())
  in
  let _, s = Executor.measure (fun () -> execute reg plan) in
  Alcotest.(check int) "tuples" 800 s.Counters.tuples;
  Alcotest.(check int) "batch rows" 800 s.Counters.batch_rows;
  Alcotest.(check int) "batch selected" 400 s.Counters.batch_selected;
  Alcotest.(check int) "one batch lane" 1 s.Counters.lanes_batch;
  Alcotest.(check int) "no tuple lanes" 0 s.Counters.lanes_tuple;
  Alcotest.(check bool) "batches emitted" true (s.Counters.batches > 0);
  Alcotest.(check bool) "density = 0.5" true
    (Float.abs (Counters.selection_density s -. 0.5) < 1e-9);
  let _, s = Executor.measure (fun () -> execute ~batch_size:0 reg plan) in
  Alcotest.(check int) "tuple lane: no batches" 0 s.Counters.batches;
  Alcotest.(check int) "tuple lane counted" 1 s.Counters.lanes_tuple

(* --- caching: a batched session leaves bit-identical cache columns --------- *)

let make_session () =
  let cat = make_catalog () in
  let mgr = Manager.create cat in
  let reg = Registry.create ~cache:(Manager.iface mgr) cat in
  (mgr, reg)

let column_testable =
  Alcotest.testable
    (fun ppf col -> Fmt.pf ppf "column[%d]" (Column.length col))
    (fun a b ->
      Column.length a = Column.length b
      && List.for_all
           (fun i -> Value.equal (Column.get a i) (Column.get b i))
           (List.init (Column.length a) Fun.id))

let test_cache_parity () =
  (* cache-filling scans materialize whole batches; the resulting columns
     must match the tuple lane's bit for bit *)
  let mgr_t, reg_t = make_session () in
  let mgr_b, reg_b = make_session () in
  let workload =
    [
      Plan.reduce
        ~pred:Expr.(Field (var "x", "k") <. int 500)
        [
          Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "price"));
        ]
        (Plan.scan ~dataset:"items_csv" ~binding:"x" ());
      Plan.reduce
        [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
        (Plan.select
           Expr.(Field (var "x", "price") >=. float 100.0)
           (Plan.scan ~dataset:"items_json" ~binding:"x" ()));
    ]
  in
  for round = 1 to 2 do
    List.iteri
      (fun i plan ->
        let name = Fmt.str "round %d query %d" round i in
        let tuple = execute ~batch_size:0 reg_t plan in
        let batch = execute reg_b plan in
        Alcotest.check check_value name tuple batch)
      workload
  done;
  let stats_t = Manager.stats mgr_t and stats_b = Manager.stats mgr_b in
  Alcotest.(check int) "same number of cached columns" stats_t.Manager.field_stores
    stats_b.Manager.field_stores;
  Alcotest.(check bool) "caches populated" true (stats_t.Manager.field_stores > 0);
  let iface_t = Manager.iface mgr_t and iface_b = Manager.iface mgr_b in
  let some_cached = ref false in
  List.iter
    (fun dataset ->
      List.iter
        (fun path ->
          match
            ( iface_t.Cache_iface.lookup_field ~dataset ~path,
              iface_b.Cache_iface.lookup_field ~dataset ~path )
          with
          | None, None -> ()
          | Some ct, Some cb ->
            some_cached := true;
            Alcotest.check column_testable
              (Fmt.str "%s.%s cache column" dataset path)
              ct cb
          | _ -> Alcotest.failf "%s.%s cached in only one session" dataset path)
        [ "k"; "grp"; "price" ])
    [ "items_csv"; "items_json" ];
  Alcotest.(check bool) "at least one field column compared" true !some_cached

let () =
  Alcotest.run "batch"
    [
      ( "lane parity",
        [
          Alcotest.test_case "scan-select-aggregate" `Quick test_scan_aggregate;
          Alcotest.test_case "multi-conjunct" `Quick test_multi_conjunct;
          Alcotest.test_case "short-circuit and" `Quick test_short_circuit;
          Alcotest.test_case "arith kernels" `Quick test_arith_kernels;
          Alcotest.test_case "nullable fields" `Quick test_nullable;
        ] );
      ( "spill boundary",
        [
          Alcotest.test_case "join" `Quick test_spill_join;
          Alcotest.test_case "collect bag" `Quick test_spill_collect;
          Alcotest.test_case "group by" `Quick test_spill_group_by;
          Alcotest.test_case "sort" `Quick test_spill_sort;
          Alcotest.test_case "unnest" `Quick test_spill_unnest;
          Alcotest.test_case "project fusion" `Quick test_project_fusion;
        ] );
      ( "determinism",
        [ Alcotest.test_case "float bit-identity" `Quick test_float_bit_identity ] );
      ( "observability", [ Alcotest.test_case "counters" `Quick test_counters ] );
      ( "caching",
        [ Alcotest.test_case "batched session parity" `Quick test_cache_parity ] );
    ]
