(* Differential tests for the morsel-parallel engine: on the same plans and
   datasets (every format plug-in), [~domains:n] must agree with the
   serial compiled engine, the Volcano interpreter and the reference algebra
   evaluator — and must be deterministic across domain counts, including
   float aggregates and cache side effects. *)

open Proteus_model
open Proteus_storage
open Proteus_catalog
open Proteus_plugin
open Proteus_engine
module Plan = Proteus_algebra.Plan
module Interp = Proteus_algebra.Interp
module Manager = Proteus_cache.Manager

let check_value = Alcotest.testable Value.pp Value.equal

(* --- one relational dataset in all four formats, big enough that the
   dispenser hands out many morsels (800 rows -> 16-row morsels) ----------- *)

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

let item_schema = Schema.of_type item_type

let items =
  (* deterministic pseudo-random contents; quarter-step prices survive the
     CSV/JSON decimal round-trip bit-exactly, so one oracle serves all four
     formats *)
  List.init 800 (fun i ->
      let k = i in
      let grp = i mod 7 in
      let price = float_of_int ((i * 37) mod 1000) /. 4.0 in
      let name = Fmt.str "n%d" (i mod 13) in
      Value.record
        [ ("k", Value.Int k); ("grp", Value.Int grp); ("price", Value.Float price);
          ("name", Value.String name) ])

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

(* binary-only dataset with floats that are NOT exactly summable: exposes
   association differences between domain counts if merges were not done in
   a fixed morsel order *)
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
  | "harmonic" -> harmonic
  | "groups" -> groups
  | "nested" -> nested
  | other -> Perror.plan_error "no dataset %s" other

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

let registry = lazy (Registry.create (make_catalog ()))

(* Multiset comparison of every engine against the oracle, plus exact
   (bit-level, order-included) agreement between different domain counts. *)
let check_par ?(name = "plan") plan =
  let reg = Lazy.force registry in
  let expected = sort_bag (Interp.run ~lookup plan) in
  let serial = Executor.run reg ~engine:Executor.Engine_compiled plan in
  let volcano = Executor.run reg ~engine:Executor.Engine_volcano plan in
  let p2 = Executor.run reg ~domains:2 ~engine:Executor.Engine_compiled plan in
  let p4 = Executor.run reg ~domains:4 ~engine:Executor.Engine_compiled plan in
  Alcotest.check check_value (name ^ " (serial)") expected (sort_bag serial);
  Alcotest.check check_value (name ^ " (volcano)") expected (sort_bag volcano);
  Alcotest.check check_value (name ^ " (2 domains)") expected (sort_bag p2);
  Alcotest.check check_value (name ^ " (4 domains)") expected (sort_bag p4);
  Alcotest.check check_value (name ^ " (2 == 4 domains)") p2 p4

(* Order-sensitive variant for sorted outputs. *)
let check_par_ordered ?(name = "plan") plan =
  let reg = Lazy.force registry in
  let expected = Interp.run ~lookup plan in
  Alcotest.check check_value (name ^ " (serial)") expected
    (Executor.run reg ~engine:Executor.Engine_compiled plan);
  List.iter
    (fun n ->
      Alcotest.check check_value
        (Fmt.str "%s (%d domains)" name n)
        expected
        (Executor.run reg ~domains:n ~engine:Executor.Engine_compiled plan))
    [ 2; 3; 4 ]

let item_datasets = [ "items_csv"; "items_json"; "items_row"; "items_col" ]

(* --- the plan matrix, per format ------------------------------------------ *)

let test_aggregate () =
  List.iter
    (fun ds ->
      check_par ~name:ds
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
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    item_datasets

let test_filtered_count () =
  List.iter
    (fun ds ->
      check_par ~name:ds
        (Plan.reduce
           ~pred:Expr.(Field (var "x", "k") <. int 500)
           [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    item_datasets

let test_select_project () =
  List.iter
    (fun ds ->
      check_par ~name:ds
        (Plan.project ~binding:"out"
           ~fields:
             [ ("kk", Expr.(Field (var "x", "k") *. int 2));
               ("nm", Expr.(Field (var "x", "name"))) ]
           (Plan.select
              Expr.(Field (var "x", "price") >=. float 40.0
                    &&& (Field (var "x", "grp") ==. int 3))
              (Plan.scan ~dataset:ds ~binding:"x" ()))))
    item_datasets

(* Root collections of every kind (an empty one, one beside a Count),
   each also equal to the serial run in exact scan order at every width
   and lane. *)
let test_collect_bag () =
  let reg = Lazy.force registry in
  let coll c e = Plan.agg ~name:"r" (Monoid.Collection c) e in
  let price1 = Expr.(Field (var "x", "price") +. float 1.0) in
  let every_morsel = Expr.(Field (var "x", "grp") <. int 3) in
  List.iter
    (fun ds ->
      List.iter
        (fun (pred, aggs) ->
          let plan = Plan.reduce ~pred aggs (Plan.scan ~dataset:ds ~binding:"x" ()) in
          check_par ~name:ds plan;
          let serial = Executor.run ~batch_size:0 reg ~engine:Executor.Engine_compiled plan in
          List.iter
            (fun bs ->
              List.iter
                (fun d ->
                  Alcotest.check check_value
                    (Fmt.str "%s (domains=%d, batch=%d) in scan order" ds d bs)
                    serial
                    (Executor.run ~batch_size:bs ~domains:d reg
                       ~engine:Executor.Engine_compiled plan))
                [ 1; 2; 4 ])
            [ 0; 1024 ])
        [
          (Expr.(Field (var "x", "k") <. int 40), [ coll Ptype.Bag price1 ]);
          (every_morsel, [ coll Ptype.Bag price1 ]);
          (every_morsel, [ coll Ptype.Set Expr.(Field (var "x", "grp")) ]);
          (every_morsel, [ coll Ptype.List Expr.(Field (var "x", "name")) ]);
          (Expr.bool false, [ coll Ptype.Bag price1 ]);
          ( every_morsel,
            [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
              coll Ptype.Bag price1 ] );
        ])
    item_datasets

let test_group_by () =
  List.iter
    (fun ds ->
      check_par ~name:ds
        (Plan.nest
           ~keys:[ ("g", Expr.(Field (var "x", "grp"))) ]
           ~aggs:
             [
               Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
               Plan.agg ~name:"total" (Monoid.Primitive Monoid.Sum)
                 Expr.(Field (var "x", "price"));
               Plan.agg ~name:"avg" (Monoid.Primitive Monoid.Avg)
                 Expr.(Field (var "x", "price"));
             ]
           ~binding:"grp"
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    item_datasets

let test_join () =
  List.iter
    (fun ds ->
      check_par ~name:ds
        (Plan.reduce
           [
             Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"m" (Monoid.Primitive Monoid.Max) Expr.(Field (var "x", "k"));
           ]
           (Plan.select
              Expr.(Field (var "x", "k") <. int 650)
              (Plan.join
                 ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
                 (Plan.scan ~dataset:ds ~binding:"x" ())
                 (Plan.scan ~dataset:"groups" ~binding:"g" ())))))
    item_datasets

let test_join_project () =
  check_par
    (Plan.project ~binding:"o"
       ~fields:
         [ ("k", Expr.(Field (var "x", "k"))); ("lbl", Expr.(Field (var "g", "label"))) ]
       (Plan.select
          Expr.(Field (var "x", "k") <. int 100)
          (Plan.join
             ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
             (Plan.scan ~dataset:"items_row" ~binding:"x" ())
             (Plan.scan ~dataset:"groups" ~binding:"g" ()))))

let test_unnest () =
  check_par
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.unnest
          ~pred:Expr.(Field (var "kid", "age") >. int 18)
          ~path:Expr.(Field (var "n", "kids"))
          ~binding:"kid"
          (Plan.scan ~dataset:"nested" ~binding:"n" ())))

let test_sort () =
  (* Sort below the root: workers buffer morsels, the serial Sort replays
     them in morsel order — byte-identical to the serial scan order *)
  List.iter
    (fun ds ->
      check_par_ordered ~name:ds
        (Plan.sort ~limit:23
           ~keys:
             [ (Expr.(Field (var "x", "grp")), Plan.Asc);
               (Expr.(Field (var "x", "price")), Plan.Desc) ]
           (Plan.select
              Expr.(Field (var "x", "k") <. int 300)
              (Plan.scan ~dataset:ds ~binding:"x" ()))))
    item_datasets

let test_sort_over_group_by () =
  (* the TPC-H Q1 shape: parallel Nest below a serial Sort *)
  check_par_ordered
    (Plan.sort
       ~keys:[ (Expr.(Field (var "grp", "g")), Plan.Asc) ]
       (Plan.nest
          ~keys:[ ("g", Expr.(Field (var "x", "grp"))) ]
          ~aggs:
            [
              Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
              Plan.agg ~name:"total" (Monoid.Primitive Monoid.Sum)
                Expr.(Field (var "x", "price"));
            ]
          ~binding:"grp"
          (Plan.scan ~dataset:"items_csv" ~binding:"x" ())))

(* --- determinism: float aggregates identical at every domain count -------- *)

let test_float_determinism () =
  (* harmonic weights do not sum exactly, so any association change between
     domain counts would flip low-order bits; the per-morsel partials merged
     in morsel order must make every domain count bit-identical *)
  let reg = Lazy.force registry in
  let plan =
    Plan.reduce
      [
        Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "w"));
        Plan.agg ~name:"a" (Monoid.Primitive Monoid.Avg) Expr.(Field (var "x", "w"));
      ]
      (Plan.scan ~dataset:"harmonic" ~binding:"x" ())
  in
  let at n = Executor.run reg ~domains:n ~engine:Executor.Engine_compiled plan in
  let base = at 2 in
  List.iter
    (fun n ->
      Alcotest.check check_value (Fmt.str "domains=2 == domains=%d" n) base (at n))
    [ 3; 4; 5; 8 ];
  (* parallel differs from serial only by float association: close, and the
     run-to-run value is stable *)
  let float_of v =
    match Value.field v "s" with
    | Value.Float f -> f
    | _ -> Alcotest.fail "no sum"
  in
  let serial = float_of (Executor.run reg ~engine:Executor.Engine_compiled plan) in
  let par = float_of base in
  Alcotest.(check bool) "parallel sum within 1e-12 of serial" true
    (Float.abs (serial -. par) <= 1e-12 *. Float.abs serial);
  Alcotest.check check_value "repeat run bit-identical" base (at 2)

(* --- the GROUP BY float contract: fixed width, any run, any lane ---------- *)

(* A GROUP BY worker folds its run of morsels into one group table and the
   tables merge in worker order, so a float sum's association depends on
   the width alone: at a fixed width, repeat runs and the tuple and batch
   lanes are bit-identical over weights that do not sum exactly. *)
let test_group_float_contract () =
  let reg = Lazy.force registry in
  let w = Expr.(Field (var "x", "w")) in
  let plan =
    Plan.nest
      ~keys:[ ("g", Expr.Binop (Expr.Mod, Expr.(Field (var "x", "i")), Expr.int 5)) ]
      ~aggs:
        [
          Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) w;
          Plan.agg ~name:"a" (Monoid.Primitive Monoid.Avg) w;
        ]
      ~binding:"grp"
      (Plan.select
         Expr.(Field (var "x", "i") >=. int 10)
         (Plan.scan ~dataset:"harmonic" ~binding:"x" ()))
  in
  let run domains batch_size =
    Executor.run ~batch_size ~domains reg ~engine:Executor.Engine_compiled plan
  in
  List.iter
    (fun domains ->
      let base = run domains 0 in
      List.iter
        (fun (what, batch_size) ->
          Alcotest.check check_value
            (Fmt.str "domains=%d: %s bit-identical" domains what)
            base (run domains batch_size))
        [ ("repeat run", 0); ("batch 1024", 1024); ("batch repeat", 1024) ])
    [ 2; 4 ]

(* --- one domain is the default width ---------------------------------------- *)

let test_one_domain_is_serial () =
  let reg = Lazy.force registry in
  let plan =
    Plan.nest
      ~keys:[ ("g", Expr.(Field (var "x", "grp"))) ]
      ~aggs:[ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      ~binding:"grp"
      (Plan.scan ~dataset:"items_row" ~binding:"x" ())
  in
  (* order-sensitive *)
  Alcotest.check check_value "identical incl. row order"
    (Executor.run reg ~engine:Executor.Engine_compiled plan)
    (Executor.run reg ~domains:1 ~engine:Executor.Engine_compiled plan)

(* --- output does not depend on the domain count ---------------------------- *)

(* Group keys whose first-encounter order differs from key order: [6 - grp]
   meets 6, 5, ..., 0 (unboxed int key), [name] meets n0, n1, ..., n12,
   which sorts n0, n1, n10, n11, n12, n2, ... (boxed string key). One
   domain runs the same one-worker fleet as N domains, so every width
   emits the same rows in the same order. *)
let test_domain_independent () =
  let reg = Lazy.force registry in
  let group_by ds key =
    Plan.nest
      ~keys:[ ("g", key) ]
      ~aggs:
        [
          Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
          Plan.agg ~name:"total" (Monoid.Primitive Monoid.Sum)
            Expr.(Field (var "x", "price"));
        ]
      ~binding:"grp"
      (Plan.scan ~dataset:ds ~binding:"x" ())
  in
  let keys =
    [ ("int", Expr.(int 6 -. Field (var "x", "grp")));
      ("string", Expr.(Field (var "x", "name"))) ]
  in
  List.iter
    (fun ds ->
      List.iter
        (fun (kname, key) ->
          let plan = group_by ds key in
          let expected = sort_bag (Interp.run ~lookup plan) in
          let run domains batch_size =
            Executor.run ~batch_size ~domains reg ~engine:Executor.Engine_compiled plan
          in
          let base = run 1 0 in
          List.iter
            (fun domains ->
              List.iter
                (fun batch_size ->
                  let name = Fmt.str "%s %s key d=%d b=%d" ds kname domains batch_size in
                  let got = run domains batch_size in
                  Alcotest.check check_value (name ^ " vs oracle") expected (sort_bag got);
                  Alcotest.check check_value (name ^ " == d=1 b=0, order included") base got)
                [ 0; 1024 ])
            [ 1; 2; 4 ])
        keys)
    [ "items_csv"; "items_json"; "items_row" ];
  (* the one-domain run of a spine-drivable Reduce is a morsel fleet *)
  let _, s =
    Executor.measure (fun () ->
        Executor.run ~domains:1 reg ~engine:Executor.Engine_compiled
          (Plan.reduce
             [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
             (Plan.scan ~dataset:"items_csv" ~binding:"x" ())))
  in
  Alcotest.(check bool) "one domain dispenses morsels" true (s.Counters.morsels > 0)

(* --- caching: a parallel session leaves bit-identical caches -------------- *)

let make_session () =
  let cat = make_catalog () in
  let mgr = Manager.create cat in
  let reg = Registry.create ~cache:(Manager.iface mgr) cat in
  (mgr, reg)

let column_testable =
  Alcotest.testable
    (fun ppf col ->
      Fmt.pf ppf "column[%d]" (Column.length col))
    (fun a b ->
      Column.length a = Column.length b
      && List.for_all
           (fun i -> Value.equal (Column.get a i) (Column.get b i))
           (List.init (Column.length a) Fun.id))

let workload =
  [
    Plan.reduce
      ~pred:Expr.(Field (var "x", "k") <. int 500)
      [
        Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "price"));
      ]
      (Plan.scan ~dataset:"items_csv" ~binding:"x" ());
    Plan.nest
      ~keys:[ ("g", Expr.(Field (var "x", "grp"))) ]
      ~aggs:[ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      ~binding:"grp"
      (Plan.scan ~dataset:"items_json" ~binding:"x" ());
    Plan.reduce
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.join
         ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
         (Plan.scan ~dataset:"items_csv" ~binding:"x" ())
         (Plan.scan ~dataset:"groups" ~binding:"g" ()));
  ]

let test_cache_parity () =
  let mgr_s, reg_s = make_session () in
  let mgr_p, reg_p = make_session () in
  (* run the workload twice per session: cold runs fill the caches through
     parallel per-morsel segments (test_cache_parallel.ml covers the fill
     protocol itself), warm runs serve from the installed columns *)
  for round = 1 to 2 do
    List.iteri
      (fun i plan ->
        let name = Fmt.str "round %d query %d" round i in
        let serial = Executor.run reg_s ~engine:Executor.Engine_compiled plan in
        let par = Executor.run reg_p ~domains:4 ~engine:Executor.Engine_compiled plan in
        Alcotest.check check_value name (sort_bag serial) (sort_bag par))
      workload
  done;
  let stats_s = Manager.stats mgr_s and stats_p = Manager.stats mgr_p in
  Alcotest.(check int) "same number of cached columns" stats_s.Manager.field_stores
    stats_p.Manager.field_stores;
  Alcotest.(check bool) "caches populated" true (stats_s.Manager.field_stores > 0);
  let iface_s = Manager.iface mgr_s and iface_p = Manager.iface mgr_p in
  let some_cached = ref false in
  List.iter
    (fun dataset ->
      List.iter
        (fun path ->
          let cs = iface_s.Cache_iface.lookup_field ~dataset ~path in
          let cp = iface_p.Cache_iface.lookup_field ~dataset ~path in
          match cs, cp with
          | None, None -> ()
          | Some cs, Some cp ->
            some_cached := true;
            Alcotest.check column_testable
              (Fmt.str "%s.%s cache column" dataset path)
              cs cp
          | _ ->
            Alcotest.failf "%s.%s cached in only one session" dataset path)
        [ "k"; "grp"; "price" ])
    [ "items_csv"; "items_json" ];
  Alcotest.(check bool) "at least one field column compared" true !some_cached

(* --- counters are domain-safe (no lost increments), in a query's per-domain
   blocks and in the process totals ticked with no query active ---------- *)

let test_counters_domain_safe () =
  let n = 25_000 in
  let tick () =
    Pool.run ~domains:4 (fun _ ->
        for _ = 1 to n do
          Counters.add_tuples 1
        done)
  in
  let before = Counters.snapshot () in
  let (), s = Executor.measure tick in
  Alcotest.(check int) "no lost increments" (4 * n) s.Counters.tuples;
  tick ();
  Alcotest.(check int) "query folded, loose ticks counted" (8 * n)
    ((Counters.snapshot ()).Counters.tuples - before.Counters.tuples)

(* Two queries on two domains whose ids share a counter-cache slot (ids 64
   apart) each keep exactly their own counts: the domain that lost the slot
   ticks through its domain-local block. *)
let test_counters_slot_collision () =
  let me = (Domain.self () :> int) in
  let rec colliding () =
    let d = Domain.spawn (fun () -> ()) in
    if (Domain.get_id d :> int) land 63 = (me + 63) land 63 then Domain.join d
    else begin
      Domain.join d;
      colliding ()
    end
  in
  colliding ();
  let attached = Atomic.make false and done_ = Atomic.make false in
  let wait a = while not (Atomic.get a) do Domain.cpu_relax () done in
  let tick k = for _ = 1 to k do Counters.add_tuples 1 done in
  let (), mine =
    Executor.measure (fun () ->
        tick 100;
        let other =
          Domain.spawn (fun () ->
              Alcotest.(check int) "ids collide" (me land 63)
                ((Domain.self () :> int) land 63);
              let (), s =
                Executor.measure (fun () ->
                    Atomic.set attached true;
                    tick 7;
                    wait done_)
              in
              s)
        in
        wait attached;
        tick 100;
        Atomic.set done_ true;
        Alcotest.(check int) "the other query's own count" 7
          (Domain.join other).Counters.tuples)
  in
  Alcotest.(check int) "this query's own count" 200 mine.Counters.tuples

(* --- the dispenser hands out [0, total) exactly once ---------------------- *)

let test_dispenser_coverage () =
  let d = Pool.Dispenser.create () in
  List.iter
    (fun total ->
      Pool.Dispenser.reset d ~total;
      let expected_morsels = Pool.Dispenser.morsels d in
      let seen = ref [] in
      let rec drain () =
        match Pool.Dispenser.next d with
        | Some (m, lo, hi) ->
          seen := (m, lo, hi) :: !seen;
          drain ()
        | None -> ()
      in
      drain ();
      let seen = List.rev !seen in
      Alcotest.(check int)
        (Fmt.str "morsel count for total=%d" total)
        expected_morsels (List.length seen);
      (* contiguous, in morsel-index order, covering [0, total) *)
      let cursor = ref 0 in
      List.iteri
        (fun i (m, lo, hi) ->
          Alcotest.(check int) "morsel index" i m;
          Alcotest.(check int) "contiguous lo" !cursor lo;
          Alcotest.(check bool) "nonempty" true (hi > lo);
          cursor := hi)
        seen;
      Alcotest.(check int) (Fmt.str "covers total=%d" total) total !cursor;
      (* the partition depends on [total] alone: re-arming repeats it *)
      Pool.Dispenser.reset d ~total;
      Alcotest.(check int)
        (Fmt.str "worker-independent partition for total=%d" total)
        expected_morsels
        (Pool.Dispenser.morsels d))
    [ 1; 15; 16; 17; 800; 4096; 1_000_000 ]

(* Worker runs split the same grid: worker [w] drains the [w]-th contiguous
   run of morsels, and the runs, in worker order, cover the grid once. *)
let test_dispenser_runs () =
  let d = Pool.Dispenser.create () in
  List.iter
    (fun (total, runs) ->
      Pool.Dispenser.reset d ~runs ~total;
      let grid = Pool.Dispenser.morsels d in
      let rec drain worker acc =
        match Pool.Dispenser.next ~worker d with
        | Some m -> drain worker (m :: acc)
        | None -> List.rev acc
      in
      let seen = List.concat (List.init runs (fun w -> drain w [])) in
      let tag = Fmt.str "total=%d runs=%d" total runs in
      Alcotest.(check (list int)) (tag ^ ": morsel indices in order")
        (List.init grid Fun.id) (List.map (fun (m, _, _) -> m) seen);
      let cursor =
        List.fold_left
          (fun cursor (_, lo, hi) ->
            Alcotest.(check int) (tag ^ ": contiguous lo") cursor lo;
            hi)
          0 seen
      in
      Alcotest.(check int) (tag ^ ": covers total") total cursor;
      Alcotest.(check int) (tag ^ ": dispensed") grid (Pool.Dispenser.dispensed d))
    [ (1, 4); (15, 2); (800, 3); (4096, 4); (1_000_000, 7) ]

(* --- statistics collection: single pass, same numbers --------------------- *)

let test_collect_stats () =
  let reg = Registry.create (make_catalog ()) in
  ignore (Registry.source reg "items_csv");
  let stats = Catalog.stats (Registry.catalog reg) "items_csv" in
  Alcotest.(check bool) "cardinality" true
    (Stats.cardinality stats = Some (List.length items));
  let oracle path =
    let vs = List.map (fun r -> Value.field r path) items in
    ( List.fold_left (fun a v -> if Value.compare v a < 0 then v else a) (List.hd vs) vs,
      List.fold_left (fun a v -> if Value.compare v a > 0 then v else a) (List.hd vs) vs,
      List.length vs )
  in
  List.iter
    (fun path ->
      match Stats.field stats path with
      | None -> Alcotest.failf "no stats for %s" path
      | Some fs ->
        let mn, mx, nonnull = oracle path in
        Alcotest.check check_value (path ^ " min") mn fs.Stats.min;
        Alcotest.check check_value (path ^ " max") mx fs.Stats.max;
        Alcotest.(check int) (path ^ " nonnull") nonnull fs.Stats.nonnull;
        Alcotest.(check bool) (path ^ " distinct > 0") true
          (fs.Stats.distinct_estimate > 0))
    [ "k"; "grp"; "price" ]

(* The batched cold pass against the statistics of one-value-at-a-time
   observation: [reference] restates the per-value semantics (strict
   [Value.compare] min/max, the first of equals kept, a [compare]-keyed
   distinct sample capped at 1024), and a boxed [Stats.observe] fold must
   agree with it too. Values are read back through each format's own
   boxed getter, so the CSV and JSON float decoding is what both sides
   see. Covers CSV, JSON, binary rows and columns, NaN, -0.0, nulls,
   empty inputs, duplicate-heavy and >1024-distinct columns, and the
   append path. *)
let stats_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("x", Ptype.Option Ptype.Float);
      ("y", Ptype.Float); ("d", Ptype.Date); ("s", Ptype.String) ]

let stats_paths = [ "k"; "grp"; "x"; "y"; "d" ]

let stats_rows_gen =
  let open QCheck2.Gen in
  let special = oneofl [ Float.nan; -0.; 0.; 1.5 ] in
  let row wide =
    let* k = if wide then int_range 0 100_000 else int_range 0 20 in
    let* grp = int_range 0 2 in
    let* x =
      frequency
        [ (2, return Value.Null); (1, map (fun f -> Value.Float f) special);
          (5, map (fun i -> Value.Float (float_of_int i /. 4.)) (int_range (-40) 40)) ]
    in
    let* y =
      frequency
        [ (1, special); (3, map (fun i -> float_of_int i /. 8.) (int_range 0 (if wide then 50_000 else 10))) ]
    in
    let* d = int_range 0 20_000 in
    return
      (Value.record
         [ ("k", Value.Int k); ("grp", Value.Int grp); ("x", x); ("y", Value.Float y);
           ("d", Value.Date d); ("s", Value.String "s") ])
  in
  let* wide = bool in
  list_size (frequency [ (1, return 0); (4, int_range 1 3000) ]) (row wide)

let reference_stats values =
  match List.filter (fun v -> v <> Value.Null) values with
  | [] -> None
  | v0 :: _ as vs ->
    let pick better = List.fold_left (fun a v -> if better (Value.compare v a) then v else a) v0 vs in
    let sample = Hashtbl.create 64 in
    List.iter (fun v -> if Hashtbl.length sample < 1024 then Hashtbl.replace sample v ()) vs;
    let n = List.length vs and sampled = Hashtbl.length sample in
    Some
      {
        Stats.min = pick (fun c -> c < 0);
        max = pick (fun c -> c > 0);
        nonnull = n;
        distinct_estimate = max 1 (if sampled < 1024 then sampled else max sampled (n / 4));
      }

let same_value (a : Value.t) (b : Value.t) =
  match a, b with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> Value.equal a b

let same_stats (a : Stats.field_stats option) b =
  match a, b with
  | None, None -> true
  | Some a, Some b ->
    same_value a.Stats.min b.Stats.min && same_value a.max b.max && a.nonnull = b.nonnull
    && a.distinct_estimate = b.distinct_estimate
  | _ -> false

let pp_stats ppf = function
  | None -> Fmt.string ppf "none"
  | Some (f : Stats.field_stats) ->
    Fmt.pf ppf "[%a, %a] nonnull=%d distinct=%d" Value.pp f.min Value.pp f.max f.nonnull
      f.distinct_estimate

(* [Some msg] when the catalog's statistics of [name] differ from the
   reference or from a boxed fold over the values its source yields *)
let stats_mismatch db name =
  let reg = Proteus.Db.registry db in
  ignore (Registry.source reg name);
  let src = Registry.fresh_source reg name in
  let columns = List.map (fun p -> (p, src.Source.field p, ref [])) stats_paths in
  for i = src.Source.count - 1 downto 0 do
    src.Source.seek i;
    List.iter (fun (_, a, vs) -> vs := a.Access.get_val () :: !vs) columns
  done;
  let boxed = Stats.create () in
  List.iter (fun (p, _, vs) -> List.iter (Stats.observe boxed p) !vs) columns;
  let stats = Catalog.stats (Proteus.Db.catalog db) name in
  List.find_map
    (fun (p, _, vs) ->
      let want = reference_stats !vs and got = Stats.field stats p in
      if not (same_stats want got) then
        Some (Fmt.str "%s.%s: %a, reference %a" name p pp_stats got pp_stats want)
      else if not (same_stats want (Stats.field boxed p)) then
        Some (Fmt.str "%s.%s: boxed fold %a, reference %a" name p pp_stats
                (Stats.field boxed p) pp_stats want)
      else None)
    columns
  |> function
  | Some m -> Some m
  | None ->
    if Stats.cardinality (Catalog.stats (Proteus.Db.catalog db) name) = Some src.Source.count
    then None
    else Some (name ^ ": cardinality")

(* JSON carries no NaN (it has no NaN literal): those become nulls (x) or
   2.5 (y); CSV writes and reads back [nan], the binary formats keep them *)
let no_nan rows =
  List.map
    (fun r ->
      Value.record
        (List.map
           (fun (n, v) ->
             match (v : Value.t) with
             | Float f when Float.is_nan f -> (n, if n = "x" then Value.Null else Value.Float 2.5)
             | v -> (n, v))
           (Array.to_list (Value.fields r))))
    rows

let stats_csv rows =
  Proteus_format.Csv.of_records Proteus_format.Csv.default_config (Schema.of_type stats_type)
    rows

let stats_json rows = to_json (no_nan rows) ^ if rows = [] then "" else "\n"

let prop_batched_stats =
  QCheck2.Test.make ~name:"batched cold statistics == boxed observation" ~count:40
    ~print:(fun rows -> Fmt.str "%d rows" (List.length rows))
    stats_rows_gen
    (fun rows ->
      let module Db = Proteus.Db in
      let db = Db.create () in
      Db.register_csv db ~name:"c" ~element:stats_type ~contents:(stats_csv rows) ();
      Db.register_json db ~name:"j" ~element:stats_type ~contents:(stats_json rows);
      Db.register_rows db ~name:"r" ~element:stats_type rows;
      Db.register_columns_of db ~name:"b" ~element:stats_type rows;
      (* the append path: half the rows, a first access, then the rest *)
      let half = List.filteri (fun i _ -> i < List.length rows / 2) rows in
      let rest = List.filteri (fun i _ -> i >= List.length rows / 2) rows in
      Db.register_csv db ~name:"ca" ~element:stats_type ~contents:(stats_csv half) ();
      Db.register_json db ~name:"ja" ~element:stats_type ~contents:(stats_json half);
      ignore (Registry.source (Db.registry db) "ca");
      ignore (Registry.source (Db.registry db) "ja");
      Db.append db ~name:"ca" (stats_csv rest);
      Db.append db ~name:"ja" (stats_json rest);
      List.iter
        (fun name ->
          match Registry.index_info (Db.registry db) name with
          | Some i when i.Registry.extended_rows = List.length rest -> ()
          | _ -> QCheck2.Test.fail_reportf "%s: the append did not extend the index" name)
        (if rest = [] || half = [] then [] else [ "ca"; "ja" ]);
      match List.find_map (stats_mismatch db) [ "c"; "j"; "r"; "b"; "ca"; "ja" ] with
      | None -> true
      | Some m -> QCheck2.Test.fail_reportf "%s" m)

(* A corrupt numeric field past the first batch: the batch holding it is
   re-read row by row, so under [Fail_fast] the first access fails at that
   row, and under [Skip_row] only the corrupt values go unobserved — every
   other value of the batch, the corrupt rows' other fields included, is
   folded in. *)
let test_stats_corrupt_batch () =
  let n = 3000 and bad_k = 1500 and bad_price = 2100 in
  let line i =
    let k = if i = bad_k then "15x0" else string_of_int i in
    let price = if i = bad_price then "2.x" else Printf.sprintf "%d.25" i in
    Printf.sprintf "%s,%d,%s,n\n" k (i mod 7) price
  in
  let lines = List.init n line in
  let csv = String.concat "" lines in
  let line_start i = List.fold_left (fun a l -> a + String.length l) 0 (List.filteri (fun j _ -> j < i) lines) in
  let session () =
    let db = Proteus.Db.create () in
    Proteus.Db.register_csv db ~name:"c" ~element:item_type ~contents:csv ();
    db
  in
  (match Registry.source (Proteus.Db.registry (session ())) "c" with
  | exception Perror.Parse_error { pos; _ } ->
    Alcotest.(check bool) "fails inside the corrupt row" true
      (pos >= line_start bad_k && pos < line_start (bad_k + 1))
  | _ -> Alcotest.fail "a corrupt field must fail the first access");
  let db = session () in
  (match
     Executor.query ~policy:Fault.Skip_row (fun () ->
         ignore (Registry.source (Proteus.Db.registry db) "c");
         Value.Null)
   with
  | Executor.Completed _ -> ()
  | _ -> Alcotest.fail "the statistics pass must not fail under Skip_row");
  let stats = Catalog.stats (Proteus.Db.catalog db) "c" in
  let field p = Option.get (Stats.field stats p) in
  Alcotest.(check (list int)) "non-null counts (k, grp, price)" [ n - 1; n; n - 1 ]
    (List.map (fun p -> (field p).Stats.nonnull) [ "k"; "grp"; "price" ]);
  Alcotest.check check_value "k max" (Value.Int (n - 1)) (field "k").Stats.max;
  Alcotest.check check_value "price max" (Value.Float (float_of_int (n - 1) +. 0.25))
    (field "price").Stats.max

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "filtered count" `Quick test_filtered_count;
          Alcotest.test_case "select+project" `Quick test_select_project;
          Alcotest.test_case "collect bag" `Quick test_collect_bag;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "join project" `Quick test_join_project;
          Alcotest.test_case "unnest" `Quick test_unnest;
          Alcotest.test_case "sort" `Quick test_sort;
          Alcotest.test_case "sort over group by" `Quick test_sort_over_group_by;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "float aggregates across domain counts" `Quick
            test_float_determinism;
          Alcotest.test_case "group-by floats at a fixed width" `Quick
            test_group_float_contract;
          Alcotest.test_case "one domain is serial" `Quick test_one_domain_is_serial;
          Alcotest.test_case "output independent of domain count" `Quick
            test_domain_independent;
        ] );
      ( "caching",
        [ Alcotest.test_case "parallel session parity" `Quick test_cache_parity ] );
      ( "runtime",
        [
          Alcotest.test_case "counters domain-safe" `Quick test_counters_domain_safe;
          Alcotest.test_case "counters survive slot collisions" `Quick
            test_counters_slot_collision;
          Alcotest.test_case "dispenser coverage" `Quick test_dispenser_coverage;
          Alcotest.test_case "dispenser worker runs" `Quick test_dispenser_runs;
        ] );
      ( "stats",
        [ Alcotest.test_case "cold collection matches oracle" `Quick test_collect_stats;
          Alcotest.test_case "corrupt field in a later batch" `Quick test_stats_corrupt_batch;
          QCheck_alcotest.to_alcotest prop_batched_stats ] );
    ]
