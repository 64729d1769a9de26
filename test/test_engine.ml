(* Differential tests for the two executors: on the same plans and the same
   datasets (in every supported format), the compiled engine and the Volcano
   interpreter must agree with the reference algebra evaluator. *)

open Proteus_model
open Proteus_storage
open Proteus_catalog
open Proteus_plugin
open Proteus_engine
module Plan = Proteus_algebra.Plan
module Interp = Proteus_algebra.Interp

let check_value = Alcotest.testable Value.pp Value.equal

(* --- a small relational dataset in all four formats ----------------------- *)

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

let item_schema = Schema.of_type item_type

let items =
  (* deterministic pseudo-random contents *)
  List.init 200 (fun i ->
      let k = i in
      let grp = i mod 7 in
      let price = float_of_int ((i * 37) mod 100) /. 4.0 in
      let name = Fmt.str "n%d" (i mod 13) in
      Value.record
        [ ("k", Value.Int k); ("grp", Value.Int grp); ("price", Value.Float price);
          ("name", Value.String name) ])

let groups_type =
  Ptype.Record [ ("gid", Ptype.Int); ("label", Ptype.String) ]

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
  List.init 40 (fun i ->
      let kids =
        List.init (i mod 4) (fun j ->
            Value.record
              [ ("age", Value.Int ((i + (j * 11)) mod 40));
                ("nick", Value.String (Fmt.str "kid%d_%d" i j)) ])
      in
      Value.record [ ("id", Value.Int i); ("kids", Value.list_ kids) ])

let to_json records =
  String.concat "\n"
    (List.map (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r)) records)

(* a schema-flexible JSON dataset: some objects lack the optional fields *)
let sparse_type =
  Ptype.Record
    [ ("id", Ptype.Int); ("score", Ptype.Option Ptype.Float);
      ("tag", Ptype.Option Ptype.String) ]

let sparse =
  List.init 60 (fun i ->
      Value.record
        ([ ("id", Value.Int i) ]
        @ (if i mod 3 = 0 then [] else [ ("score", Value.Float (float_of_int (i mod 7))) ])
        @ if i mod 4 = 0 then [] else [ ("tag", Value.String (Fmt.str "t%d" (i mod 5))) ]))

(* the oracle sees the missing fields as Null *)
let sparse_oracle =
  List.map
    (fun r ->
      Value.record
        [
          ("id", Value.field r "id");
          ("score", Option.value (Value.field_opt r "score") ~default:Value.Null);
          ("tag", Option.value (Value.field_opt r "tag") ~default:Value.Null);
        ])
    sparse

let make_catalog () =
  let cat = Catalog.create () in
  let mem = Catalog.memory cat in
  (* CSV *)
  Memory.register_blob mem ~name:"items.csv"
    (Proteus_format.Csv.of_records Proteus_format.Csv.default_config item_schema items);
  Catalog.register cat
    (Dataset.make ~name:"items_csv"
       ~format:(Dataset.Csv Proteus_format.Csv.default_config)
       ~location:(Dataset.Blob "items.csv") ~element:item_type);
  (* JSON *)
  Memory.register_blob mem ~name:"items.json" (to_json items);
  Catalog.register cat
    (Dataset.make ~name:"items_json" ~format:Dataset.Json
       ~location:(Dataset.Blob "items.json") ~element:item_type);
  (* binary row *)
  Catalog.register cat
    (Dataset.make ~name:"items_row" ~format:Dataset.Binary_row
       ~location:(Dataset.Rows (Rowpage.of_records item_schema items))
       ~element:item_type);
  (* binary column *)
  let col name ty = (name, Column.of_values ty (List.map (fun r -> Value.field r name) items)) in
  Catalog.register cat
    (Dataset.make ~name:"items_col" ~format:Dataset.Binary_column
       ~location:
         (Dataset.Columns
            [ col "k" Ptype.Int; col "grp" Ptype.Int; col "price" Ptype.Float;
              col "name" Ptype.String ])
       ~element:item_type);
  (* dimension table and nested dataset as JSON *)
  Memory.register_blob mem ~name:"groups.json" (to_json groups);
  Catalog.register cat
    (Dataset.make ~name:"groups" ~format:Dataset.Json
       ~location:(Dataset.Blob "groups.json") ~element:groups_type);
  Memory.register_blob mem ~name:"nested.json" (to_json nested);
  Catalog.register cat
    (Dataset.make ~name:"nested" ~format:Dataset.Json
       ~location:(Dataset.Blob "nested.json") ~element:nested_type);
  Memory.register_blob mem ~name:"sparse.json" (to_json sparse);
  Catalog.register cat
    (Dataset.make ~name:"sparse" ~format:Dataset.Json
       ~location:(Dataset.Blob "sparse.json") ~element:sparse_type);
  cat

let lookup name =
  match name with
  | "items_csv" | "items_json" | "items_row" | "items_col" -> items
  | "groups" -> groups
  | "nested" -> nested
  | "sparse" -> sparse_oracle
  | other -> Perror.plan_error "no dataset %s" other

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

let registry = lazy (Registry.create (make_catalog ()))

(* Run one plan on all engines and compare against the oracle. *)
let check_plan ?(name = "plan") plan =
  let reg = Lazy.force registry in
  let expected = sort_bag (Interp.run ~lookup plan) in
  let compiled = sort_bag (Executor.run reg ~engine:Executor.Engine_compiled plan) in
  let volcano = sort_bag (Executor.run reg ~engine:Executor.Engine_volcano plan) in
  Alcotest.check check_value (name ^ " (compiled)") expected compiled;
  Alcotest.check check_value (name ^ " (volcano)") expected volcano

let item_datasets = [ "items_csv"; "items_json"; "items_row"; "items_col" ]

(* --- fixed scenarios across all formats ----------------------------------- *)

let test_count_filter () =
  List.iter
    (fun ds ->
      check_plan ~name:ds
        (Plan.reduce
           ~pred:Expr.(Field (var "x", "k") <. int 50)
           [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    item_datasets

let test_multi_agg () =
  List.iter
    (fun ds ->
      check_plan ~name:ds
        (Plan.reduce
           [
             Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"mx" (Monoid.Primitive Monoid.Max) Expr.(Field (var "x", "price"));
             Plan.agg ~name:"sm" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "k"));
             Plan.agg ~name:"mn" (Monoid.Primitive Monoid.Min) Expr.(Field (var "x", "grp"));
           ]
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    item_datasets

let test_select_project () =
  List.iter
    (fun ds ->
      check_plan ~name:ds
        (Plan.project ~binding:"out"
           ~fields:
             [ ("kk", Expr.(Field (var "x", "k") *. int 2));
               ("nm", Expr.(Field (var "x", "name"))) ]
           (Plan.select
              Expr.(Field (var "x", "price") >=. float 10.0 &&& (Field (var "x", "grp") ==. int 3))
              (Plan.scan ~dataset:ds ~binding:"x" ()))))
    item_datasets

let test_string_predicates () =
  List.iter
    (fun ds ->
      check_plan ~name:ds
        (Plan.reduce
           ~pred:Expr.(Binop (Like, Field (var "x", "name"), str "n1%"))
           [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    item_datasets

let test_group_by () =
  List.iter
    (fun ds ->
      check_plan ~name:ds
        (Plan.nest
           ~keys:[ ("g", Expr.(Field (var "x", "grp"))) ]
           ~aggs:
             [
               Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
               Plan.agg ~name:"total" (Monoid.Primitive Monoid.Sum)
                 Expr.(Field (var "x", "price"));
             ]
           ~binding:"grp"
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    item_datasets

let test_join_fact_dim () =
  List.iter
    (fun ds ->
      check_plan ~name:ds
        (Plan.reduce
           [
             Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
             Plan.agg ~name:"m" (Monoid.Primitive Monoid.Max) Expr.(Field (var "x", "k"));
           ]
           (Plan.select
              Expr.(Field (var "x", "k") <. int 120)
              (Plan.join
                 ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
                 (Plan.scan ~dataset:ds ~binding:"x" ())
                 (Plan.scan ~dataset:"groups" ~binding:"g" ())))))
    item_datasets

let test_join_project_both_sides () =
  check_plan
    (Plan.project ~binding:"o"
       ~fields:
         [ ("k", Expr.(Field (var "x", "k"))); ("lbl", Expr.(Field (var "g", "label"))) ]
       (Plan.select
          Expr.(Field (var "x", "k") <. int 10)
          (Plan.join
             ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
             (Plan.scan ~dataset:"items_json" ~binding:"x" ())
             (Plan.scan ~dataset:"groups" ~binding:"g" ()))))

let test_left_outer_join () =
  (* keys 0..6 exist; restrict right side to gid < 3 so some rows pad *)
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.select
          Expr.(Unop (Is_null, Field (var "g", "gid")))
          (Plan.join ~kind:Plan.Left_outer
             ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
             (Plan.scan ~dataset:"items_csv" ~binding:"x" ())
             (Plan.select
                Expr.(Field (var "g", "gid") <. int 3)
                (Plan.scan ~dataset:"groups" ~binding:"g" ())))))

let test_nested_loop_join () =
  (* non-equi join predicate forces the nested-loop fallback *)
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.join ~algo:Plan.Nested_loop
          ~pred:Expr.(Field (var "g", "gid") >. Field (var "h", "gid"))
          (Plan.scan ~dataset:"groups" ~binding:"g" ())
          (Plan.scan ~dataset:"groups" ~binding:"h" ())))

let test_unnest () =
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.unnest
          ~pred:Expr.(Field (var "kid", "age") >. int 18)
          ~path:Expr.(Field (var "n", "kids"))
          ~binding:"kid"
          (Plan.scan ~dataset:"nested" ~binding:"n" ())))

let test_unnest_project_elem_fields () =
  check_plan
    (Plan.project ~binding:"o"
       ~fields:
         [ ("id", Expr.(Field (var "n", "id"))); ("nick", Expr.(Field (var "kid", "nick"))) ]
       (Plan.unnest
          ~pred:Expr.(Field (var "kid", "age") <. int 10)
          ~path:Expr.(Field (var "n", "kids"))
          ~binding:"kid"
          (Plan.scan ~dataset:"nested" ~binding:"n" ())))

let test_outer_unnest () =
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.select
          Expr.(Unop (Is_null, Var "kid"))
          (Plan.unnest ~outer:true
             ~path:Expr.(Field (var "n", "kids"))
             ~binding:"kid"
             (Plan.scan ~dataset:"nested" ~binding:"n" ()))))

let test_unnest_then_join () =
  (* heterogeneous join: nested JSON kids against the groups table *)
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.join
          ~pred:Expr.(Binop (Mod, Field (var "kid", "age"), int 7) ==. Field (var "g", "gid"))
          (Plan.unnest
             ~path:Expr.(Field (var "n", "kids"))
             ~binding:"kid"
             (Plan.scan ~dataset:"nested" ~binding:"n" ()))
          (Plan.scan ~dataset:"groups" ~binding:"g" ())))

let test_collect_bag_expr () =
  List.iter
    (fun ds ->
      check_plan ~name:ds
        (Plan.reduce
           ~pred:Expr.(Field (var "x", "k") <. int 5)
           [
             Plan.agg ~name:"r" (Monoid.Collection Ptype.Bag)
               Expr.(Field (var "x", "price") +. float 1.0);
           ]
           (Plan.scan ~dataset:ds ~binding:"x" ())))
    [ "items_csv"; "items_json" ]

let test_nullable_json_fields () =
  (* optional fields: missing values must read as NULL through every engine;
     NULL comparisons drop rows; IS NULL observes them *)
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.select
          Expr.(Field (var "s", "score") >=. float 3.0)
          (Plan.scan ~dataset:"sparse" ~binding:"s" ())));
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       (Plan.select
          Expr.(Unop (Is_null, Field (var "s", "tag")))
          (Plan.scan ~dataset:"sparse" ~binding:"s" ())));
  (* aggregates over a nullable column skip NULLs (Monoid semantics) *)
  check_plan
    (Plan.reduce
       [
         Plan.agg ~name:"m" (Monoid.Primitive Monoid.Max)
           Expr.(Field (var "s", "score"));
         Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
       ]
       (Plan.scan ~dataset:"sparse" ~binding:"s" ()))

let test_nullable_group_key () =
  check_plan
    (Plan.nest
       ~keys:[ ("tag", Expr.(Field (var "s", "tag"))) ]
       ~aggs:[ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
       ~binding:"g"
       (Plan.scan ~dataset:"sparse" ~binding:"s" ()))

let test_sort_operator () =
  (* order-sensitive: compare without bag-sorting *)
  let reg = Lazy.force registry in
  let plan =
    Plan.sort ~limit:7
      ~keys:
        [ (Expr.(Field (var "x", "grp")), Plan.Asc);
          (Expr.(Field (var "x", "price")), Plan.Desc) ]
      (Plan.select
         Expr.(Field (var "x", "k") <. int 60)
         (Plan.scan ~dataset:"items_json" ~binding:"x" ()))
  in
  let expected = Interp.run ~lookup plan in
  Alcotest.check check_value "compiled" expected
    (Executor.run reg ~engine:Executor.Engine_compiled plan);
  Alcotest.check check_value "volcano" expected
    (Executor.run reg ~engine:Executor.Engine_volcano plan)

let test_sort_above_join () =
  let reg = Lazy.force registry in
  let plan =
    Plan.sort
      ~keys:[ (Expr.(Field (var "g", "label")), Plan.Desc);
              (Expr.(Field (var "x", "k")), Plan.Asc) ]
      ~limit:10
      (Plan.join
         ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
         (Plan.select
            Expr.(Field (var "x", "k") <. int 30)
            (Plan.scan ~dataset:"items_csv" ~binding:"x" ()))
         (Plan.scan ~dataset:"groups" ~binding:"g" ()))
  in
  let expected = Interp.run ~lookup plan in
  Alcotest.check check_value "compiled" expected
    (Executor.run reg ~engine:Executor.Engine_compiled plan);
  Alcotest.check check_value "volcano" expected
    (Executor.run reg ~engine:Executor.Engine_volcano plan)

let test_avg_agg () =
  check_plan
    (Plan.reduce
       [ Plan.agg ~name:"a" (Monoid.Primitive Monoid.Avg) Expr.(Field (var "x", "price")) ]
       (Plan.scan ~dataset:"items_col" ~binding:"x" ()))

(* --- randomized plans ------------------------------------------------------ *)

let plan_gen : Plan.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let field f = Expr.Field (Expr.var "x", f) in
  let pred_gen =
    oneof
      [
        map (fun k -> Expr.(field "k" <. int k)) (int_range 0 220);
        map (fun k -> Expr.(field "grp" ==. int k)) (int_range 0 8);
        map (fun f -> Expr.(field "price" >=. float f)) (float_bound_inclusive 30.0);
        map2
          (fun a b -> Expr.(field "k" >=. int a &&& (field "k" <. int (a + b))))
          (int_range 0 100) (int_range 0 100);
      ]
  in
  let agg_gen =
    oneof
      [
        return (Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1));
        return (Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (field "k"));
        return (Plan.agg ~name:"m" (Monoid.Primitive Monoid.Max) (field "price"));
        return (Plan.agg ~name:"n" (Monoid.Primitive Monoid.Min) (field "k"));
      ]
  in
  let* ds = oneofl item_datasets in
  let* preds = list_size (int_range 0 2) pred_gen in
  let* aggs = list_size (int_range 1 3) agg_gen in
  let base = Plan.scan ~dataset:ds ~binding:"x" () in
  let filtered = List.fold_left (fun p pred -> Plan.select pred p) base preds in
  let* shape = int_range 0 2 in
  let dedup_aggs aggs =
    (* unique agg names required for record output *)
    List.mapi (fun i (a : Plan.agg) -> { a with agg_name = Fmt.str "%s%d" a.agg_name i }) aggs
  in
  match shape with
  | 0 -> return (Plan.reduce (dedup_aggs aggs) filtered)
  | 1 ->
    return
      (Plan.nest
         ~keys:[ ("g", field "grp") ]
         ~aggs:(dedup_aggs aggs) ~binding:"grp" filtered)
  | _ ->
    return
      (Plan.reduce (dedup_aggs aggs)
         (Plan.join
            ~pred:Expr.(field "grp" ==. Expr.Field (Expr.var "g", "gid"))
            filtered
            (Plan.scan ~dataset:"groups" ~binding:"g" ())))

let sort_agree_prop =
  (* random keys/directions/limits: order-sensitive comparison vs oracle *)
  let open QCheck2.Gen in
  let key_gen =
    let* field = oneofl [ "k"; "grp"; "price"; "name" ] in
    let* dir = oneofl [ Plan.Asc; Plan.Desc ] in
    return (Expr.path "x" [ field ], dir)
  in
  let gen =
    let* keys = list_size (int_range 0 3) key_gen in
    let* limit = opt (int_range 0 250) in
    let* threshold = int_range 0 200 in
    return
      (Plan.Sort
         {
           keys;
           limit;
           input =
             Plan.select
               Expr.(Field (var "x", "k") <. int threshold)
               (Plan.scan ~dataset:"items_row" ~binding:"x" ());
         })
  in
  QCheck2.Test.make ~name:"sort/limit: engines match oracle order" ~count:80 gen
    (fun plan ->
      let reg = Lazy.force registry in
      let expected = Interp.run ~lookup plan in
      Value.equal expected (Executor.run reg ~engine:Executor.Engine_compiled plan)
      && Value.equal expected (Executor.run reg ~engine:Executor.Engine_volcano plan))

let engines_agree_prop =
  QCheck2.Test.make ~name:"compiled == volcano == oracle on random plans" ~count:60
    plan_gen (fun plan ->
      let reg = Lazy.force registry in
      let expected = sort_bag (Interp.run ~lookup plan) in
      Value.equal expected
        (sort_bag (Executor.run reg ~engine:Executor.Engine_compiled plan))
      && Value.equal expected
           (sort_bag (Executor.run reg ~engine:Executor.Engine_volcano plan)))

(* --- one JSON field, every read path ---------------------------------------- *)

(* Records with an int, a float, a date, a bool and a string field, each
   nullable or not (a nullable one may be null or absent), written as a
   top-level JSON dataset in fixed or shuffled field order and nested as
   the [items] of parent objects, each element carrying the record's
   fields and the record again under [r]. Dates are written as ISO strings
   or day counts, integral floats sometimes as int literals. The same
   records also go, top-level only, through every other plug-in: CSV, a
   3-member CSV shard set, binary rows and binary columns. Every field is
   read top-level (projected, tested with IS NULL, and filtered on the
   batch lane, plainly and on IS NULL), as a fused element field, as a
   dotted element path ([i.r.f]) and boxed ([bag(x)], [bag(i)]): the
   compiled engine at batch sizes 0 and 1024 and Volcano must agree with
   the reference evaluator over the source values. A nullable string is
   never empty: in CSV an empty field is the null. *)
module Json = Proteus_format.Json

let fields_of =
  [ ("i", Ptype.Int); ("f", Ptype.Float); ("d", Ptype.Date); ("b", Ptype.Bool);
    ("s", Ptype.String) ]

(* one member: its name, how it is written, and the value it stands for *)
let gen_member ~nullable (name, ty) =
  let open QCheck2.Gen in
  let+ written, v =
    match ty with
    | Ptype.Int -> map (fun i -> (Json.Int i, Value.Int i)) (int_range (-50) 50)
    | Ptype.Float ->
      map2
        (fun k as_int ->
          let f = float_of_int k /. 4. in
          ((if as_int && Float.is_integer f then Json.Int (int_of_float f) else Json.Float f),
           Value.Float f))
        (int_range (-40) 40) bool
    | Ptype.Date ->
      map2
        (fun d iso ->
          ((if iso then Json.Str (Date_util.to_string d) else Json.Int d), Value.Date d))
        (int_range 0 20000) bool
    | Ptype.Bool -> map (fun b -> (Json.Bool b, Value.Bool b)) bool
    | _ ->
      map
        (fun s -> (Json.Str s, Value.String s))
        (string_size ~gen:(oneofl [ 'a'; 'b'; '"'; '\\'; ' ' ])
           (int_range (if nullable then 1 else 0) 4))
  in
  (name, written, v)

let read_path_gen =
  let open QCheck2.Gen in
  let* nullable = list_repeat (List.length fields_of) bool in
  let* shuffled = bool in
  let member k nul =
    if not nul then map Option.some (gen_member ~nullable:false k)
    else
      frequency
        [ (3, map Option.some (gen_member ~nullable:true k));
          (1, return (Some (fst k, Json.Null, Value.Null)));
          (1, return None) ]
  in
  let record =
    let* ms = flatten_l (List.map2 member fields_of nullable) in
    let ms = List.filter_map Fun.id ms in
    if shuffled then shuffle_l ms else return ms
  in
  let+ records = list_size (int_range 0 12) record in
  (nullable, shuffled, records)

let member_json ms = List.map (fun (n, j, _) -> (n, j)) ms
let member_value ms = List.map (fun (n, _, v) -> (n, v)) ms

let print_read_path (nullable, shuffled, records) =
  Fmt.str "nullable=%a shuffled=%b@.%s" Fmt.(Dump.list bool) nullable shuffled
    (String.concat "\n" (List.map (fun ms -> Json.to_string (Json.Obj (member_json ms))) records))

let read_path_prop =
  QCheck2.Test.make ~name:"one field, every read path" ~count:100 ~print:print_read_path
    read_path_gen (fun (nullable, _, records) ->
      let rec_fields =
        List.map2 (fun (n, ty) nul -> (n, if nul then Ptype.Option ty else ty)) fields_of nullable
      in
      let rec_ty = Ptype.Record rec_fields in
      let elem_ty = Ptype.Record (rec_fields @ [ ("r", rec_ty) ]) in
      let parent_ty =
        Ptype.Record [ ("id", Ptype.Int); ("items", Ptype.Collection (Ptype.List, elem_ty)) ]
      in
      (* parents of up to three elements, one with an empty array *)
      let rec chunks = function
        | a :: b :: c :: rest -> [ a; b; c ] :: chunks rest
        | [] -> []
        | short -> [ short ]
      in
      let parents = List.mapi (fun j ms -> (j, ms)) ([] :: chunks records) in
      let elem ms = member_json ms @ [ ("r", Json.Obj (member_json ms)) ] in
      let elem_value ms =
        Value.record (member_value ms @ [ ("r", Value.record (member_value ms)) ])
      in
      let cat = Catalog.create () in
      let register name element objs =
        Memory.register_blob (Catalog.memory cat) ~name
          (String.concat "\n" (List.map (fun o -> Json.to_string (Json.Obj o)) objs));
        Catalog.register cat
          (Dataset.make ~name ~format:Dataset.Json ~location:(Dataset.Blob name) ~element)
      in
      register "top" rec_ty (List.map member_json records);
      (* the other plug-ins read the records with absent fields as nulls *)
      let full =
        List.map
          (fun ms ->
            Value.record
              (List.map
                 (fun (n, _) ->
                   (n, Option.value (List.assoc_opt n (member_value ms)) ~default:Value.Null))
                 fields_of))
          records
      in
      let schema = Schema.of_type rec_ty in
      let csv rs = Proteus_format.Csv.of_records Proteus_format.Csv.default_config schema rs in
      let register_csv name rs =
        Memory.register_blob (Catalog.memory cat) ~name (csv rs);
        Catalog.register cat
          (Dataset.make ~name ~format:(Dataset.Csv Proteus_format.Csv.default_config)
             ~location:(Dataset.Blob name) ~element:rec_ty)
      in
      register_csv "top_csv" full;
      Catalog.register cat
        (Dataset.make ~name:"top_row" ~format:Dataset.Binary_row
           ~location:(Dataset.Rows (Rowpage.of_records schema full)) ~element:rec_ty);
      Catalog.register cat
        (Dataset.make ~name:"top_col" ~format:Dataset.Binary_column
           ~location:
             (Dataset.Columns
                (List.map
                   (fun (n, ty) -> (n, Column.of_values ty (List.map (fun r -> Value.field r n) full)))
                   rec_fields))
           ~element:rec_ty);
      let third = (List.length full + 2) / 3 in
      let members =
        List.init 3 (fun m ->
            let name = Fmt.str "top_sh%d" m in
            register_csv name (List.filteri (fun i _ -> i / third = m) full);
            name)
      in
      register "parents" parent_ty
        (List.map
           (fun (j, ms) ->
             [ ("id", Json.Int j); ("items", Json.Arr (List.map (fun m -> Json.Obj (elem m)) ms)) ])
           parents);
      let tops = [ "top"; "top_csv"; "top_row"; "top_col"; "top_sh" ] in
      let lookup = function
        | "top" -> List.map (fun ms -> Value.record (member_value ms)) records
        | "top_csv" | "top_row" | "top_col" | "top_sh" -> full
        | "parents" ->
          List.map
            (fun (j, ms) ->
              Value.record [ ("id", Value.Int j); ("items", Value.list_ (List.map elem_value ms)) ])
            parents
        | other -> Perror.plan_error "no dataset %s" other
      in
      let reg = Registry.create cat in
      Registry.register_shard_set reg ~name:"top_sh" ~members;
      let bag e = Plan.agg ~name:"v" (Monoid.Collection Ptype.Bag) e in
      let project get input =
        Plan.project ~binding:"o" ~fields:(List.map (fun (n, _) -> (n, get n)) fields_of) input
      in
      let elems =
        Plan.unnest ~path:Expr.(Field (var "p", "items")) ~binding:"i"
          (Plan.scan ~dataset:"parents" ~binding:"p" ())
      in
      let is_null v = Expr.Unop (Expr.Is_null, v) in
      let top_plans dataset =
        let top = Plan.scan ~dataset ~binding:"x" () in
        [ project (fun n -> Expr.(Field (var "x", n))) top;
          project (fun n -> is_null Expr.(Field (var "x", n))) top;
          Plan.reduce [ bag (Expr.var "x") ] top ]
        @ List.concat_map
            (fun (n, _) ->
              let v = Expr.(Field (var "x", n)) in
              [ Plan.reduce [ bag v ] (Plan.select Expr.(v ==. v) top);
                Plan.reduce [ bag v ] (Plan.select (is_null v) top) ])
            fields_of
      in
      let plans =
        List.concat_map top_plans tops
        @ [ project (fun n -> Expr.(Field (var "i", n))) elems;
            project (fun n -> Expr.(Field (Field (var "i", "r"), n))) elems;
            Plan.reduce [ bag (Expr.var "i") ] elems ]
      in
      List.for_all
        (fun plan ->
          let expected = sort_bag (Interp.run ~lookup plan) in
          List.for_all
            (fun (engine, batch_size) ->
              let got = sort_bag (Executor.run ~batch_size reg ~engine plan) in
              Value.equal expected got
              || QCheck2.Test.fail_reportf "%a: expected %a, got %a" Plan.pp plan Value.pp
                   expected Value.pp got)
            [ (Executor.Engine_compiled, 0); (Executor.Engine_compiled, 1024);
              (Executor.Engine_volcano, 0) ])
        plans)

(* An element lacking a non-nullable field is a positioned parse error at
   the element's byte, as a missing top-level field is at its object's. *)
let test_unnest_missing_field () =
  let src = {|{"id": 1, "items": [{"q": 3}, {"sd": 2}]}|} in
  let cat = Catalog.create () in
  Memory.register_blob (Catalog.memory cat) ~name:"o.json" src;
  Catalog.register cat
    (Dataset.make ~name:"o" ~format:Dataset.Json ~location:(Dataset.Blob "o.json")
       ~element:
         (Ptype.Record
            [ ("id", Ptype.Int);
              ( "items",
                Ptype.Collection
                  (Ptype.List, Ptype.Record [ ("q", Ptype.Int); ("sd", Ptype.Option Ptype.Int) ])
              ) ]));
  let reg = Registry.create cat in
  let plan =
    Plan.reduce
      [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "i", "q")) ]
      (Plan.unnest ~path:Expr.(Field (var "x", "items")) ~binding:"i"
         (Plan.scan ~dataset:"o" ~binding:"x" ()))
  in
  List.iter
    (fun engine ->
      match Executor.run reg ~engine plan with
      | v -> Alcotest.failf "expected a parse error, got %a" Value.pp v
      | exception Perror.Parse_error { pos; _ } ->
        Alcotest.(check int) "element's byte" (String.rindex src '{') pos)
    [ Executor.Engine_compiled; Executor.Engine_volcano ]

(* --- counters -------------------------------------------------------------- *)

let test_counters_contrast () =
  let reg = Lazy.force registry in
  let plan =
    Plan.reduce
      ~pred:Expr.(Field (var "x", "k") <. int 100)
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.scan ~dataset:"items_row" ~binding:"x" ())
  in
  let stats engine = snd (Executor.measure (fun () -> Executor.run reg ~engine plan)) in
  let compiled = stats Executor.Engine_compiled in
  let volcano = stats Executor.Engine_volcano in
  Alcotest.(check int) "same tuples" compiled.Counters.tuples volcano.Counters.tuples;
  Alcotest.(check int) "compiled has zero dispatches" 0 compiled.Counters.dispatches;
  Alcotest.(check bool) "volcano pays per-tuple dispatch" true
    (volcano.Counters.dispatches > 100)

let test_error_unknown_dataset () =
  let reg = Lazy.force registry in
  Alcotest.(check bool) "plan error" true
    (try
       ignore
         (Executor.run reg ~engine:Executor.Engine_compiled
            (Plan.scan ~dataset:"nope" ~binding:"x" ()));
       false
     with Perror.Plan_error _ -> true)

let test_error_unknown_field () =
  let reg = Lazy.force registry in
  Alcotest.(check bool) "plan error" true
    (try
       ignore
         (Executor.run reg ~engine:Executor.Engine_compiled
            (Plan.reduce
               [ Plan.agg (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "zzz")) ]
               (Plan.scan ~dataset:"items_csv" ~binding:"x" ())));
       false
     with Perror.Plan_error _ -> true)

(* --- radix-clustered join index -------------------------------------------- *)

let test_radix_basic () =
  let keys = [| 5; 3; 5; 9; 3; 5 |] in
  let r = Radix.build keys in
  let rows k =
    let acc = ref [] in
    Radix.iter r k ~f:(fun row -> acc := row :: !acc);
    List.rev !acc
  in
  Alcotest.(check (list int)) "key 5" [ 0; 2; 5 ] (rows 5);
  Alcotest.(check (list int)) "key 3" [ 1; 4 ] (rows 3);
  Alcotest.(check (list int)) "key 9" [ 3 ] (rows 9);
  Alcotest.(check (list int)) "absent" [] (rows 7);
  Alcotest.(check bool) "partitioned" true (Radix.partitions r >= 4)

let test_radix_empty () =
  let r = Radix.build [||] in
  let hit = ref false in
  Radix.iter r 1 ~f:(fun _ -> hit := true);
  Alcotest.(check bool) "no rows" false !hit

let radix_matches_assoc =
  QCheck2.Test.make ~name:"radix index == reference lookup" ~count:200
    QCheck2.Gen.(pair (array_size (int_range 0 400) (int_range (-50) 50)) (int_range (-60) 60))
    (fun (keys, probe) ->
      let r = Radix.build keys in
      let got = ref [] in
      Radix.iter r probe ~f:(fun row -> got := row :: !got);
      let expected =
        Array.to_list keys
        |> List.mapi (fun i k -> (i, k))
        |> List.filter_map (fun (i, k) -> if k = probe then Some i else None)
      in
      List.rev !got = expected)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          Alcotest.test_case "count+filter" `Quick test_count_filter;
          Alcotest.test_case "multi aggregate" `Quick test_multi_agg;
          Alcotest.test_case "select+project" `Quick test_select_project;
          Alcotest.test_case "string predicates" `Quick test_string_predicates;
          Alcotest.test_case "group by" `Quick test_group_by;
          Alcotest.test_case "join fact-dim" `Quick test_join_fact_dim;
          Alcotest.test_case "join project both sides" `Quick test_join_project_both_sides;
          Alcotest.test_case "left outer join" `Quick test_left_outer_join;
          Alcotest.test_case "nested loop join" `Quick test_nested_loop_join;
          Alcotest.test_case "unnest" `Quick test_unnest;
          Alcotest.test_case "unnest element fields" `Quick test_unnest_project_elem_fields;
          Alcotest.test_case "outer unnest" `Quick test_outer_unnest;
          Alcotest.test_case "unnest then join" `Quick test_unnest_then_join;
          Alcotest.test_case "collect bag" `Quick test_collect_bag_expr;
          Alcotest.test_case "nullable json fields" `Quick test_nullable_json_fields;
          Alcotest.test_case "nullable group key" `Quick test_nullable_group_key;
          Alcotest.test_case "avg" `Quick test_avg_agg;
          Alcotest.test_case "sort operator" `Quick test_sort_operator;
          Alcotest.test_case "sort above join" `Quick test_sort_above_join;
          Alcotest.test_case "unnest missing non-nullable field" `Quick test_unnest_missing_field;
        ]
        @ qsuite [ engines_agree_prop; sort_agree_prop; read_path_prop ] );
      ( "radix",
        [
          Alcotest.test_case "basic" `Quick test_radix_basic;
          Alcotest.test_case "empty" `Quick test_radix_empty;
        ]
        @ qsuite [ radix_matches_assoc ] );
      ( "counters",
        [
          Alcotest.test_case "compiled vs volcano" `Quick test_counters_contrast;
        ] );
      ( "registry",
        [
          Alcotest.test_case "index info + invalidate" `Quick (fun () ->
              let reg = Registry.create (make_catalog ()) in
              ignore (Registry.source reg "items_json");
              (match Registry.index_info reg "items_json" with
              | Some info ->
                Alcotest.(check bool) "size positive" true (info.Registry.size_bytes > 0);
                Alcotest.(check bool) "input measured" true (info.Registry.input_bytes > 0)
              | None -> Alcotest.fail "no index info after first access");
              (* cold access collected statistics *)
              let stats =
                Proteus_catalog.Catalog.stats (Registry.catalog reg) "items_json"
              in
              Alcotest.(check bool) "cardinality collected" true
                (Proteus_catalog.Stats.cardinality stats = Some (List.length items));
              Registry.invalidate reg "items_json";
              Alcotest.(check bool) "info dropped" true
                (Registry.index_info reg "items_json" = None));
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown dataset" `Quick test_error_unknown_dataset;
          Alcotest.test_case "unknown field" `Quick test_error_unknown_field;
        ] );
    ]
