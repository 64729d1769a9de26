(* End-to-end tests through the Proteus facade: SQL and comprehensions over
   heterogeneous datasets with optimization, caching and both engines. *)

open Proteus_model
open Proteus

let check_value = Alcotest.testable Value.pp Value.equal

let order_type =
  Ptype.Record
    [ ("o_orderkey", Ptype.Int); ("o_total", Ptype.Float); ("o_clerk", Ptype.String) ]

let lineitem_type =
  Ptype.Record
    [ ("l_orderkey", Ptype.Int); ("l_linenumber", Ptype.Int);
      ("l_quantity", Ptype.Int); ("l_price", Ptype.Float) ]

let sailor_type =
  Ptype.Record
    [
      ("id", Ptype.Int);
      ( "children",
        Ptype.Collection
          (Ptype.List, Ptype.Record [ ("name", Ptype.String); ("age", Ptype.Int) ]) );
    ]

let orders =
  List.init 20 (fun i ->
      Value.record
        [ ("o_orderkey", Value.Int i); ("o_total", Value.Float (float_of_int (i * 10)));
          ("o_clerk", Value.String (Fmt.str "clerk%d" (i mod 3))) ])

let lineitems =
  List.concat_map
    (fun i ->
      List.init (1 + (i mod 3)) (fun j ->
          Value.record
            [ ("l_orderkey", Value.Int i); ("l_linenumber", Value.Int (j + 1));
              ("l_quantity", Value.Int ((i + j) mod 50));
              ("l_price", Value.Float (float_of_int ((i * j) + 1))) ]))
    (List.init 20 Fun.id)

let sailors =
  List.init 10 (fun i ->
      Value.record
        [
          ("id", Value.Int i);
          ( "children",
            Value.list_
              (List.init (i mod 3) (fun j ->
                   Value.record
                     [ ("name", Value.String (Fmt.str "kid%d_%d" i j));
                       ("age", Value.Int ((i * 7) mod 30)) ])) );
        ])

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)

(* A heterogeneous session: orders in binary columns, lineitems in CSV,
   sailors in JSON. *)
let make_db () =
  let db = Db.create () in
  Db.register_columns_of db ~name:"orders" ~element:order_type orders;
  Db.register_csv db ~name:"lineitem" ~element:lineitem_type
    ~contents:
      (Proteus_format.Csv.of_records Proteus_format.Csv.default_config
         (Schema.of_type lineitem_type) lineitems)
    ();
  Db.register_json db ~name:"sailors" ~element:sailor_type ~contents:(to_json sailors);
  db

let db = lazy (make_db ())

let both_engines name f =
  let db = Lazy.force db in
  f db Db.Engine_compiled;
  f db Db.Engine_volcano;
  ignore name

let test_sql_single_table () =
  both_engines "single" (fun db engine ->
      Alcotest.check check_value "count"
        (Value.Int (List.length (List.filter (fun r -> Value.to_int (Value.field r "l_quantity") < 10) lineitems)))
        (Db.sql ~engine db "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10"))

let test_sql_cross_format_join () =
  both_engines "join" (fun db engine ->
      (* binary orders joined with CSV lineitems *)
      let expected =
        List.length
          (List.filter (fun l -> Value.to_int (Value.field l "l_orderkey") < 10) lineitems)
      in
      Alcotest.check check_value "join count" (Value.Int expected)
        (Db.sql ~engine db
           "SELECT COUNT(*) FROM orders o JOIN lineitem l ON o_orderkey = l_orderkey WHERE o_orderkey < 10"))

let test_sql_group_by () =
  both_engines "group" (fun db engine ->
      let v =
        Db.sql ~engine db
          "SELECT l_linenumber, SUM(l_quantity) AS q FROM lineitem GROUP BY l_linenumber"
      in
      match v with
      | Value.Coll (Ptype.Bag, rows) ->
        Alcotest.(check int) "3 line numbers" 3 (List.length rows)
      | v -> Alcotest.failf "unexpected result %a" Value.pp v)

let test_comprehension_nested () =
  both_engines "nested" (fun db engine ->
      let expected =
        List.fold_left
          (fun acc s ->
            acc
            + List.length
                (List.filter
                   (fun c -> Value.to_int (Value.field c "age") > 10)
                   (Value.elements (Value.field s "children"))))
          0 sailors
      in
      Alcotest.check check_value "adult kids" (Value.Int expected)
        (Db.comprehension ~engine db
           "for { s <- sailors, c <- s.children, c.age > 10 } yield count(*)"))

let test_comprehension_three_formats () =
  both_engines "three formats" (fun db engine ->
      (* sailors (JSON) joined to orders (binary) joined to lineitems (CSV) *)
      let v =
        Db.comprehension ~engine db
          "for { s <- sailors, o <- orders, l <- lineitem, s.id = o.o_orderkey, \
           o.o_orderkey = l.l_orderkey, l.l_quantity < 40 } yield count(*)"
      in
      match v with
      | Value.Int n -> Alcotest.(check bool) "positive" true (n > 0)
      | v -> Alcotest.failf "unexpected %a" Value.pp v)

let test_engines_agree_on_sql () =
  let db = Lazy.force db in
  List.iter
    (fun q ->
      let a = Db.sql ~engine:Db.Engine_compiled db q in
      let b = Db.sql ~engine:Db.Engine_volcano db q in
      Alcotest.check check_value q a b)
    [
      "SELECT COUNT(*), MAX(l_price), SUM(l_quantity) FROM lineitem";
      "SELECT AVG(o_total) FROM orders WHERE o_orderkey >= 5";
      "SELECT o_clerk, COUNT(*) AS n FROM orders GROUP BY o_clerk";
      "SELECT COUNT(*) FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l_linenumber = 2";
    ]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_explain_has_pushdown () =
  let db = Lazy.force db in
  let plan = Db.plan_sql db "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10" in
  let s = Proteus_algebra.Plan.to_string plan in
  Alcotest.(check bool) "select over scan" true
    (contains s "select" && contains s "scan")

let test_drop_and_requery () =
  let db = make_db () in
  ignore (Db.sql db "SELECT COUNT(*) FROM lineitem");
  Db.drop db "lineitem";
  Alcotest.(check bool) "unknown after drop" true
    (try
       ignore (Db.sql db "SELECT COUNT(*) FROM lineitem");
       false
     with Perror.Plan_error _ -> true)

let test_append () =
  let db = make_db () in
  let before = Db.sql db "SELECT COUNT(*) FROM lineitem" in
  (* caches built before the append must not leak stale rows after it *)
  ignore (Db.sql db "SELECT SUM(l_quantity) FROM lineitem");
  Db.append db ~name:"lineitem" "99,1,42,1.0\n99,2,43,2.0\n";
  Alcotest.check check_value "two more rows"
    (Value.Int (Value.to_int before + 2))
    (Db.sql db "SELECT COUNT(*) FROM lineitem");
  Alcotest.check check_value "appended rows visible"
    (Value.Int 2)
    (Db.sql db "SELECT COUNT(*) FROM lineitem WHERE l_orderkey = 99");
  Alcotest.(check bool) "binary datasets rejected" true
    (try
       Db.append db ~name:"orders" "x";
       false
     with Perror.Plan_error _ -> true)

(* Regression: an image whose last row lacks its newline must not absorb
   the first appended row ("3,4" ^ "5,6" read as one row "3,45,6"). *)
let test_append_without_trailing_newline () =
  let db = Db.create () in
  Db.register_csv db ~name:"t"
    ~element:(Ptype.Record [ ("a", Ptype.Int); ("b", Ptype.Int) ])
    ~contents:"1,2\n3,4" ();
  Db.append db ~name:"t" "5,6\n";
  Alcotest.check check_value "three rows" (Value.Int 3) (Db.sql db "SELECT COUNT(*) FROM t");
  Alcotest.check check_value "sum of b" (Value.Int 12) (Db.sql db "SELECT SUM(b) FROM t")

let test_caching_toggle () =
  let db = make_db () in
  Db.set_caching db false;
  ignore (Db.comprehension db "for { s <- sailors } yield sum(s.id)");
  Alcotest.(check int) "nothing cached" 0
    (Proteus_cache.Manager.stats (Db.cache_manager db)).Proteus_cache.Manager.field_stores;
  Db.set_caching db true;
  ignore (Db.comprehension db "for { s <- sailors } yield sum(s.id)");
  Alcotest.(check bool) "cached after enabling" true
    ((Proteus_cache.Manager.stats (Db.cache_manager db)).Proteus_cache.Manager.field_stores
    > 0)

let test_order_by_limit () =
  let db = Lazy.force db in
  (* top-3 most expensive lineitems *)
  let v =
    Db.sql db
      "SELECT l_orderkey, l_price FROM lineitem ORDER BY l_price DESC, l_orderkey ASC LIMIT 3"
  in
  let expected =
    lineitems
    |> List.map (fun l ->
           (Value.to_float (Value.field l "l_price"), Value.to_int (Value.field l "l_orderkey")))
    |> List.sort (fun (pa, ka) (pb, kb) ->
           match Float.compare pb pa with 0 -> Int.compare ka kb | c -> c)
    |> List.filteri (fun i _ -> i < 3)
    |> List.map (fun (p, k) ->
           Value.record [ ("l_orderkey", Value.Int k); ("l_price", Value.Float p) ])
    |> Value.bag
  in
  Alcotest.check check_value "top-3" expected v

let test_order_by_hidden_key () =
  (* ORDER BY an expression that is not in the select list *)
  let db = Lazy.force db in
  let v = Db.sql db "SELECT l_orderkey FROM lineitem ORDER BY l_price DESC LIMIT 1" in
  let best =
    List.fold_left
      (fun acc l -> match acc with
        | None -> Some l
        | Some b ->
          if Value.to_float (Value.field l "l_price") > Value.to_float (Value.field b "l_price")
          then Some l else acc)
      None lineitems
  in
  Alcotest.check check_value "argmax"
    (Value.bag [ Value.field (Option.get best) "l_orderkey" |> fun k ->
                 Value.record [ ("l_orderkey", k) ] ])
    v

let test_order_by_group () =
  let db = Lazy.force db in
  let v =
    Db.sql db
      "SELECT o_clerk, COUNT(*) AS n FROM orders GROUP BY o_clerk ORDER BY n DESC, o_clerk ASC"
  in
  match Value.elements v with
  | first :: _ ->
    (* clerk0 serves orders 0,3,6,9,12,15,18 = 7; others 6 and 7? 20 orders mod 3 *)
    Alcotest.check check_value "largest group first"
      (Value.record [ ("o_clerk", Value.String "clerk0"); ("n", Value.Int 7) ])
      first
  | [] -> Alcotest.fail "empty result"

let test_limit_without_order () =
  let db = Lazy.force db in
  match Db.sql db "SELECT l_orderkey FROM lineitem LIMIT 5" with
  | Value.Coll (_, rows) -> Alcotest.(check int) "5 rows" 5 (List.length rows)
  | v -> Alcotest.failf "unexpected %a" Value.pp v

let test_order_engines_agree () =
  let db = Lazy.force db in
  let q = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity < 20 ORDER BY l_quantity DESC, l_orderkey LIMIT 8" in
  Alcotest.check check_value "engines agree"
    (Db.sql ~engine:Db.Engine_compiled db q)
    (Db.sql ~engine:Db.Engine_volcano db q)

let test_distinct () =
  let db = Lazy.force db in
  let v = Db.sql db "SELECT DISTINCT o_clerk FROM orders" in
  match v with
  | Value.Coll (Ptype.Set, elems) ->
    Alcotest.(check int) "3 distinct clerks" 3 (List.length elems)
  | v -> Alcotest.failf "expected a set, got %a" Value.pp v

let test_having () =
  let db = Lazy.force db in
  let v =
    Db.sql db
      "SELECT o_clerk, COUNT(*) AS n FROM orders GROUP BY o_clerk HAVING n >= 7"
  in
  (* 20 orders over 3 clerks: clerk0 gets 7, clerk1 gets 7, clerk2 gets 6 *)
  Alcotest.(check int) "two groups survive" 2 (List.length (Value.elements v));
  Alcotest.(check bool) "having without group rejected" true
    (try
       ignore (Db.sql db "SELECT COUNT(*) FROM orders HAVING n > 1");
       false
     with Perror.Plan_error _ -> true)

let test_having_with_order () =
  let db = Lazy.force db in
  let v =
    Db.sql db
      "SELECT o_clerk, COUNT(*) AS n FROM orders GROUP BY o_clerk HAVING n >= 7 \
       ORDER BY o_clerk DESC LIMIT 1"
  in
  Alcotest.check check_value "combined clauses"
    (Value.bag [ Value.record [ ("o_clerk", Value.String "clerk1"); ("n", Value.Int 7) ] ])
    v

let test_date_type () =
  let db = Db.create () in
  Db.register_csv db ~name:"events"
    ~element:(Ptype.Record [ ("eid", Ptype.Int); ("day", Ptype.Date) ])
    ~contents:"1,2016-08-29\n2,2016-09-05\n3,2015-12-31\n" ();
  Alcotest.check check_value "date comparison" (Value.Int 2)
    (Db.sql db "SELECT COUNT(*) FROM events WHERE day >= DATE '2016-01-01'");
  Alcotest.check check_value "date equality" (Value.Int 1)
    (Db.sql db "SELECT COUNT(*) FROM events WHERE day = DATE '2016-09-05'")

(* --- typespec ---------------------------------------------------------------- *)

let test_typespec_roundtrip () =
  List.iter
    (fun spec ->
      let ty = Typespec.parse spec in
      Alcotest.(check string) spec spec (Typespec.render ty))
    [
      "id:int,name:string";
      "a:float?,b:bool,c:date";
      "id:int,children:[name:string,age:int]";
      "x:{y:int,z:[w:float]}";
    ]

let test_typespec_example () =
  match Typespec.parse "id:int,children:[name:string,age:int]" with
  | Ptype.Record [ ("id", Ptype.Int); ("children", Ptype.Collection (Ptype.List, Ptype.Record [ ("name", Ptype.String); ("age", Ptype.Int) ])) ] ->
    ()
  | ty -> Alcotest.failf "unexpected type %a" Ptype.pp ty

let test_typespec_errors () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) bad true
        (try
           ignore (Typespec.parse bad);
           false
         with Perror.Parse_error _ -> true))
    [ ""; "a"; "a:"; "a:frob"; "a:int,"; "a:[b:int"; "a:int junk" ]

(* --- output ------------------------------------------------------------------ *)

let test_output_json () =
  let v =
    Value.bag
      [ Value.record [ ("a", Value.Int 1) ]; Value.record [ ("a", Value.Int 2) ] ]
  in
  Alcotest.(check string) "json lines" "{\"a\":1}\n{\"a\":2}\n" (Output.to_json v);
  Alcotest.(check string) "scalar" "7" (Output.to_json (Value.Int 7))

let test_output_csv () =
  let v =
    Value.bag
      [
        Value.record [ ("a", Value.Int 1); ("b", Value.String "x,y") ];
        Value.record [ ("a", Value.Int 2); ("b", Value.String "z") ];
      ]
  in
  Alcotest.(check string) "csv" "a,b\n1,\"x,y\"\n2,z\n" (Output.to_csv v);
  Alcotest.(check bool) "nested rejected" true
    (try
       ignore (Output.to_csv (Value.bag [ Value.record [ ("n", Value.bag [] ) ] ]));
       true (* empty collection is fine *)
     with Perror.Type_error _ -> true)

let test_output_table () =
  let v = Value.bag [ Value.record [ ("name", Value.String "bob"); ("n", Value.Int 3) ] ] in
  let s = Output.to_table v in
  Alcotest.(check bool) "has header" true (contains s "name");
  Alcotest.(check bool) "has row" true (contains s "bob")

(* --- prepared queries + stats refresh --------------------------------------- *)

let test_prepare_sql () =
  let db = Lazy.force db in
  let p = Db.prepare_sql db "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10" in
  Alcotest.(check bool) "compile time measured" true (p.Db.compile_seconds >= 0.0);
  let r1 = p.Db.run () and r2 = p.Db.run () in
  Alcotest.check check_value "re-runnable" r1 r2;
  Alcotest.check check_value "same as one-shot" r1
    (Db.sql db "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10")

let test_refresh_stats () =
  let db = make_db () in
  ignore (Db.sql db "SELECT COUNT(*) FROM lineitem");
  Db.refresh_stats db;
  let stats = Proteus_catalog.Catalog.stats (Db.catalog db) "lineitem" in
  Alcotest.(check bool) "cardinality present" true
    (Proteus_catalog.Stats.cardinality stats = Some (List.length lineitems));
  (* and querying still works afterwards *)
  Alcotest.check check_value "still queryable"
    (Value.Int (List.length lineitems))
    (Db.sql db "SELECT COUNT(*) FROM lineitem")

(* --- schema inference --------------------------------------------------------- *)

let test_infer_json () =
  let contents =
    {|{"id": 1, "name": "a", "score": 0.5, "tags": [{"k": "x"}], "extra": 7}
{"id": 2, "name": "b", "score": 1, "tags": []}
{"id": 3, "name": "c", "score": 2.5, "tags": [{"k": "y"}], "note": null}|}
  in
  let ty = Typeinfer.of_json contents in
  (match ty with
  | Ptype.Record fields ->
    let f n = List.assoc n fields in
    Alcotest.(check bool) "id int" true (Ptype.equal (f "id") Ptype.Int);
    Alcotest.(check bool) "score widened to float" true
      (Ptype.equal (f "score") Ptype.Float);
    Alcotest.(check bool) "extra optional" true
      (Ptype.equal (f "extra") (Ptype.Option Ptype.Int));
    Alcotest.(check bool) "tags nested" true
      (Ptype.equal (f "tags")
         (Ptype.Collection (Ptype.List, Ptype.Record [ ("k", Ptype.String) ])))
  | t -> Alcotest.failf "expected record, got %a" Ptype.pp t);
  (* and the inferred dataset is queryable *)
  let db = Db.create () in
  let ty' = Db.register_json_inferred db ~name:"inferred" ~contents in
  Alcotest.(check bool) "same type" true (Ptype.equal ty ty');
  Alcotest.check check_value "sum over inferred schema" (Value.Float 4.0)
    (Db.sql db "SELECT SUM(score) FROM inferred")

let test_infer_json_conflict () =
  Alcotest.(check bool) "conflicting field rejected" true
    (try
       ignore (Typeinfer.of_json {|{"a": 1}
{"a": {"b": 2}}|});
       false
     with Perror.Type_error _ -> true)

let test_infer_csv () =
  let contents = "id,price,day,label,flag\n1,2.5,2016-01-02,x,true\n2,3,2016-02-03,,false\n" in
  let db = Db.create () in
  let ty = Db.register_csv_inferred db ~name:"inferred_csv" ~contents () in
  (match ty with
  | Ptype.Record fields ->
    let f n = List.assoc n fields in
    Alcotest.(check bool) "id int" true (Ptype.equal (f "id") Ptype.Int);
    Alcotest.(check bool) "price float (3 parses as int but 2.5 forces float)" true
      (Ptype.equal (f "price") Ptype.Float);
    Alcotest.(check bool) "day date" true (Ptype.equal (f "day") Ptype.Date);
    Alcotest.(check bool) "label optional string" true
      (Ptype.equal (f "label") (Ptype.Option Ptype.String));
    Alcotest.(check bool) "flag bool" true (Ptype.equal (f "flag") Ptype.Bool)
  | t -> Alcotest.failf "expected record, got %a" Ptype.pp t);
  Alcotest.check check_value "queryable" (Value.Int 1)
    (Db.sql db "SELECT COUNT(*) FROM inferred_csv WHERE day >= DATE '2016-02-01'")

(* --- failure injection ------------------------------------------------------ *)

let test_malformed_inputs () =
  (* malformed raw files must fail with a parse error on first access, not
     crash or silently truncate *)
  let fails register =
    let db = Db.create () in
    register db;
    try
      ignore (Db.sql db "SELECT COUNT(*) FROM broken");
      false
    with Perror.Parse_error _ -> true
  in
  let int2 = Ptype.Record [ ("a", Ptype.Int); ("b", Ptype.Int) ] in
  Alcotest.(check bool) "ragged csv" true
    (fails (fun db -> Db.register_csv db ~name:"broken" ~element:int2 ~contents:"1,2\n3\n" ()));
  Alcotest.(check bool) "truncated json" true
    (fails (fun db -> Db.register_json db ~name:"broken" ~element:int2 ~contents:"{\"a\":1,"));
  Alcotest.(check bool) "garbage csv int" true
    (fails (fun db ->
         Db.register_csv db ~name:"broken" ~element:int2 ~contents:"1,xyz\n" ()))

let test_type_mismatch () =
  (* a declared-Int JSON field holding a string fails loudly when read *)
  let db = Db.create () in
  Db.register_json db ~name:"odd"
    ~element:(Ptype.Record [ ("a", Ptype.Int) ])
    ~contents:{|{"a": "not a number"}|};
  Alcotest.(check bool) "type error surfaced" true
    (try
       ignore (Db.sql db "SELECT SUM(a) FROM odd");
       false
     with Perror.Parse_error _ | Perror.Type_error _ -> true)

let test_missing_file () =
  let db = Db.create () in
  Db.register_json_file db ~name:"ghost"
    ~element:(Ptype.Record [ ("a", Ptype.Int) ])
    ~path:"/nonexistent/ghost.json";
  Alcotest.(check bool) "missing file surfaced" true
    (try
       ignore (Db.sql db "SELECT COUNT(*) FROM ghost");
       false
     with Sys_error _ -> true)

let () =
  Alcotest.run "proteus"
    [
      ( "typespec",
        [
          Alcotest.test_case "roundtrip" `Quick test_typespec_roundtrip;
          Alcotest.test_case "example" `Quick test_typespec_example;
          Alcotest.test_case "errors" `Quick test_typespec_errors;
        ] );
      ( "output",
        [
          Alcotest.test_case "json" `Quick test_output_json;
          Alcotest.test_case "csv" `Quick test_output_csv;
          Alcotest.test_case "table" `Quick test_output_table;
        ] );
      ( "prepared",
        [
          Alcotest.test_case "prepare sql" `Quick test_prepare_sql;
          Alcotest.test_case "refresh stats" `Quick test_refresh_stats;
        ] );
      ( "facade",
        [
          Alcotest.test_case "sql single table" `Quick test_sql_single_table;
          Alcotest.test_case "cross-format join" `Quick test_sql_cross_format_join;
          Alcotest.test_case "group by" `Quick test_sql_group_by;
          Alcotest.test_case "nested comprehension" `Quick test_comprehension_nested;
          Alcotest.test_case "three formats" `Quick test_comprehension_three_formats;
          Alcotest.test_case "engines agree" `Quick test_engines_agree_on_sql;
          Alcotest.test_case "explain" `Quick test_explain_has_pushdown;
          Alcotest.test_case "drop and requery" `Quick test_drop_and_requery;
          Alcotest.test_case "append" `Quick test_append;
          Alcotest.test_case "append without trailing newline" `Quick
            test_append_without_trailing_newline;
          Alcotest.test_case "caching toggle" `Quick test_caching_toggle;
          Alcotest.test_case "order by + limit" `Quick test_order_by_limit;
          Alcotest.test_case "order by hidden key" `Quick test_order_by_hidden_key;
          Alcotest.test_case "order by over group" `Quick test_order_by_group;
          Alcotest.test_case "limit without order" `Quick test_limit_without_order;
          Alcotest.test_case "order engines agree" `Quick test_order_engines_agree;
          Alcotest.test_case "distinct" `Quick test_distinct;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "having + order" `Quick test_having_with_order;
          Alcotest.test_case "date type" `Quick test_date_type;
          Alcotest.test_case "malformed inputs" `Quick test_malformed_inputs;
          Alcotest.test_case "type mismatch" `Quick test_type_mismatch;
          Alcotest.test_case "missing file" `Quick test_missing_file;
          Alcotest.test_case "infer json" `Quick test_infer_json;
          Alcotest.test_case "infer json conflict" `Quick test_infer_json_conflict;
          Alcotest.test_case "infer csv" `Quick test_infer_csv;
        ] );
    ]
