(* Tests for the raw-data access layer: CSV, JSON, structural indexes,
   binary JSON. *)

open Proteus_model
open Proteus_format

let check_value = Alcotest.testable Value.pp Value.equal

(* --- CSV ----------------------------------------------------------------- *)

let cfg = Csv.default_config

let schema =
  Schema.make [ ("a", Ptype.Int); ("b", Ptype.String); ("c", Ptype.Float) ]

let sample = "1,hello,2.5\n2,\"quo,ted\",3.0\n3,,4.25\n"

let test_csv_read_all () =
  let rows = Csv.read_all cfg schema sample in
  Alcotest.(check int) "rows" 3 (List.length rows);
  let r1 = List.nth rows 1 in
  Alcotest.check check_value "quoted field" (Value.String "quo,ted") (Value.field r1 "b");
  Alcotest.check check_value "float" (Value.Float 3.0) (Value.field r1 "c")

let test_csv_roundtrip () =
  let records = Csv.read_all cfg schema sample in
  let rendered = Csv.of_records cfg schema records in
  let records' = Csv.read_all cfg schema rendered in
  Alcotest.(check bool) "roundtrip" true (List.for_all2 Value.equal records records')

(* The writer renders NaN and the infinities as [nan], [-nan], [inf] and
   [-inf]; the reader takes exactly those spellings back (a NaN keeps its
   sign) and no others. *)
let test_csv_non_finite_roundtrip () =
  let schema = Schema.make [ ("a", Ptype.Int); ("c", Ptype.Float) ] in
  let floats = [ Float.nan; Float.neg Float.nan; Float.infinity; Float.neg_infinity; -0.0; 2.5 ] in
  let records =
    List.mapi (fun i f -> Value.record [ ("a", Value.Int i); ("c", Value.Float f) ]) floats
  in
  let back = Csv.read_all cfg schema (Csv.of_records cfg schema records) in
  List.iter2
    (fun f r ->
      match Value.field r "c" with
      | Value.Float g ->
        Alcotest.(check bool)
          (Fmt.str "%h reads back" f) true
          (if Float.is_nan f then Float.is_nan g && Float.sign_bit f = Float.sign_bit g
           else Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | v -> Alcotest.failf "%h read back as %a" f Value.pp v)
    floats back;
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " is no CSV float") true
        (try
           ignore (Csv.parse_float bad ~start:0 ~stop:(String.length bad));
           false
         with Perror.Parse_error _ -> true))
    [ "NaN"; "infinity"; "+inf"; "-nanx"; "in" ]

let test_csv_field_spans () =
  let start, stop, _ = Csv.row_bounds sample ~pos:0 in
  let spans = Csv.field_spans cfg sample ~start ~stop in
  Alcotest.(check int) "3 fields" 3 (List.length spans);
  let s, e = List.nth spans 1 in
  Alcotest.(check string) "middle span" "hello" (String.sub sample s (e - s))

let test_csv_empty_field_null () =
  let rows = Csv.read_all cfg (Schema.make [ ("a", Ptype.Int); ("b", Ptype.Option Ptype.String); ("c", Ptype.Float) ]) sample in
  Alcotest.check check_value "empty optional is null" Value.Null
    (Value.field (List.nth rows 2) "b")

let test_csv_header () =
  let cfg = { Csv.separator = ','; has_header = true } in
  let src = "a,b,c\n7,x,1.5\n" in
  let rows = Csv.read_all cfg schema src in
  Alcotest.(check int) "one data row" 1 (List.length rows);
  Alcotest.(check int) "count" 1 (Csv.row_count cfg src)

let test_csv_bad_int () =
  Alcotest.(check bool) "parse error" true
    (try
       ignore (Csv.parse_int "xx" ~start:0 ~stop:2);
       false
     with Perror.Parse_error _ -> true)

(* A row whose field count differs from the schema's is a positioned
   parse error: at the first extra field, or where a missing one would
   start. *)
let test_csv_row_arity () =
  let pos src =
    match Csv.read_all cfg schema src with
    | _ -> Alcotest.failf "%S: no error" src
    | exception Perror.Parse_error { what; pos; _ } ->
      Alcotest.(check string) "what" "csv" what;
      pos
  in
  Alcotest.(check int) "short row" 16 (pos "1,hello,2.5\n2,hi\n3,x,1.0\n");
  Alcotest.(check int) "long row" 21 (pos "1,hello,2.5\n2,hi,3.0,9\n")

(* The writer follows an empty last field with one more separator, so a
   null last field and a one-column null row read back as written. *)
let test_csv_null_last_roundtrip () =
  let roundtrip schema records =
    let back = Csv.read_all cfg schema (Csv.of_records cfg schema records) in
    Alcotest.(check (list check_value)) "reads back" records back
  in
  let two = Schema.make [ ("k", Ptype.Int); ("v", Ptype.Option Ptype.Int) ] in
  roundtrip two
    (List.map
       (fun (k, v) -> Value.record [ ("k", Value.Int k); ("v", v) ])
       [ (1, Value.Int 5); (2, Value.Null); (3, Value.Int 7); (4, Value.Null) ]);
  let str = Schema.make [ ("k", Ptype.Int); ("s", Ptype.String) ] in
  roundtrip str [ Value.record [ ("k", Value.Int 1); ("s", Value.String "") ] ];
  let one = Schema.make [ ("v", Ptype.Option Ptype.Int) ] in
  let rows = [ Value.Int 5; Value.Null; Value.Null; Value.Int 7 ] in
  roundtrip one (List.map (fun v -> Value.record [ ("v", v) ]) rows);
  Alcotest.(check int) "no row lost" 4
    (Csv.row_count cfg (Csv.of_records cfg one (List.map (fun v -> Value.record [ ("v", v) ]) rows)))

(* A nullable CSV field reads an empty field as null whatever its type, on
   the tuple lane and the batch lane. *)
let test_csv_nullable_every_type () =
  let module Plan = Proteus_algebra.Plan in
  let module Executor = Proteus_engine.Executor in
  let open Proteus_catalog in
  let cat = Catalog.create () in
  let register name src fields =
    Proteus_storage.Memory.register_blob (Catalog.memory cat) ~name src;
    Catalog.register cat
      (Dataset.make ~name ~format:(Dataset.Csv cfg) ~location:(Dataset.Blob name)
         ~element:(Ptype.Record fields))
  in
  let opt = List.map (fun (n, ty) -> (n, Ptype.Option ty)) in
  register "all" "1,5,2.5,1996-03-05,true,x\n2,,,,,,\n3,7,0.25,1996-03-07,false,y\n"
    (("k", Ptype.Int)
    :: opt
         [ ("i", Ptype.Int); ("f", Ptype.Float); ("d", Ptype.Date); ("b", Ptype.Bool);
           ("s", Ptype.String) ]);
  register "nd" "1,1996-03-05,true\n2,,\n3,1996-03-07,false\n"
    (("k", Ptype.Int) :: opt [ ("d", Ptype.Date); ("b", Ptype.Bool) ]);
  let reg = Proteus_plugin.Registry.create cat in
  let scan dataset = Plan.scan ~dataset ~binding:"x" () in
  let field f = Expr.(Field (var "x", f)) in
  let count ?pred dataset =
    Plan.reduce ?pred [ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (scan dataset)
  in
  let sorted = function
    | Value.Coll (Ptype.Bag, es) -> List.sort Value.compare es
    | v -> [ v ]
  in
  List.iter
    (fun (engine, batch_size) ->
      let run plan = Executor.run ~batch_size reg ~engine plan in
      let lane = Fmt.str "batch %d" batch_size in
      List.iter
        (fun f ->
          Alcotest.check check_value (Fmt.str "%s IS NULL, %s" f lane) (Value.Int 1)
            (run (count ~pred:(Expr.Unop (Expr.Is_null, field f)) "all"));
          Alcotest.(check (list check_value))
            (Fmt.str "%s of the empty row, %s" f lane) [ Value.Null ]
            (sorted
               (run
                  (Plan.reduce
                     ~pred:Expr.(field "k" ==. int 2)
                     [ Plan.agg ~name:"v" (Monoid.Collection Ptype.Bag) (field f) ]
                     (scan "all")))))
        [ "i"; "f"; "d"; "b"; "s" ];
      Alcotest.check check_value ("every row, " ^ lane) (Value.Int 3) (run (count "nd"));
      Alcotest.check check_value ("d IS NULL, " ^ lane) (Value.Int 1)
        (run (count ~pred:(Expr.Unop (Expr.Is_null, field "d")) "nd"));
      Alcotest.check check_value ("MAX(d), " ^ lane) (Value.Date 9562)
        (run
           (Plan.reduce [ Plan.agg ~name:"m" (Monoid.Primitive Monoid.Max) (field "d") ]
              (scan "nd"))))
    [ (Proteus_engine.Executor.Engine_compiled, 0); (Proteus_engine.Executor.Engine_compiled, 1024);
      (Proteus_engine.Executor.Engine_volcano, 0) ]

(* An empty string, a null and "x" read back as written from a nullable
   string column, in the middle and in the last position, on both engines. *)
let test_csv_empty_string_roundtrip () =
  let module Plan = Proteus_algebra.Plan in
  let module Executor = Proteus_engine.Executor in
  let open Proteus_catalog in
  let str = Ptype.Option Ptype.String in
  let schema = Schema.make [ ("k", Ptype.Int); ("s", str); ("t", str) ] in
  let vals = [| Value.String ""; Value.Null; Value.String "x" |] in
  let records =
    List.init 9 (fun k ->
        Value.record [ ("k", Value.Int k); ("s", vals.(k / 3)); ("t", vals.(k mod 3)) ])
  in
  let src = Csv.of_records cfg schema records in
  Alcotest.(check (list check_value)) "read_all" records (Csv.read_all cfg schema src);
  let cat = Catalog.create () in
  Proteus_storage.Memory.register_blob (Catalog.memory cat) ~name:"e" src;
  Catalog.register cat
    (Dataset.make ~name:"e" ~format:(Dataset.Csv cfg) ~location:(Dataset.Blob "e")
       ~element:(Schema.to_type schema));
  let reg = Proteus_plugin.Registry.create cat in
  let field f = Expr.(Field (var "x", f)) in
  List.iter
    (fun engine ->
      List.iter
        (fun r ->
          let k = Value.field r "k" in
          List.iter
            (fun f ->
              Alcotest.check check_value
                (Fmt.str "%a.%s" Value.pp k f)
                (Value.Coll (Ptype.Bag, [ Value.field r f ]))
                (Executor.run reg ~engine
                   (Plan.reduce
                      ~pred:Expr.(field "k" ==. Const k)
                      [ Plan.agg ~name:"v" (Monoid.Collection Ptype.Bag) (field f) ]
                      (Plan.scan ~dataset:"e" ~binding:"x" ()))))
            [ "s"; "t" ])
        records)
    [ Executor.Engine_compiled; Executor.Engine_volcano ]

(* --- CSV structural index ------------------------------------------------ *)

let wide_row i =
  String.concat "," (List.init 12 (fun f -> string_of_int ((i * 100) + f)))

let wide_src = String.concat "\n" (List.init 20 wide_row) ^ "\n"

let test_csv_index_positions () =
  let idx = Csv_index.build cfg ~every:5 wide_src in
  Alcotest.(check int) "rows" 20 (Csv_index.row_count idx);
  Alcotest.(check int) "arity" 12 (Csv_index.arity idx);
  for row = 0 to 19 do
    for field = 0 to 11 do
      let s, e = Csv_index.field_span idx ~row ~field in
      Alcotest.(check string)
        (Fmt.str "field %d.%d" row field)
        (string_of_int ((row * 100) + field))
        (String.sub wide_src s (e - s))
    done
  done

let test_csv_index_fixed_width () =
  (* All rows identical length -> fixed-width fast path *)
  let src = "11,22,33\n44,55,66\n77,88,99\n" in
  let idx = Csv_index.build cfg src in
  Alcotest.(check bool) "fixed" true (Csv_index.is_fixed_width idx);
  let s, e = Csv_index.field_span idx ~row:2 ~field:1 in
  Alcotest.(check string) "field" "88" (String.sub src s (e - s));
  (* a blank line between equal rows breaks the arithmetic placement *)
  let src = "11,22,33\n\n44,55,66\n" in
  let idx = Csv_index.build cfg src in
  Alcotest.(check bool) "blank line: not fixed" false (Csv_index.is_fixed_width idx);
  let s, e = Csv_index.field_span idx ~row:1 ~field:1 in
  Alcotest.(check string) "field after blank line" "55" (String.sub src s (e - s))

let test_csv_index_variable_width () =
  let src = "1,2,3\n1000,2,3\n" in
  let idx = Csv_index.build cfg src in
  Alcotest.(check bool) "not fixed" false (Csv_index.is_fixed_width idx);
  let s, e = Csv_index.field_span idx ~row:1 ~field:0 in
  Alcotest.(check string) "field" "1000" (String.sub src s (e - s))

let test_csv_index_ragged_tolerated () =
  (* ragged rows no longer abort the index build: the index keeps the row's
     own anchors and reports the arity mismatch at access time, so per-query
     error policies can skip or null-fill the bad row *)
  let src = "1,2,3\n4,5\n6,7,8\n" in
  let idx = Csv_index.build cfg src in
  Alcotest.(check int) "nominal arity" 3 (Csv_index.arity idx);
  Alcotest.(check bool) "ragged breaks fixed width" false
    (Csv_index.is_fixed_width idx);
  Alcotest.(check int) "clean row arity" 3 (Csv_index.row_arity idx 0);
  Alcotest.(check int) "ragged row arity" 2 (Csv_index.row_arity idx 1);
  Alcotest.(check int) "recovers after ragged row" 3 (Csv_index.row_arity idx 2);
  let s, e = Csv_index.field_span idx ~row:2 ~field:2 in
  Alcotest.(check string) "field after ragged row" "8" (String.sub src s (e - s))

(* --- JSON ---------------------------------------------------------------- *)

let test_json_parse_basics () =
  let j = Json.parse_string {|{"a": 1, "b": [true, null, 2.5], "s": "x\ny"}|} in
  match j with
  | Json.Obj [ ("a", Json.Int 1); ("b", Json.Arr [ Json.Bool true; Json.Null; Json.Float 2.5 ]); ("s", Json.Str "x\ny") ] -> ()
  | _ -> Alcotest.failf "bad parse: %s" (Json.to_string j)

let test_json_roundtrip () =
  let texts =
    [
      {|{"a":1,"b":{"c":[1,2,3]},"d":"hi"}|};
      {|[{"x":-5},{"y":1e3}]|};
      {|{"esc":"a\"b\\c"}|};
    ]
  in
  List.iter
    (fun t ->
      let j = Json.parse_string t in
      let j' = Json.parse_string (Json.to_string j) in
      Alcotest.(check bool) t true (j = j'))
    texts

let test_json_seq () =
  let objs = Json.parse_seq "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n" in
  Alcotest.(check int) "3 objects" 3 (List.length objs)

let test_json_malformed () =
  List.iter
    (fun bad ->
      Alcotest.(check bool) bad true
        (try
           ignore (Json.parse_string bad);
           false
         with Perror.Parse_error _ -> true))
    [ "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{\"a\" 1}" ]

(* A \u escape with a non-hex digit is a parse error at the escape: in
   a member name, in a value read through the index, and in the parser. *)
let test_json_bad_unicode_escape () =
  let at pos what f =
    match f () with
    | _ -> Alcotest.failf "%s: no error" what
    | exception Perror.Parse_error { pos = p; _ } -> Alcotest.(check int) what pos p
  in
  at 3 "member name" (fun () -> Json_index.build {|{"a\uZZZZ":1}|});
  let idx = Json_index.build {|{"a":"x\u12G4"}|} in
  at 7 "value" (fun () ->
      match Json_index.slot idx "a" with
      | Some slot ->
        let e = Json_index.make_span () in
        Json_index.entry_span idx ~obj:0 ~slot e;
        Json_index.span_string idx e
      | None -> Alcotest.fail "no slot for a");
  at 2 "parser" (fun () -> Json.parse_string {|["\u_123"]|})

let test_json_value_conversion () =
  let v = Json.to_value (Json.parse_string {|{"a":1,"kids":[{"n":"x"}]}|}) in
  Alcotest.check check_value "nested" (Value.String "x")
    (Value.field (List.hd (Value.elements (Value.field v "kids"))) "n")

(* --- JSON structural index ----------------------------------------------- *)

let flexible_src =
  (* same fields, different order -> flexible schema *)
  {|{"a": 1, "b": "x", "c": {"d": {"d1": 10}}, "arr": [1,2,3]}
{"b": "y", "a": 2, "arr": [4], "c": {"d": {"d1": 20}}}
{"a": 3, "c": {"d": {"d1": 30}}, "b": "z", "arr": []}|}

let fixed_src =
  {|{"a": 1, "b": "x"}
{"a": 22, "b": "yy"}
{"a": 333, "b": "zzz"}|}

(* Span-API lookups for the cases below: [find] resolves a path through the
   shared slot (fixed schema) or the object's Level 0 (flexible schema). *)
let find idx ~obj ~path =
  let slot =
    match Json_index.slot idx path, Json_index.path_id idx path with
    | Some s, _ -> s
    | None, Some id -> Json_index.slot_by_id idx ~obj ~id
    | None, None -> -1
  in
  if slot < 0 then None
  else begin
    let sp = Json_index.make_span () in
    Json_index.entry_span idx ~obj ~slot sp;
    Some sp
  end

let span_at idx ~start ~stop =
  let sp = Json_index.make_span () in
  Json_index.span_at idx ~start ~stop sp;
  sp

let elements idx arr =
  let acc = ref [] in
  Json_index.iter_array_spans idx arr ~f:(fun ~start ~stop ->
      acc := span_at idx ~start ~stop :: !acc);
  List.rev !acc

let find_in_span idx (e : Json_index.span) ~path =
  let sp = Json_index.make_span () in
  if
    Json_index.find_parts_span idx ~start:e.sp_start ~stop:e.sp_stop
      ~parts:(String.split_on_char '.' path) sp
  then Some sp
  else None

let object_value idx i =
  let start, stop = Json_index.object_span idx i in
  Json_index.span_value idx (span_at idx ~start ~stop)

let test_json_index_basic () =
  let idx = Json_index.build flexible_src in
  Alcotest.(check int) "objects" 3 (Json_index.object_count idx);
  Alcotest.(check bool) "flexible" false (Json_index.is_fixed_schema idx);
  (* level-0 lookup despite field order differences *)
  List.iteri
    (fun i expect ->
      match find idx ~obj:i ~path:"a" with
      | Some e -> Alcotest.(check int) "a value" expect (Json_index.span_int idx e)
      | None -> Alcotest.fail "field a not found")
    [ 1; 2; 3 ]

let test_json_index_nested_path () =
  let idx = Json_index.build flexible_src in
  (* nested record path registered in level 0 -> one-step dereference *)
  match find idx ~obj:1 ~path:"c.d.d1" with
  | Some e -> Alcotest.(check int) "nested" 20 (Json_index.span_int idx e)
  | None -> Alcotest.fail "nested path missing"

let test_json_index_array_not_registered () =
  let idx = Json_index.build flexible_src in
  (* array contents are not level-0 entries, but the array itself is *)
  match find idx ~obj:0 ~path:"arr" with
  | Some e ->
    Alcotest.(check bool) "is array" true (e.Json_index.sp_kind = Json_index.Karr);
    let elems = elements idx e in
    Alcotest.(check int) "3 elements" 3 (List.length elems);
    Alcotest.(check int) "first" 1 (Json_index.span_int idx (List.hd elems))
  | None -> Alcotest.fail "arr missing"

let test_json_index_fixed_schema () =
  let idx = Json_index.build fixed_src in
  Alcotest.(check bool) "fixed" true (Json_index.is_fixed_schema idx);
  (* slot resolution once, reuse across objects *)
  match Json_index.slot idx "b" with
  | Some slot ->
    let e = Json_index.make_span () in
    Json_index.entry_span idx ~obj:2 ~slot e;
    Alcotest.(check string) "b of obj2" "zzz" (Json_index.span_string idx e)
  | None -> Alcotest.fail "no shared slot"

let test_json_index_missing_field () =
  let src = {|{"a":1}
{"a":2,"extra":7}|} in
  let idx = Json_index.build src in
  Alcotest.(check bool) "flexible" false (Json_index.is_fixed_schema idx);
  Alcotest.(check bool) "missing in obj0" true
    (find idx ~obj:0 ~path:"extra" = None);
  match find idx ~obj:1 ~path:"extra" with
  | Some e -> Alcotest.(check int) "present in obj1" 7 (Json_index.span_int idx e)
  | None -> Alcotest.fail "extra missing in obj1"

let test_json_index_find_in_span () =
  let src = {|{"items": [{"id": 1, "qty": 5}, {"id": 2, "qty": 7}]}|} in
  let idx = Json_index.build src in
  match find idx ~obj:0 ~path:"items" with
  | None -> Alcotest.fail "items missing"
  | Some arr ->
    let elems = elements idx arr in
    Alcotest.(check int) "2 elems" 2 (List.length elems);
    let e1 = List.nth elems 1 in
    (match find_in_span idx e1 ~path:"qty" with
    | Some q -> Alcotest.(check int) "qty" 7 (Json_index.span_int idx q)
    | None -> Alcotest.fail "qty not found in element span")

let test_json_index_find_in_span_escaped_names () =
  (* the raw-bytes name matcher must fall back to decoding for escaped
     field names *)
  let src = {|{"items": [{"a\"b": 7, "plain": 1}]}|} in
  let idx = Json_index.build src in
  match find idx ~obj:0 ~path:"items" with
  | None -> Alcotest.fail "items missing"
  | Some arr -> (
    let e = List.hd (elements idx arr) in
    (match find_in_span idx e ~path:{|a"b|} with
    | Some v -> Alcotest.(check int) "escaped name" 7 (Json_index.span_int idx v)
    | None -> Alcotest.fail "escaped name not found");
    match find_in_span idx e ~path:"plain" with
    | Some v -> Alcotest.(check int) "plain name" 1 (Json_index.span_int idx v)
    | None -> Alcotest.fail "plain name not found")

let test_json_index_name_prefix_not_matched () =
  (* "ab" must not match a field named "abc" and vice versa *)
  let src = {|{"arr": [{"ab": 1, "abc": 2, "a": 3}]}|} in
  let idx = Json_index.build src in
  match find idx ~obj:0 ~path:"arr" with
  | None -> Alcotest.fail "arr missing"
  | Some arr ->
    let e = List.hd (elements idx arr) in
    List.iter
      (fun (name, expect) ->
        match find_in_span idx e ~path:name with
        | Some v -> Alcotest.(check int) name expect (Json_index.span_int idx v)
        | None -> Alcotest.failf "%s not found" name)
      [ ("ab", 1); ("abc", 2); ("a", 3) ]

let test_json_index_read_value_matches_parser () =
  let idx = Json_index.build flexible_src in
  let parsed = List.map Json.to_value (Json.parse_seq flexible_src) in
  List.iteri
    (fun i expect -> Alcotest.check check_value "object roundtrip" expect (object_value idx i))
    parsed

let test_json_index_size_reported () =
  let idx = Json_index.build flexible_src in
  Alcotest.(check bool) "positive size" true (Json_index.byte_size idx > 0)

(* Minor-heap words [f] allocates (a count, not a timing: it repeats
   exactly). *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* [n] six-field objects, fields in a random order each: up to 720
   layouts, as in the field-shuffled TPC-H lineitem file *)
let shuffled_doc n =
  let rng = Random.State.make [| 7 |] in
  let b = Buffer.create (n * 100) in
  for i = 1 to n do
    let fields =
      [| Fmt.str {|"l_orderkey":%d|} i; Fmt.str {|"l_linenumber":%d|} (i mod 7);
         Fmt.str {|"l_quantity":%d|} (Random.State.int rng 50);
         Fmt.str {|"l_extendedprice":%d.%02d|} (Random.State.int rng 100000) (Random.State.int rng 100);
         Fmt.str {|"l_discount":0.0%d|} (Random.State.int rng 10); {|"l_tax":0.02|} |]
    in
    for k = 5 downto 1 do
      let j = Random.State.int rng (k + 1) in
      let x = fields.(k) in
      fields.(k) <- fields.(j);
      fields.(j) <- x
    done;
    Buffer.add_string b ("{" ^ String.concat "," (Array.to_list fields) ^ "}\n")
  done;
  Buffer.contents b

let test_json_index_build_allocation () =
  let src = shuffled_doc 20_000 in
  let words = minor_words (fun () -> ignore (Json_index.build src)) in
  let per_byte = words /. float_of_int (String.length src) in
  if per_byte > 0.5 then Alcotest.failf "%.2f minor words per input byte (> 0.5)" per_byte

let test_json_index_unnest_allocation () =
  let words n =
    let elems = List.init n (fun i -> Fmt.str {|{"id": %d, "x": "s\"%d", "q": %d.5}|} i i i) in
    let src = Fmt.str {|{"k": 1, "items": [%s]}|} (String.concat ", " elems) in
    let idx = Json_index.build src in
    let arr = Option.get (find idx ~obj:0 ~path:"items") in
    let names = [| "q"; "missing"; "id" |] in
    let starts = Array.make 3 0 and stops = Array.make 3 0 and seen = ref 0 in
    let f ~start ~stop =
      Json_index.scan_span_fields idx ~start ~stop ~names ~starts ~stops;
      if starts.(2) >= 0 then incr seen
    in
    let w = minor_words (fun () -> Json_index.iter_array_spans idx arr ~f) in
    Alcotest.(check int) "every element scanned" n !seen;
    w
  in
  Alcotest.(check (float 0.)) "same words for 10 and 1000 elements" (words 10) (words 1000)

(* [byte_size] counts what the heap holds beside the source. *)
let test_json_index_honest_footprint () =
  List.iter
    (fun src ->
      let idx = Json_index.build src in
      let held = 8 * (Obj.reachable_words (Obj.repr idx) - ((String.length src / 8) + 2)) in
      let size = Json_index.byte_size idx in
      if abs (size - held) * 10 > held then
        Alcotest.failf "byte_size %d, heap %d" size held)
    [ shuffled_doc 3000; String.concat "\n" (List.init 500 (fun _ -> fixed_src)); flexible_src ^ "\n" ]

(* A duplicated member name resolves to its first occurrence. *)
let test_json_index_duplicate_name () =
  let idx = Json_index.build {|{"b":0,"a":1,"c":{"d":5},"a":2} {"a":3,"a":4}|} in
  let sp = Json_index.make_span () and id = Option.get (Json_index.path_id idx "a") in
  List.iter
    (fun (obj, expect) ->
      Json_index.field_span idx ~obj ~id sp;
      Alcotest.(check int) "first a" expect (Json_index.span_int idx sp))
    [ (0, 1); (1, 3) ]

(* Every object its own layout, with member names drawn from the data
   (a top-level key and a nested map's key): the index grows with the
   input, not with layouts times paths. *)
let test_json_index_unique_names () =
  let ratio n =
    let src =
      String.concat "\n"
        (List.init n (fun i -> Fmt.str {|{"id":%d,"k%d":1,"counts":{"w%d":%d}}|} i i i i))
    in
    let idx = Json_index.build src in
    Alcotest.(check int) "one layout per object" n (Json_index.layout_count idx);
    float_of_int (Json_index.byte_size idx) /. float_of_int (String.length src)
  in
  let small = ratio 500 and large = ratio 8000 in
  if large > 12. || large > 1.25 *. small then
    Alcotest.failf "index/input %.1f at 500 objects, %.1f at 8000" small large

(* --- JSON index against the per-object reference build ------------------- *)

(* The index as it was once built, restated as the oracle: every object
   walked on its own into its entries (a registered field's path, value
   span and kind, in document pre-order, through nested objects only) and
   its Level 0 (path, slot) sorted by path; a fixed schema when every
   object has the first object's non-empty Level 0. Values are skipped by
   the reference parser. *)
module Oracle = struct
  let rec ws s i = if i < String.length s && String.contains " \t\n\r" s.[i] then ws s (i + 1) else i

  let kind s start stop : Json_index.kind =
    match s.[start] with
    | '{' -> Kobj
    | '[' -> Karr
    | '"' -> Kstr
    | 't' | 'f' -> Kbool
    | 'n' -> Knull
    | _ ->
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') (String.sub s start (stop - start))
      then Kfloat
      else Kint

  let rec index_object s prefix i acc =
    let i = ws s i in
    if s.[i] = '}' then (i + 1, acc)
    else begin
      let name, j = Json.parse_string_lit s i in
      let vstart = ws s (ws s j + 1) in
      let _, vend = Json.parse s ~pos:vstart in
      let path = if prefix = "" then name else prefix ^ "." ^ name in
      let acc = (path, vstart, vend, kind s vstart vend) :: acc in
      let acc = if s.[vstart] = '{' then snd (index_object s path (vstart + 1) acc) else acc in
      let k = ws s vend in
      if s.[k] = ',' then index_object s prefix (k + 1) acc else (k + 1, acc)
    end

  type obj = { base : int; stop : int; entries : (string * int * int * Json_index.kind) array }

  let rec objects s pos acc =
    let pos = ws s pos in
    if pos >= String.length s then List.rev acc
    else
      let stop, entries = index_object s "" (pos + 1) [] in
      objects s stop ({ base = pos; stop; entries = Array.of_list (List.rev entries) } :: acc)

  let level0 o =
    List.stable_sort compare (Array.to_list (Array.mapi (fun k (p, _, _, _) -> (p, k + 1)) o.entries))

  type t = { objs : obj array; fixed : bool; paths : string list }

  let build s =
    let objs = Array.of_list (objects s 0 []) in
    let fixed =
      Array.length objs > 0 && level0 objs.(0) <> []
      && Array.for_all (fun o -> level0 o = level0 objs.(0)) objs
    in
    let paths =
      if fixed then List.map fst (level0 objs.(0))
      else List.sort_uniq compare (List.concat_map (fun o -> List.map fst (level0 o)) (Array.to_list objs))
    in
    { objs; fixed; paths }

  let slot t ~obj path = Option.value (List.assoc_opt path (level0 t.objs.(obj))) ~default:(-1)
end

(* [Some msg] where [ix] answers differently from the oracle [o] *)
let index_disagreement ix (o : Oracle.t) =
  let sp = Json_index.make_span () in
  let entry obj slot =
    Json_index.entry_span ix ~obj ~slot sp;
    (sp.sp_start, sp.sp_stop, sp.sp_kind)
  in
  let bad = ref [] in
  let check what ok = if not ok then bad := what :: !bad in
  check "object count" (Json_index.object_count ix = Array.length o.objs);
  check "paths" (Json_index.paths ix = o.paths);
  check "fixed schema" (Json_index.is_fixed_schema ix = o.fixed);
  if !bad = [] then
    Array.iteri
      (fun obj (ob : Oracle.obj) ->
        let at what = Fmt.str "object %d: %s" obj what in
        check (at "object span") (Json_index.object_span ix obj = (ob.base, ob.stop));
        check (at "slot 0") (entry obj 0 = (ob.base, ob.stop, Json_index.Kobj));
        Array.iteri
          (fun k (_, start, stop, kind) -> check (at (Fmt.str "slot %d" (k + 1))) (entry obj (k + 1) = (start, stop, kind)))
          ob.entries;
        List.iter
          (fun path ->
            let want = Oracle.slot o ~obj path in
            let id = Option.value (Json_index.path_id ix path) ~default:(-1) in
            check (at ("slot_by_id " ^ path)) (Json_index.slot_by_id ix ~obj ~id = want);
            check (at ("slot " ^ path))
              (Json_index.slot ix path = if o.fixed && want > 0 then Some want else None))
          ("absent" :: o.paths))
      o.objs;
  match !bad with [] -> None | l -> Some (String.concat "; " (List.rev l))

(* Random documents: nested objects; shuffled, missing and same-kind
   fields; one path holding nulls, ints, strings and objects across
   objects; escaped member names, one of them also spelled with a \u
   escape; whitespace between tokens; objects of 64 KiB or more and
   objects with more than 255 members. Half the documents instantiate one
   template of member paths, so most of those have a fixed schema that a
   respelled name, an empty nested object or a deviant object may or may
   not break. *)
type member_shape = Leaf | Nest of (string list * member_shape) list

let json_doc_gen =
  let open QCheck2.Gen in
  let names =
    [ [ {|"a"|} ]; [ {|"b"|}; {|"\u0062"|} ]; [ {|"c"|} ]; [ {|"k\"q"|} ]; [ {|"t\\u"|} ]; [ {|"n\nl"|} ] ]
  in
  let scalar =
    oneof
      [
        map string_of_int (int_range (-999) 99999);
        map (Fmt.str "%.2f") (float_range (-1000.) 1000.);
        oneofl [ "null"; "true"; "false" ];
        map (fun s -> Json.to_string (Json.Str s)) (string_size ~gen:(oneofl [ 'x'; '"'; '\\'; '{'; ']' ]) (int_range 0 5));
      ]
  in
  (* a value that registers no member below its own entry *)
  let leaf = frequency [ (4, scalar); (1, oneofl [ "{}"; "[]"; {|[1, {"a": 2}]|} ]) ] in
  let render sp members =
    "{" ^ sp ^ String.concat ("," ^ sp) (List.map (fun (n, v) -> n ^ sp ^ ":" ^ sp ^ v) members) ^ sp ^ "}"
  in
  let rec shape depth =
    let* fields = shuffle_l names in
    let* keep = int_range 0 (List.length fields) in
    flatten_l
      (List.filteri (fun i _ -> i < keep) fields
      |> List.map (fun spellings ->
             let+ s =
               if depth < 2 then frequency [ (3, pure Leaf); (1, map (fun m -> Nest m) (shape (depth + 1))) ]
               else pure Leaf
             in
             (spellings, s)))
  in
  let rec instance members =
    let* sp = oneofl [ ""; " "; "\n  " ] in
    let+ members =
      flatten_l
        (List.map
           (fun (spellings, s) -> pair (oneofl spellings) (match s with Leaf -> leaf | Nest m -> instance m))
           members)
    in
    render sp members
  in
  let wide =
    let+ order = shuffle_l (List.init 300 Fun.id) in
    render "" (List.map (fun i -> (Fmt.str {|"w%d"|} i, string_of_int i)) order)
  in
  let big =
    let+ tail = shape 1 >>= instance in
    render " " [ ({|"big"|}, "\"" ^ String.make 70_000 'x' ^ "\""); ({|"after"|}, tail); ({|"a"|}, "1") ]
  in
  let free = shape 0 >>= instance in
  let* objs =
    oneof
      [
        list_size (int_range 1 10) (frequency [ (30, free); (1, wide); (1, big) ]);
        (let* template = shape 0 in
         list_size (int_range 1 10) (frequency [ (12, instance template); (1, free) ]));
      ]
  in
  let+ split = int_range 0 (List.length objs) in
  (objs, split)

let json_index_reference_prop =
  QCheck2.Test.make ~name:"json index == per-object reference build (built and extended)" ~count:300
    ~print:(fun (objs, split) -> Fmt.str "split %d: %s" split (String.concat "\n" objs))
    json_doc_gen
    (fun (objs, split) ->
      let doc objs = String.concat "\n" objs in
      let src = doc objs and old_src = doc (List.filteri (fun i _ -> i < split) objs) in
      let full = Oracle.build src and old = Oracle.build old_src in
      let fail what = function
        | None -> true
        | Some msg -> QCheck2.Test.fail_reportf "%s: %s" what msg
      in
      fail "built" (index_disagreement (Json_index.build src) full)
      &&
      match Json_index.extend (Json_index.build old_src) src with
      | None -> old.fixed && not full.fixed || QCheck2.Test.fail_report "extend refused"
      | Some ext -> fail "extended" (index_disagreement ext full))

(* --- numeric span parsing -------------------------------------------------- *)

let numparse_matches_stdlib =
  (* the fast path must agree bit-for-bit with float_of_string *)
  let open QCheck2.Gen in
  let decimal_gen =
    let* sign = oneofl [ ""; "-" ] in
    let* whole = int_range 0 999_999_999 in
    let* frac_digits = int_range 0 6 in
    let* frac = int_range 0 999_999 in
    return
      (if frac_digits = 0 then Fmt.str "%s%d" sign whole
       else Fmt.str "%s%d.%0*d" sign whole frac_digits (frac mod (int_of_float (10. ** float_of_int frac_digits))))
  in
  QCheck2.Test.make ~name:"float_span == float_of_string" ~count:500 decimal_gen
    (fun s ->
      Float.equal
        (Numparse.float_span s ~start:0 ~stop:(String.length s))
        (float_of_string s))

let test_numparse_edges () =
  let f s = Numparse.float_span s ~start:0 ~stop:(String.length s) in
  Alcotest.(check (float 0.0)) "int form" 42.0 (f "42");
  Alcotest.(check (float 0.0)) "neg" (-3.25) (f "-3.25");
  Alcotest.(check (float 0.0)) "exp fallback" 1500.0 (f "1.5e3");
  Alcotest.(check (float 0.0)) "long digits fallback" 1.2345678901234567
    (f "1.2345678901234567");
  Alcotest.(check int) "int span" (-120) (Numparse.int_span "-120" ~start:0 ~stop:4);
  Alcotest.(check bool) "garbage rejected" true
    (try ignore (f "abc"); false with Perror.Parse_error _ -> true)

let test_numparse_exponents () =
  (* the trailing-exponent fast path must agree bit-for-bit with
     float_of_string, including where it has to give up and fall back *)
  let f s = Numparse.float_span s ~start:0 ~stop:(String.length s) in
  let same s =
    Alcotest.(check int64) s
      (Int64.bits_of_float (float_of_string s))
      (Int64.bits_of_float (f s))
  in
  List.iter same
    [
      (* fast path: |net scale| <= 15 *)
      "1e5"; "1E5"; "-7e3"; "+2e+4"; "1.5e3"; "-3.25e2"; "2.5e-3"; "1e-15";
      "123456789012345e15"; "0.5e1"; "9.75E-2"; "1e0"; "0e7"; "12.e2";
      (* net scale straddling zero: 3 frac digits, e2 -> divide by ten *)
      "1.234e2"; "1.234e3"; "1.234e4";
      (* fallback: scale or mantissa out of the exact-power window *)
      "1e16"; "1e-16"; "2e308"; "3e-320"; "1e9999"; "1e-9999";
      "1.2345678901234567e5"; "1e00000000016";
      (* exponent after a pure fraction and leading-dot forms *)
      ".5e2"; "0.000001e6";
    ];
  (* malformed exponents keep float_of_string's failure behaviour *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (try ignore (f s); false with Failure _ -> true))
    [ "1e"; "1e+"; "1e-"; "1e5x" ]

(* --- Binary JSON --------------------------------------------------------- *)

let binjson_roundtrip_texts =
  [
    {|{"a":1,"b":[1,2,{"c":true}],"d":null,"e":"str"}|};
    {|{"nested":{"deep":{"deeper":[1.5,-2]}}}|};
    {|[]|};
    {|{"empty":{},"earr":[]}|};
  ]

let test_binjson_roundtrip () =
  List.iter
    (fun t ->
      let j = Json.parse_string t in
      let j' = Binjson.decode (Binjson.encode j) in
      Alcotest.(check bool) t true (j = j'))
    binjson_roundtrip_texts

let test_binjson_path_access () =
  let j = Json.parse_string {|{"a": {"b": 42}, "s": "hi", "f": 1.5}|} in
  let bin = Binjson.encode j in
  (match Binjson.find_path bin 0 "a.b" with
  | Some off -> Alcotest.(check int) "a.b" 42 (Binjson.read_int bin off)
  | None -> Alcotest.fail "a.b not found");
  (match Binjson.find_path bin 0 "s" with
  | Some off -> Alcotest.(check string) "s" "hi" (Binjson.read_string bin off)
  | None -> Alcotest.fail "s not found");
  Alcotest.(check bool) "missing path" true (Binjson.find_path bin 0 "a.z" = None)

let test_binjson_array_offsets () =
  let bin = Binjson.encode (Json.parse_string "[10,20,30]") in
  let offs = Binjson.array_offsets bin 0 in
  Alcotest.(check (list int)) "values" [ 10; 20; 30 ]
    (List.map (Binjson.read_int bin) offs)

let test_binjson_value_at () =
  let j = Json.parse_string {|{"a":[1,{"b":"x"}]}|} in
  let bin = Binjson.encode j in
  Alcotest.check check_value "boxed" (Json.to_value j) (Binjson.value_at bin 0)

let json_gen : Json.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
    let base =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) small_signed_int;
          map (fun s -> Json.Str s) (small_string ~gen:(char_range 'a' 'z'));
        ]
    in
    if n <= 0 then base
    else
      frequency
        [
          (3, base);
          ( 1,
            map
              (fun vs -> Json.Obj (List.mapi (fun i v -> (Fmt.str "k%d" i, v)) vs))
              (list_size (int_range 0 4) (self (n / 2))) );
          (1, map (fun vs -> Json.Arr vs) (list_size (int_range 0 4) (self (n / 2))));
        ])

let json_roundtrip_prop =
  QCheck2.Test.make ~name:"json print/parse roundtrip" ~count:300 json_gen (fun j ->
      Json.parse_string (Json.to_string j) = j)

let binjson_roundtrip_prop =
  QCheck2.Test.make ~name:"binjson encode/decode roundtrip" ~count:300 json_gen
    (fun j -> Binjson.decode (Binjson.encode j) = j)

let json_index_agrees_prop =
  (* For any list of generated objects, reading each whole object via the
     structural index equals the reference parser's result. *)
  let open QCheck2.Gen in
  let obj_gen =
    map
      (fun vs -> Json.Obj (List.mapi (fun i v -> (Fmt.str "k%d" i, v)) vs))
      (list_size (int_range 1 5) json_gen)
  in
  QCheck2.Test.make ~name:"structural index agrees with parser" ~count:100
    (list_size (int_range 1 8) obj_gen) (fun objs ->
      let src = String.concat "\n" (List.map Json.to_string objs) in
      let idx = Json_index.build src in
      Json_index.object_count idx = List.length objs
      && List.for_all2
           (fun j i ->
             Value.equal (Json.to_value j) (object_value idx i))
           objs
           (List.init (List.length objs) Fun.id))

(* --- CSV index against the reference tokenizer ---------------------------- *)

(* Free-form CSV: plain and quoted fields (quoted separators, newlines,
   carriage returns and doubled quotes), ragged rows, blank lines, LF and
   CRLF endings, a missing final newline; or a fixed-width file. *)
let csv_text_gen =
  let open QCheck2.Gen in
  let plain = string_size ~gen:(oneofl [ 'a'; 'b'; '7'; ' '; '.' ]) (int_range 0 4) in
  let quoted =
    map
      (fun s -> "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\"")
      (string_size ~gen:(oneofl [ 'a'; ','; '\n'; '\r'; '"' ]) (int_range 0 5))
  in
  let row = map (String.concat ",") (list_size (int_range 1 5) (frequency [ (4, plain); (1, quoted) ])) in
  let eol = oneofl [ "\n"; "\r\n" ] in
  let line = frequency [ (8, map2 ( ^ ) row eol); (1, eol) ] in
  let free =
    map2
      (fun lines cut ->
        let s = String.concat "" lines in
        if cut && s <> "" then String.sub s 0 (String.length s - 1) else s)
      (list_size (int_range 0 12) line) bool
  in
  let fixed =
    let* widths = list_size (int_range 1 4) (int_range 1 3) in
    let* eol = eol in
    let field w = map (fun x -> Printf.sprintf "%0*d" w (x mod int_of_float (10. ** float_of_int w))) nat in
    let* rows = list_size (int_range 0 8) (flatten_l (List.map field widths)) in
    return (String.concat "" (List.map (fun fs -> String.concat "," fs ^ eol) rows))
  in
  frequency [ (3, free); (1, fixed) ]

(* rows as [Csv.row_bounds] and [Csv.field_spans] see them *)
let reference_rows src =
  let n = String.length src in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let s, e, next = Csv.row_bounds src ~pos in
      if s = e then go next acc else go next ((s, e, Csv.field_spans cfg src ~start:s ~stop:e) :: acc)
  in
  go (Csv.data_start cfg src) []

(* [Some msg] when [idx] disagrees with the reference tokenizer on [src] *)
let index_mismatch idx src =
  let rows = reference_rows src in
  if Csv_index.row_count idx <> List.length rows then
    Some (Fmt.str "row count %d, reference %d" (Csv_index.row_count idx) (List.length rows))
  else
    List.concat
      (List.mapi
         (fun row (s, e, spans) ->
           let span_errs =
             List.concat
               (List.mapi
                  (fun field sp ->
                    let got = Csv_index.field_span idx ~row ~field in
                    if got = sp then []
                    else [ Fmt.str "row %d field %d: (%d,%d), reference (%d,%d)" row field (fst got) (snd got) (fst sp) (snd sp) ])
                  spans)
           in
           let missing =
             List.filter_map
               (fun field ->
                 match Csv_index.field_span idx ~row ~field with
                 | exception Perror.Parse_error _ -> None
                 | _ -> Some (Fmt.str "row %d field %d: found past the row's end" row field))
               (List.init (max 0 (Csv_index.arity idx - List.length spans)) (fun i -> List.length spans + i))
           in
           (if Csv_index.row_span idx row = (s, e) then [] else [ Fmt.str "row %d span" row ])
           @ span_errs @ missing)
         rows)
    |> function [] -> None | e :: _ -> Some e

let prop_csv_index_spans =
  QCheck2.Test.make ~name:"csv index spans == reference tokenizer (built and extended)" ~count:500
    ~print:(fun (src, every, cut) -> Fmt.str "%S every=%d cut=%d" src every cut)
    QCheck2.Gen.(triple csv_text_gen (int_range 1 3) nat)
    (fun (src, every, cut) ->
      let built = Csv_index.build cfg ~every src in
      let split = cut mod (String.length src + 1) in
      let extended = Csv_index.extend (Csv_index.build cfg ~every (String.sub src 0 split)) src in
      (match index_mismatch built src with
      | Some m -> QCheck2.Test.fail_reportf "built: %s" m
      | None -> ());
      match extended with
      | None -> true
      | Some ix -> (
        match index_mismatch ix src with
        | Some m -> QCheck2.Test.fail_reportf "extended at %d: %s" split m
        | None ->
          (* a prefix indexed without the fixed-width layout keeps its
             per-row arrays, so only this direction holds *)
          (not (Csv_index.is_fixed_width ix)) || Csv_index.is_fixed_width built
          || QCheck2.Test.fail_reportf "extended at %d: fixed-width, build is not" split))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "format"
    [
      ( "csv",
        [
          Alcotest.test_case "read_all" `Quick test_csv_read_all;
          Alcotest.test_case "roundtrip" `Quick test_csv_roundtrip;
          Alcotest.test_case "non-finite roundtrip" `Quick test_csv_non_finite_roundtrip;
          Alcotest.test_case "field spans" `Quick test_csv_field_spans;
          Alcotest.test_case "empty optional" `Quick test_csv_empty_field_null;
          Alcotest.test_case "null last field roundtrip" `Quick test_csv_null_last_roundtrip;
          Alcotest.test_case "nullable every type" `Quick test_csv_nullable_every_type;
          Alcotest.test_case "empty string roundtrip" `Quick test_csv_empty_string_roundtrip;
          Alcotest.test_case "header" `Quick test_csv_header;
          Alcotest.test_case "bad int" `Quick test_csv_bad_int;
          Alcotest.test_case "row arity" `Quick test_csv_row_arity;
        ] );
      ( "csv-index",
        [
          Alcotest.test_case "all positions" `Quick test_csv_index_positions;
          Alcotest.test_case "fixed width" `Quick test_csv_index_fixed_width;
          Alcotest.test_case "variable width" `Quick test_csv_index_variable_width;
          Alcotest.test_case "ragged tolerated" `Quick test_csv_index_ragged_tolerated;
        ]
        @ qsuite [ prop_csv_index_spans ] );
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "sequence" `Quick test_json_seq;
          Alcotest.test_case "malformed" `Quick test_json_malformed;
          Alcotest.test_case "bad \\u escape" `Quick test_json_bad_unicode_escape;
          Alcotest.test_case "to_value" `Quick test_json_value_conversion;
        ]
        @ qsuite [ json_roundtrip_prop ] );
      ( "json-index",
        [
          Alcotest.test_case "basic lookup" `Quick test_json_index_basic;
          Alcotest.test_case "nested path" `Quick test_json_index_nested_path;
          Alcotest.test_case "arrays" `Quick test_json_index_array_not_registered;
          Alcotest.test_case "fixed schema" `Quick test_json_index_fixed_schema;
          Alcotest.test_case "missing field" `Quick test_json_index_missing_field;
          Alcotest.test_case "find in span" `Quick test_json_index_find_in_span;
          Alcotest.test_case "escaped names in span" `Quick
            test_json_index_find_in_span_escaped_names;
          Alcotest.test_case "no prefix matches" `Quick
            test_json_index_name_prefix_not_matched;
          Alcotest.test_case "read_value vs parser" `Quick
            test_json_index_read_value_matches_parser;
          Alcotest.test_case "size reported" `Quick test_json_index_size_reported;
          Alcotest.test_case "build allocation" `Quick test_json_index_build_allocation;
          Alcotest.test_case "unnest allocation" `Quick test_json_index_unnest_allocation;
          Alcotest.test_case "honest footprint" `Quick test_json_index_honest_footprint;
          Alcotest.test_case "unique member names" `Quick test_json_index_unique_names;
          Alcotest.test_case "duplicate member name" `Quick test_json_index_duplicate_name;
        ]
        @ qsuite [ json_index_agrees_prop; json_index_reference_prop ] );
      ( "numparse",
        [
          Alcotest.test_case "edge cases" `Quick test_numparse_edges;
          Alcotest.test_case "trailing exponents" `Quick test_numparse_exponents;
        ]
        @ qsuite [ numparse_matches_stdlib ] );
      ( "binjson",
        [
          Alcotest.test_case "roundtrip" `Quick test_binjson_roundtrip;
          Alcotest.test_case "path access" `Quick test_binjson_path_access;
          Alcotest.test_case "array offsets" `Quick test_binjson_array_offsets;
          Alcotest.test_case "value_at" `Quick test_binjson_value_at;
        ]
        @ qsuite [ binjson_roundtrip_prop ] );
    ]
