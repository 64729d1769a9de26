(* Appends extend, not rebuild (DESIGN.md section 18).

   The contract: after any sequence of [Db.append]s, a session that extended
   its structural indexes, statistics, cached columns and promoted layouts
   answers every query exactly as a fresh session registered with the
   concatenated bytes does — and, while the data is clean, exactly as the
   reference evaluator over those bytes. The property drives random append
   sequences (CSV and JSON; tails that keep or break the fixed-width /
   fixed-schema specialization; missing trailing newlines; empty appends;
   nulls, -0.0 and infinities; malformed rows under Fail_fast and Skip_row;
   promotion at threshold 1, so zone maps, sorted projections, dictionaries
   and slot columns exist before each append; one and two domains) and
   shrinks a failure to a minimal sequence. The text formats have no NaN
   literal: NaN reaches the answers through the binary join side and
   through inf + -inf. *)

open Proteus_model
module Db = Proteus.Db
module Registry = Proteus_plugin.Registry
module Source = Proteus_plugin.Source
module Manager = Proteus_cache.Manager
module Column = Proteus_storage.Column
module Zonemap = Proteus_storage.Zonemap
module Projection = Proteus_storage.Projection
module Csv_index = Proteus_format.Csv_index
module Json_index = Proteus_format.Json_index

let check_value = Alcotest.testable Value.pp Value.equal

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

(* --- data ---------------------------------------------------------------- *)

let element =
  Ptype.Record
    [ ("k", Ptype.Int); ("s", Ptype.Option Ptype.String); ("v", Ptype.Option Ptype.Float);
      ("g", Ptype.Int) ]

type row = { k : int; g : int; v : string option; s : string option }
(* [v] is the float's literal text, so "-0.0" and "1e400" survive as written *)

(* Fixed style: every field has one width (CSV stays fixed-width) and every
   object lists its keys in one order (JSON stays fixed-schema). Free style
   varies widths, writes nulls and shuffles keys. *)
type style = Fixed | Free

type chunk =
  | Rows of style * row list * bool  (* rows, ends with a newline *)
  | Bad of int  (* one malformed row of the given kind *)
  | Empty

type fmt = Csv | Json

type case = {
  fmt : fmt;
  base : chunk;
  appends : chunk list;
  policy : Fault.policy;
  domains : int;
}

let render_row fmt style r =
  let v = Option.value r.v ~default:"" and s = Option.value r.s ~default:"" in
  match fmt with
  | Csv -> Printf.sprintf "%d,%s,%s,%d" r.k s v r.g
  | Json ->
    let null = function Some x -> x | None -> "null" in
    let fields =
      [ ("k", string_of_int r.k); ("s", null (Option.map (Printf.sprintf "%S") r.s));
        ("v", null r.v); ("g", string_of_int r.g) ]
    in
    (* free style puts the keys in another document order *)
    let fields = if style = Free && r.k mod 2 = 0 then List.rev fields else fields in
    "{" ^ String.concat "," (List.map (fun (n, x) -> Printf.sprintf "%S:%s" n x) fields) ^ "}"

let render_bad fmt kind =
  match fmt, kind mod 3 with
  | Csv, 0 -> "x7,a,1.25,1"  (* bad int *)
  | Csv, 1 -> "7,a"  (* short row *)
  | Csv, _ -> "7,a,1.25,1,extra"  (* long row *)
  | Json, 0 -> {|{"k":"zz","s":"a","v":1.25,"g":1}|}  (* bad int *)
  | Json, 1 -> {|{"k":7,"s":"a","v":1.25,"g":"1"}|}
  | Json, _ -> {|{"k":7,"s":"a","v":1.25,"g":|}  (* does not parse *)

let render fmt = function
  | Empty -> ""
  | Bad kind -> render_bad fmt kind ^ "\n"
  | Rows (style, rows, newline) ->
    String.concat "\n" (List.map (render_row fmt style) rows) ^ if newline && rows <> [] then "\n" else ""

let gen_row style =
  let open QCheck2.Gen in
  match style with
  | Fixed ->
    let* k = int_range 10 99 in
    let* g = int_range 0 3 in
    (* quarters keep every float sum exact in any order *)
    let* v = oneofl [ "1.250"; "2.500"; "-0.00"; "0.000"; "9.750"; "1e400" ] in
    let+ s = oneofl [ "a"; "b"; "c" ] in
    { k; g; v = Some v; s = Some s }
  | Free ->
    let* k = int_range (-5) 120 in
    let* g = int_range 0 3 in
    let* v =
      frequency
        [ (2, pure None);
          (6, map (fun q -> Some (Printf.sprintf "%g" (float_of_int q /. 4.))) (int_range (-80) 80));
          (1, oneofl [ Some "-0.0"; Some "-0"; Some "1e400"; Some "-1e400" ]) ]
    in
    let+ s = frequency [ (1, pure None); (4, map Option.some (oneofl [ "a"; "bb"; "c" ])) ] in
    { k; g; v; s }

let gen_chunk ~first =
  let open QCheck2.Gen in
  let rows =
    let* style = frequency [ (2, pure Fixed); (1, pure Free) ] in
    let* rows = list_size (int_range (if first then 1 else 0) 12) (gen_row style) in
    let+ newline = frequency [ (3, pure true); (1, pure false) ] in
    Rows (style, rows, newline)
  in
  if first then rows
  else frequency [ (8, rows); (1, pure Empty); (1, map (fun k -> Bad k) (int_range 0 2)) ]

let gen_case =
  let open QCheck2.Gen in
  let* fmt = oneofl [ Csv; Json ] in
  let* base = gen_chunk ~first:true in
  let* appends = list_size (int_range 1 4) (gen_chunk ~first:false) in
  let* policy = oneofl [ Fault.Fail_fast; Fault.Skip_row ] in
  let+ domains = oneofl [ 1; 2 ] in
  { fmt; base; appends; policy; domains }

let print_case c =
  let chunk = function
    | Empty -> "empty"
    | Bad k -> Printf.sprintf "bad %S" (render_bad c.fmt k)
    | Rows (style, _, _) as ch ->
      Printf.sprintf "%s %S" (if style = Fixed then "fixed" else "free") (render c.fmt ch)
  in
  Printf.sprintf "%s %s domains=%d base=%s appends=[%s]"
    (match c.fmt with Csv -> "csv" | Json -> "json")
    (match c.policy with Fault.Skip_row -> "skip_row" | _ -> "fail_fast")
    c.domains (chunk c.base)
    (String.concat "; " (List.map chunk c.appends))

(* --- sessions -------------------------------------------------------------- *)

(* The binary join side: group ids 0..4 (4 never matches), NaN weights on
   one of them. *)
let dims =
  List.init 5 (fun gid ->
      Value.record
        [ ("gid", Value.Int gid);
          ("w", Value.Float (if gid = 2 then Float.nan else float_of_int (gid + 1) /. 2.)) ])

let dim_type = Ptype.Record [ ("gid", Ptype.Int); ("w", Ptype.Float) ]

let promote_caching =
  { Manager.default_config with promote = true; promote_threshold = 1 }

let session ?(caching = Manager.default_config) fmt contents =
  let db = Db.create ~caching () in
  (match fmt with
  | Csv -> Db.register_csv db ~name:"t" ~element ~contents ()
  | Json -> Db.register_json db ~name:"t" ~element ~contents);
  Db.register_rows db ~name:"d" ~element:dim_type dims;
  db

let queries =
  [ "SELECT COUNT(*) FROM t";
    "SELECT SUM(v) FROM t WHERE k < 40";
    "SELECT g, COUNT(*), SUM(k) FROM t GROUP BY g";
    "SELECT COUNT(*), SUM(w) FROM t JOIN d ON g = gid WHERE k >= 10";
    "SELECT COUNT(*) FROM t WHERE s = 'a'";
    "SELECT SUM(k) FROM t WHERE v > 1.0" ]

type answer = Answer of Value.t * int (* skipped rows *) | Error

let pp_answer = function
  | Answer (v, skipped) -> Fmt.str "%a (skipped %d)" Value.pp (sort_bag v) skipped
  | Error -> "error"

let answer c db q =
  match
    Proteus_engine.Executor.query ~policy:c.policy (fun () -> Db.sql ~domains:c.domains db q)
  with
  | Db.Completed (v, report) -> Answer (sort_bag v, report.Fault.rp_skipped)
  | Db.Failed _ | Db.Timed_out _ | Db.Cancelled _ -> Error

let same a b =
  match a, b with
  | Answer (x, n), Answer (y, m) -> Value.equal x y && n = m
  | Error, Error -> true
  | _ -> false

(* The reference evaluator over the fresh session's rows, read whole;
   [None] when some row does not read (the data is not clean). A JSON
   object is read untyped, so an integer literal in the float field [v] is
   typed as the schema (and every typed accessor) reads it. *)
let reference fresh q =
  let reg = Db.registry fresh in
  let typed row =
    match Value.field_opt row "v" with
    | Some (Value.Int i) ->
      Value.record
        (List.map
           (fun (n, x) -> (n, if n = "v" then Value.Float (float_of_int i) else x))
           (Array.to_list (Value.fields row)))
    | _ -> row
  in
  match
    let src = Registry.fresh_source reg "t" in
    List.init src.Source.count (fun i ->
        src.Source.seek i;
        typed (src.Source.whole ()))
  with
  | exception (Perror.Parse_error _ | Perror.Type_error _) -> None
  | rows ->
    let lookup = function "t" -> rows | "d" -> dims | n -> Perror.plan_error "no %s" n in
    Some (sort_bag (Proteus_algebra.Interp.run ~lookup (Db.plan_sql fresh q)))

let appends_hold c =
  let contents = ref (render c.fmt c.base) in
  let db = session ~caching:promote_caching c.fmt !contents in
  (* twice: fills, then promotions (threshold 1) and their layouts *)
  List.iter (fun q -> ignore (answer c db q); ignore (answer c db q)) queries;
  let clean = ref true in
  List.for_all
    (fun chunk ->
      let text = render c.fmt chunk in
      Db.append db ~name:"t" text;
      (* the image a fresh session reads: a CSV row terminator goes in
         when the image lacks one, as [Db.append] documents *)
      let sep =
        if c.fmt = Csv && text <> "" && !contents <> ""
           && !contents.[String.length !contents - 1] <> '\n'
        then "\n"
        else ""
      in
      contents := !contents ^ sep ^ text;
      (match chunk with Bad _ -> clean := false | Rows _ | Empty -> ());
      let fresh = session c.fmt !contents in
      List.for_all
        (fun q ->
          let got = answer c db q and expected = answer c fresh q in
          let ok =
            same got expected
            &&
            match got with
            | Answer (v, _) when !clean -> (
              match reference fresh q with Some e -> Value.equal v e | None -> true)
            | _ -> true
          in
          if not ok then
            QCheck2.Test.fail_reportf
              "after appending %S: %s\n  extended:  %s\n  fresh:     %s\n  reference: %s" text q
              (pp_answer got) (pp_answer expected)
              (match reference fresh q with Some v -> Fmt.str "%a" Value.pp v | None -> "-");
          ok)
        queries)
    c.appends

let append_prop =
  QCheck2.Test.make ~name:"extended session == fresh session == reference" ~count:300
    ~print:print_case gen_case appends_hold

(* --- the layers on their own ---------------------------------------------- *)

(* An extended index answers every span and row as a build over the grown
   source does. *)
let index_prop =
  let gen =
    let open QCheck2.Gen in
    let* fmt = oneofl [ Csv; Json ] in
    let* base = gen_chunk ~first:true in
    let+ tail = gen_chunk ~first:false in
    (fmt, base, tail)
  in
  QCheck2.Test.make ~name:"extend == build" ~count:500
    ~print:(fun (fmt, base, tail) ->
      Printf.sprintf "%S ^ %S" (render fmt base) (render fmt tail))
    gen
    (fun (fmt, base, tail) ->
      let old_src = render fmt base in
      (* as [Db.append] does for CSV: the appended rows start a new row *)
      let sep = if fmt = Csv && not (String.ends_with ~suffix:"\n" old_src) then "\n" else "" in
      let src = old_src ^ sep ^ render fmt tail in
      match fmt with
      | Csv -> (
        let cfg = Proteus_format.Csv.default_config in
        match Csv_index.extend (Csv_index.build cfg old_src) src with
        | None -> QCheck2.Test.fail_report "a terminated last row cannot change"
        | Some ext ->
          let full = Csv_index.build cfg src in
          let n = Csv_index.row_count full in
          let span ix r f = try Some (Csv_index.field_span ix ~row:r ~field:f) with Perror.Parse_error _ -> None in
          let fixed = Csv_index.is_fixed_width in
          (* the specialization survives exactly when the old index had it
             (or held one row, which is judged afresh) and a build over the
             grown source has it *)
          let old = Csv_index.build cfg old_src in
          Csv_index.row_count ext = n
          && fixed ext = (fixed full && (fixed old || Csv_index.row_count old <= 1))
          && List.for_all
               (fun r ->
                 Csv_index.row_span ext r = Csv_index.row_span full r
                 && Csv_index.row_arity ext r = Csv_index.row_arity full r
                 && List.for_all (fun f -> span ext r f = span full r f) [ 0; 1; 2; 3 ])
               (List.init n Fun.id))
      | Json -> (
        match Json_index.build src with
        | exception Perror.Parse_error _ -> (
          match Json_index.extend (Json_index.build old_src) src with
          | exception Perror.Parse_error _ -> true
          | _ -> QCheck2.Test.fail_report "extension accepted what a build rejects")
        | full -> (
          let old = Json_index.build old_src in
          match Json_index.extend old src with
          | None ->
            Json_index.is_fixed_schema old && not (Json_index.is_fixed_schema full)
          | Some ext ->
            let n = Json_index.object_count full in
            Json_index.object_count ext = n
            && Json_index.is_fixed_schema ext = Json_index.is_fixed_schema full
            && Json_index.paths ext = Json_index.paths full
            && List.for_all
                 (fun o ->
                   Json_index.object_span ext o = Json_index.object_span full o
                   && List.for_all
                        (fun path ->
                          Option.map (Json_index.read_value ext) (Json_index.find ext ~obj:o ~path)
                          = Option.map (Json_index.read_value full) (Json_index.find full ~obj:o ~path))
                        [ "k"; "g"; "v"; "s" ])
                 (List.init n Fun.id))))

(* A zone map or projection extended over a grown column equals one built
   over it at the same zone width; an appended dictionary column equals a
   dictionary encoding of the whole. Int and float columns (with -0.0 and
   NaN, which a projection refuses). *)
let summary_prop =
  let gen =
    let open QCheck2.Gen in
    let value = frequency [ (1, pure None); (6, map Option.some (int_range (-30) 30)) ] in
    let* prefix = list_size (int_range 1 60) value in
    let* tail = list_size (int_range 0 40) value in
    let+ zone = int_range 1 9 in
    (prefix, tail, zone)
  in
  QCheck2.Test.make ~name:"extended summaries == built summaries" ~count:500
    ~print:QCheck2.Print.(triple (list (option int)) (list (option int)) int) gen
    (fun (prefix, tail, zone) ->
      let ints vs =
        Column.of_values (Ptype.Option Ptype.Int)
          (List.map (function Some i -> Value.Int i | None -> Value.Null) vs)
      in
      let floats vs =
        let f i = if i = 7 then -0.0 else if i = 13 then Float.nan else float_of_int i /. 2. in
        Column.of_values (Ptype.Option Ptype.Float)
          (List.map (function Some i -> Value.Float (f i) | None -> Value.Null) vs)
      in
      let strs vs =
        Column.of_values (Ptype.Option Ptype.String)
          (List.map (function Some i -> Value.String (string_of_int (i mod 5)) | None -> Value.Null) vs)
      in
      let dict c = Option.get (Column.promote_strings c) in
      let same_summaries col =
        let old = col prefix and grown = col (prefix @ tail) in
        (match Zonemap.of_column ~zone old with
         | None -> true
         | Some zm ->
           (* [compare], not [=]: a NaN bound equals itself *)
           compare (Zonemap.extend zm grown) (Zonemap.of_column ~zone grown) = 0)
        &&
        match Projection.of_column old with
        | None -> true
        | Some pr -> (
          match Projection.extend pr grown, Projection.of_column grown with
          | Some e, Some b ->
            e.Projection.perm = b.Projection.perm && e.Projection.keys = b.Projection.keys
            && e.Projection.rows = b.Projection.rows
          | e, b -> Option.is_none e = Option.is_none b)
      in
      Column.append (ints prefix) (ints tail) = ints (prefix @ tail)
      && Column.append (dict (strs prefix)) (strs tail) = dict (strs (prefix @ tail))
      && same_summaries ints && same_summaries floats)

(* --- targeted ------------------------------------------------------------- *)

let csv_rows lo hi =
  String.concat ""
    (List.init (hi - lo) (fun i -> Printf.sprintf "%d,a,%d.25,%d\n" (lo + i + 100) ((lo + i) mod 10) ((lo + i) mod 4)))

let count db = Db.sql db "SELECT COUNT(*) FROM t"

(* A conforming append extends the index (fixed width kept), the promoted
   column stays promoted, and its zone map covers the appended rows. *)
let test_conforming_extends () =
  let db = session ~caching:promote_caching Csv (csv_rows 0 300) in
  for _ = 1 to 3 do
    ignore (Db.sql db "SELECT SUM(g) FROM t WHERE k < 150");
    ignore (Db.sql db "SELECT COUNT(*) FROM t WHERE s = 'a'")
  done;
  let mgr = Db.cache_manager db in
  let column path = (Manager.iface mgr).Proteus_plugin.Cache_iface.lookup_field ~dataset:"t" ~path in
  Alcotest.(check bool) "promoted before" true (Manager.is_promoted mgr ~dataset:"t" ~path:"k");
  let before = Option.get (Registry.index_info (Db.registry db) "t") in
  Db.append db ~name:"t" (csv_rows 300 340);
  let info = Option.get (Registry.index_info (Db.registry db) "t") in
  Alcotest.(check int) "no rebuild" before.Registry.built_rows info.Registry.built_rows;
  Alcotest.(check int) "rows by extension" 40 info.Registry.extended_rows;
  Alcotest.(check bool) "still fixed width" true info.Registry.fixed_schema;
  Alcotest.(check bool) "still promoted" true (Manager.is_promoted mgr ~dataset:"t" ~path:"k");
  (match Manager.lookup_zones mgr ~dataset:"t" ~path:"k" with
   | Some zm -> Alcotest.(check int) "zone map covers the appended rows" 340 zm.Zonemap.rows
   | None -> Alcotest.fail "zone map dropped");
  (match Manager.lookup_projection mgr ~dataset:"t" ~path:"k" with
   | Some pr -> Alcotest.(check int) "projection covers the appended rows" 340 (Projection.rows pr)
   | None -> Alcotest.fail "projection dropped");
  (match column "s" with
   | Some (Column.Dicts (codes, _)) ->
     Alcotest.(check int) "dictionary covers the appended rows" 340 (Array.length codes)
   | _ -> Alcotest.fail "dictionary column dropped");
  let st = Manager.stats mgr in
  Alcotest.(check bool) "tail rows filled" true (st.Manager.tail_rows >= 40);
  Alcotest.(check int) "nothing dropped" 0 st.Manager.layouts_dropped;
  let promotions = st.Manager.promotions in
  Alcotest.check check_value "count" (Value.Int 340) (count db);
  Alcotest.check check_value "selective read sees the new rows" (Value.Int 40)
    (Db.sql db "SELECT COUNT(*) FROM t WHERE k >= 400");
  Alcotest.(check int) "no re-promotion" promotions (Manager.stats mgr).Manager.promotions

(* A CSV tail of another width loses the fixed-width layout but still
   extends: the old rows' positions come from the fixed layout. *)
let test_csv_width_break_extends () =
  let db = session Csv (csv_rows 0 50) in
  ignore (count db);
  Db.append db ~name:"t" "7,bb,,1\n123456,,3.5,2\n";
  let info = Option.get (Registry.index_info (Db.registry db) "t") in
  Alcotest.(check bool) "fixed width lost" false info.Registry.fixed_schema;
  Alcotest.(check int) "still an extension" 2 info.Registry.extended_rows;
  Alcotest.check check_value "count" (Value.Int 52) (count db);
  Alcotest.check check_value "old and new rows read" (Value.Int (6225 + 7 + 123456))
    (Db.sql db "SELECT SUM(k) FROM t")

(* A JSON tail that breaks the fixed schema takes the rebuild. *)
let test_json_schema_break_rebuilds () =
  let obj k = Printf.sprintf {|{"k":%d,"g":1,"v":1.5,"s":"a"}|} k in
  let db = session ~caching:promote_caching Json (String.concat "\n" (List.init 20 obj) ^ "\n") in
  for _ = 1 to 2 do
    ignore (Db.sql db "SELECT SUM(g) FROM t WHERE k < 10")
  done;
  let slot () = Registry.slot_column (Db.registry db) ~dataset:"t" ~path:"k" in
  Alcotest.(check bool) "slot column before" true (slot ());
  Db.append db ~name:"t" (obj 20 ^ "\n");
  let info = Option.get (Registry.index_info (Db.registry db) "t") in
  Alcotest.(check bool) "fixed schema kept" true info.Registry.fixed_schema;
  Alcotest.(check int) "extended" 1 info.Registry.extended_rows;
  Alcotest.(check bool) "slot column kept" true (slot ());
  Alcotest.check check_value "slot column serves the appended row" (Value.Int 1)
    (Db.sql db "SELECT COUNT(*) FROM t WHERE k >= 20");
  Db.append db ~name:"t" {|{"g":1,"k":21,"v":1.5,"s":"a"}|};
  Alcotest.(check bool) "index dropped for the rebuild" true
    (Registry.index_info (Db.registry db) "t" = None);
  Alcotest.(check bool) "promotion dropped with it" false
    (Manager.is_promoted (Db.cache_manager db) ~dataset:"t" ~path:"k");
  Alcotest.check check_value "count" (Value.Int 22) (count db);
  let info = Option.get (Registry.index_info (Db.registry db) "t") in
  Alcotest.(check int) "rebuilt over every row" 22 info.Registry.built_rows

(* An append behind a row left inside an open quote continues that row:
   the old rows are no longer a prefix of the new ones, so the rebuild
   runs and the answers are a fresh session's. *)
let test_open_quote_rebuilds () =
  let element = Ptype.Record [ ("k", Ptype.Int); ("s", Ptype.Option Ptype.String) ] in
  let session ?caching contents =
    let db = Db.create ?caching () in
    Db.register_csv db ~name:"t" ~element ~contents ();
    db
  in
  let base = "1,a\n2,\"open" and tail = "3,b\n" in
  let db = session ~caching:promote_caching base in
  let q = "SELECT COUNT(*), SUM(k) FROM t WHERE s <> 'x'" in
  ignore (Db.sql db q);
  ignore (Db.sql db q);
  Db.append db ~name:"t" tail;
  Alcotest.(check bool) "index dropped for the rebuild" true
    (Registry.index_info (Db.registry db) "t" = None);
  let fresh = session (base ^ "\n" ^ tail) in
  Alcotest.check check_value "as a fresh session" (Db.sql fresh q) (Db.sql db q)

(* An append to a shard member extends the member; the shard set's
   concatenated view, its digests and its caches follow the grown member. *)
let test_shard_member_append () =
  let shards = [ csv_rows 0 40; csv_rows 40 80 ] and tail = csv_rows 200 230 in
  let sharded contents =
    let db = Db.create ~caching:promote_caching () in
    Db.register_sharded_csv db ~name:"s" ~element ~shards:contents ();
    db
  in
  let db = sharded shards in
  let qs =
    [ "SELECT COUNT(*), SUM(k) FROM s WHERE k >= 300"; "SELECT COUNT(*) FROM s WHERE k < 150" ]
  in
  List.iter (fun q -> ignore (Db.sql db q); ignore (Db.sql db q)) qs;
  Db.append db ~name:"s__s1" tail;
  let info = Option.get (Registry.index_info (Db.registry db) "s__s1") in
  Alcotest.(check int) "member extended" 30 info.Registry.extended_rows;
  let fresh = sharded [ List.nth shards 0; List.nth shards 1 ^ tail ] in
  List.iter (fun q -> Alcotest.check check_value q (Db.sql fresh q) (Db.sql db q)) qs

let () =
  Alcotest.run "append"
    [
      ( "targeted",
        [ Alcotest.test_case "conforming append extends" `Quick test_conforming_extends;
          Alcotest.test_case "csv width break extends" `Quick test_csv_width_break_extends;
          Alcotest.test_case "json schema break rebuilds" `Quick test_json_schema_break_rebuilds;
          Alcotest.test_case "append behind an open quote rebuilds" `Quick
            test_open_quote_rebuilds;
          Alcotest.test_case "shard member append" `Quick test_shard_member_append ] );
      ( "layers",
        List.map QCheck_alcotest.to_alcotest [ index_prop; summary_prop ] );
      ("sequences", [ QCheck_alcotest.to_alcotest append_prop ]);
    ]
