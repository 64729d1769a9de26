(* Fault-tolerant execution: differential tests for the per-query error
   policies, error budgets, deadlines, cache quarantine and the
   error-report machinery.

   The core property: [Skip_row] over a deterministically corrupted file
   must be bit-identical to a clean run over the valid subset — at every
   engine configuration (serial / tuple lane / batch lanes / Volcano /
   2 and 4 domains) — and must produce the same structured error report
   (counts, first samples with byte positions, per-source breakdown)
   everywhere. *)

open Proteus_model
open Proteus_engine
module Db = Proteus.Db
module Manager = Proteus_cache.Manager
module Binjson = Proteus_format.Binjson
module Json = Proteus_format.Json

let check_value = Alcotest.testable Value.pp Value.equal

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

(* --- fixtures ------------------------------------------------------------ *)

let n_rows = 600
let pick i = i mod 7 = 3
let n_picked = List.length (List.filter pick (List.init n_rows Fun.id)) (* 86 *)

let item_ty =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

(* quarter-step prices are dyadic rationals: every partial sum is exact, so
   value comparisons across engines and domain counts are bit-identity *)
let price_str i = Fmt.str "%.12g" (float_of_int ((i * 37) mod 1000) /. 4.0)
let csv_line i = Fmt.str "%d,%d,%s,n%d" i (i mod 7) (price_str i) (i mod 13)

let json_line i =
  Fmt.str "{\"k\":%d,\"grp\":%d,\"price\":%s,\"name\":\"n%d\"}" i (i mod 7)
    (price_str i) (i mod 13)

let csv_all = String.concat "\n" (List.init n_rows csv_line) ^ "\n"
let json_all = String.concat "\n" (List.init n_rows json_line)

let valid_subset line_of =
  List.init n_rows Fun.id
  |> List.filter (fun i -> not (pick i))
  |> List.map line_of |> String.concat "\n"

let csv_valid = valid_subset csv_line ^ "\n"
let json_valid = valid_subset json_line

(* picked rows: field "k" garbled — 'x' first byte in CSV, a float-shaped
   token in JSON — so the structural indexes still build and the damage
   surfaces at access time with a byte position *)
let csv_corrupt = Faultgen.garble_csv_field ~field:0 ~pick csv_all
let json_corrupt = Faultgen.garble_json_number ~key:"k" ~pick json_all

(* price garbled instead: the Null_fill fixtures *)
let csv_corrupt_price = Faultgen.garble_csv_field ~field:2 ~pick csv_all

let db_csv contents () =
  let db = Db.create () in
  Db.register_csv db ~name:"items" ~element:item_ty ~contents ();
  db

let db_json contents () =
  let db = Db.create () in
  Db.register_json db ~name:"items" ~element:item_ty ~contents;
  db

(* byte offset where line [i] of [src] starts (rows are lines here) *)
let line_start src i =
  let rec go pos = function
    | 0 -> pos
    | k -> go (String.index_from src pos '\n' + 1) (k - 1)
  in
  go 0 i

let agg_q = "SELECT COUNT(*) AS c, SUM(price) AS s FROM items WHERE k >= 0"
let grp_q = "SELECT grp, SUM(price) AS s FROM items WHERE k >= 0 GROUP BY grp"

(* --- engine configurations ---------------------------------------------- *)

let cfgs =
  [ ("serial", (Db.Engine_compiled, 1), None);
    ("tuple", (Db.Engine_compiled, 1), Some 0);
    ("batch256", (Db.Engine_compiled, 1), Some 256);
    ("batch1024", (Db.Engine_compiled, 1), Some 1024);
    ("volcano", (Db.Engine_volcano, 1), None);
    ("par2", (Db.Engine_compiled, 2), None);
    ("par4", (Db.Engine_compiled, 4), None);
    ("par4b256", (Db.Engine_compiled, 4), Some 256) ]

let guarded ?policy ?max_errors ?timeout_ms (_, (engine, domains), batch) mk q =
  let db = mk () in
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.)) timeout_ms
  in
  Executor.query ?policy ?max_errors ?deadline (fun () ->
      Db.sql ~engine ~domains ?batch_size:batch db q)

let completed name = function
  | Db.Completed (v, r) -> (v, r)
  | Db.Failed (_, e) -> Alcotest.failf "%s: unexpectedly failed: %a" name Perror.pp_exn e
  | Db.Timed_out _ -> Alcotest.failf "%s: unexpectedly timed out" name
  | Db.Cancelled _ -> Alcotest.failf "%s: unexpectedly cancelled" name

let digest_counts (r : Fault.report) =
  Fmt.str "errors=%d skipped=%d nulled=%d by_source=[%a]" r.Fault.rp_errors
    r.Fault.rp_skipped r.Fault.rp_nulled
    Fmt.(list ~sep:comma (pair ~sep:(any ":") string int))
    r.Fault.rp_by_source

let digest (r : Fault.report) =
  Fmt.str "%s samples=[%a]" (digest_counts r)
    Fmt.(
      list ~sep:comma (fun ppf s ->
          pf ppf "%s#%d@%d" s.Fault.sm_source s.Fault.sm_row s.Fault.sm_pos))
    r.Fault.rp_samples

(* --- Skip_row differential: corrupt run == clean run over valid subset -- *)

let check_skip_differential mk_corrupt mk_valid corrupt_src () =
  let expected_agg, expected_grp =
    let db = mk_valid () in
    (sort_bag (Db.sql db agg_q), sort_bag (Db.sql db grp_q))
  in
  let base_agg = ref None and base_grp = ref None in
  List.iter
    (fun ((name, _, _) as cfg) ->
      let v1, r1 = completed name (guarded ~policy:Fault.Skip_row cfg mk_corrupt agg_q) in
      let v2, r2 = completed name (guarded ~policy:Fault.Skip_row cfg mk_corrupt grp_q) in
      Alcotest.check check_value (name ^ " agg value") expected_agg (sort_bag v1);
      Alcotest.check check_value (name ^ " grp value") expected_grp (sort_bag v2);
      Alcotest.(check int) (name ^ " errors") n_picked r1.Fault.rp_errors;
      Alcotest.(check int) (name ^ " skipped") n_picked r1.Fault.rp_skipped;
      Alcotest.(check int) (name ^ " nulled") 0 r1.Fault.rp_nulled;
      (* positioned samples: first faulty row is row 3, and the recorded
         byte offset lands inside that row's span of the corrupt input *)
      (match r1.Fault.rp_samples with
      | s :: _ ->
        Alcotest.(check string) (name ^ " sample source") "items" s.Fault.sm_source;
        Alcotest.(check int) (name ^ " sample row") 3 s.Fault.sm_row;
        let lo = line_start corrupt_src 3 and hi = line_start corrupt_src 4 in
        if not (s.Fault.sm_pos >= lo && s.Fault.sm_pos < hi) then
          Alcotest.failf "%s: sample pos %d outside row 3 span [%d,%d)" name
            s.Fault.sm_pos lo hi
      | [] -> Alcotest.failf "%s: no error samples" name);
      (* deterministic reports: the full digest (including sample order and
         positions) must match the serial engine's at every configuration;
         the grouped query checks counts and per-source breakdown *)
      (match !base_agg with
      | None -> base_agg := Some (digest r1)
      | Some d -> Alcotest.(check string) (name ^ " agg report") d (digest r1));
      match !base_grp with
      | None -> base_grp := Some (digest_counts r2)
      | Some d -> Alcotest.(check string) (name ^ " grp report") d (digest_counts r2))
    cfgs

let test_skip_csv () = check_skip_differential (db_csv csv_corrupt) (db_csv csv_valid) csv_corrupt ()
let test_skip_json () =
  check_skip_differential (db_json json_corrupt) (db_json json_valid) json_corrupt ()

(* CSV error positions are exact: the garbled 'x' is the first byte of
   field 0, so the sample position equals the row start. *)
let test_csv_error_position () =
  let _, r =
    completed "serial"
      (guarded ~policy:Fault.Skip_row (List.hd cfgs) (db_csv csv_corrupt) agg_q)
  in
  match r.Fault.rp_samples with
  | s :: _ ->
    Alcotest.(check int) "pos = row 3 start" (line_start csv_corrupt 3) s.Fault.sm_pos
  | [] -> Alcotest.fail "no samples"

(* --- Null_fill: unreadable fields become Null; SUM ignores them --------- *)

let check_null_fill mk_corrupt mk_valid q () =
  let expected = sort_bag (Db.sql (mk_valid ()) q) in
  List.iter
    (fun ((name, _, _) as cfg) ->
      let v, r = completed name (guarded ~policy:Fault.Null_fill cfg mk_corrupt q) in
      Alcotest.check check_value (name ^ " value") expected (sort_bag v);
      Alcotest.(check int) (name ^ " nulled") n_picked r.Fault.rp_nulled;
      Alcotest.(check int) (name ^ " errors") n_picked r.Fault.rp_errors;
      Alcotest.(check int) (name ^ " skipped") 0 r.Fault.rp_skipped)
    cfgs

let test_null_fill_csv () =
  check_null_fill (db_csv csv_corrupt_price) (db_csv csv_valid)
    "SELECT SUM(price) AS s FROM items" ()

let test_null_fill_json () =
  check_null_fill (db_json json_corrupt) (db_json json_valid)
    "SELECT SUM(k) AS s FROM items" ()

(* --- Fail_fast (the default) keeps today's semantics --------------------- *)

let test_fail_fast_default () =
  (* clean input: guarded run is exactly the plain run plus an empty report *)
  let plain = Db.sql (db_csv csv_valid ()) agg_q in
  let db = db_csv csv_valid () in
  let v, r = completed "clean" (Executor.query (fun () -> Db.sql db agg_q)) in
  Alcotest.check check_value "clean value" plain v;
  Alcotest.(check int) "clean errors" 0 r.Fault.rp_errors;
  (* corrupt input: plain raises, guarded returns Failed with the same error *)
  (match Db.sql (db_csv csv_corrupt ()) agg_q with
  | _ -> Alcotest.fail "plain run over corrupt input should raise"
  | exception Perror.Parse_error _ -> ());
  let db = db_csv csv_corrupt () in
  match Executor.query (fun () -> Db.sql db agg_q) with
  | Db.Failed (_, Perror.Parse_error _) -> ()
  | _ -> Alcotest.fail "guarded Fail_fast should report Failed (Parse_error)"

(* --- front-end errors are part of the guarded query ------------------------ *)

let test_front_end_errors () =
  let db = db_csv csv_valid () in
  let parse = function Perror.Parse_error _ -> true | _ -> false in
  let plan = function Perror.Plan_error _ -> true | _ -> false in
  List.iter
    (fun domains ->
      List.iter
        (fun (what, q, expected) ->
          let name = Fmt.str "%s, domains %d" what domains in
          match Executor.query (fun () -> Db.sql ~domains db q) with
          | Db.Failed (_, e) when expected e -> ()
          | Db.Failed (_, e) -> Alcotest.failf "%s: wrong error %a" name Perror.pp_exn e
          | _ -> Alcotest.failf "%s: expected Failed" name)
        [ ("misspelled statement", "SELEKT COUNT(*) FROM items", parse);
          ("unknown table", "SELECT COUNT(*) FROM nope", plan);
          ("unbound ?", "SELECT COUNT(*) FROM items WHERE k < ?", plan) ])
    [ 1; 4 ]

(* --- error budget and deadline ------------------------------------------ *)

let test_error_budget () =
  let db = db_csv csv_corrupt () in
  (match Executor.query ~policy:Fault.Skip_row ~max_errors:3 (fun () -> Db.sql db agg_q) with
  | Db.Failed (r, Fault.Budget_exceeded n) ->
    Alcotest.(check bool) "budget count" true (n > 3);
    Alcotest.(check bool) "errors recorded" true (r.Fault.rp_errors > 3)
  | _ -> Alcotest.fail "expected Failed (Budget_exceeded)");
  (* a budget of n_picked absorbs the whole file *)
  let db = db_csv csv_corrupt () in
  match Executor.query ~policy:Fault.Skip_row ~max_errors:n_picked (fun () -> Db.sql db agg_q) with
  | Db.Completed (_, r) -> Alcotest.(check int) "at budget" n_picked r.Fault.rp_errors
  | _ -> Alcotest.fail "budget of n_picked should complete"

let test_deadline () =
  List.iter
    (fun ((name, _, _) as cfg) ->
      match guarded ~timeout_ms:0 cfg (db_csv csv_valid) agg_q with
      | Db.Timed_out _ -> ()
      | _ -> Alcotest.failf "%s: expected Timed_out under a 0ms deadline" name)
    [ List.hd cfgs; ("par4", (Db.Engine_compiled, 4), None) ]

(* --- cache quarantine ----------------------------------------------------- *)

let test_cache_quarantine () =
  let db = db_csv csv_corrupt () in
  let m = Db.cache_manager db in
  let _, r =
    completed "skip" (Executor.query ~policy:Fault.Skip_row (fun () -> Db.sql db agg_q))
  in
  Alcotest.(check int) "errors" n_picked r.Fault.rp_errors;
  let s = Manager.stats m in
  Alcotest.(check bool) "fills quarantined" true (s.Manager.quarantined > 0);
  Alcotest.(check int) "no field caches installed" 0 s.Manager.field_stores;
  Alcotest.(check int) "no select caches installed" 0 s.Manager.select_stores;
  (* a later clean query in the same session fills caches normally *)
  Db.register_csv db ~name:"clean" ~element:item_ty ~contents:csv_valid ();
  let q = "SELECT COUNT(*) AS c, SUM(price) AS s FROM clean WHERE k >= 0" in
  let v1 = Db.sql db q in
  let s1 = Manager.stats m in
  Alcotest.(check bool) "clean query fills" true (s1.Manager.field_stores > 0);
  let v2 = Db.sql db q in
  let s2 = Manager.stats m in
  Alcotest.(check bool) "re-run hits" true (s2.Manager.field_hits > s1.Manager.field_hits);
  Alcotest.check check_value "cached value identical" v1 v2

(* --- a query's counters carry its fault counts ---------------------------- *)

let test_counters () =
  List.iter
    (fun domains ->
      List.iter
        (fun batch ->
          let name = Fmt.str "d%d/b%d" domains batch in
          let db = db_csv csv_corrupt () in
          let _, r =
            completed name
              (Executor.query ~policy:Fault.Skip_row (fun () ->
                   Db.sql ~domains ~batch_size:batch db agg_q))
          in
          let s = r.Fault.rp_stats in
          Alcotest.(check int) (name ^ " errors_seen") n_picked s.Counters.errors_seen;
          Alcotest.(check int) (name ^ " rows_skipped") n_picked s.Counters.rows_skipped;
          Alcotest.(check int) (name ^ " fields_nulled") 0 s.Counters.fields_nulled)
        [ 0; 1024 ])
    [ 1; 2; 4 ]

(* --- CSV edge cases ------------------------------------------------------ *)

let two_ty = Ptype.Record [ ("a", Ptype.Int); ("b", Ptype.Int) ]

let db_two contents =
  let db = Db.create () in
  Db.register_csv db ~name:"t" ~element:two_ty ~contents ();
  db

let sum_b db = Db.sql db "SELECT SUM(b) AS s FROM t"

let test_csv_trailing_forms () =
  (* CRLF line endings, a final row without a trailing newline, and a UTF-8
     BOM on the header all decode to the same table *)
  let expected = sum_b (db_two "1,2\n3,4\n") in
  Alcotest.check check_value "crlf" expected (sum_b (db_two "1,2\r\n3,4\r\n"));
  Alcotest.check check_value "no trailing newline" expected (sum_b (db_two "1,2\n3,4"));
  let db = Db.create () in
  let ty = Db.register_csv_inferred db ~name:"t" ~contents:"\xEF\xBB\xBFa,b\n1,2\n3,4\n" () in
  (match ty with
  | Ptype.Record (("a", Ptype.Int) :: _) -> ()
  | t -> Alcotest.failf "BOM header mis-inferred: %a" Ptype.pp t);
  Alcotest.check check_value "bom header" expected (sum_b db)

let test_csv_ragged_rows () =
  let base = "1,2\n3,4\n5,6\n" in
  let extra = Faultgen.add_csv_field ~pick:(fun i -> i = 1) base in
  let missing = Faultgen.drop_csv_last_field ~pick:(fun i -> i = 1) base in
  (* surplus fields: plain reads of the declared columns are unaffected *)
  Alcotest.check check_value "extra tolerated" (sum_b (db_two base)) (sum_b (db_two extra));
  (* missing fields: plain reads raise *)
  (match sum_b (db_two missing) with
  | _ -> Alcotest.fail "short row should raise on plain read"
  | exception Perror.Parse_error _ -> ());
  (* both shapes are flagged, positioned and skippable under the policy *)
  List.iter
    (fun (what, contents, lo) ->
      let db = db_two contents in
      match
        Executor.query ~policy:Fault.Skip_row (fun () -> Db.sql db "SELECT SUM(b) AS s FROM t")
      with
      | Db.Completed (v, r) ->
        Alcotest.check check_value (what ^ " skip value")
          (sum_b (db_two "1,2\n5,6\n")) v;
        Alcotest.(check int) (what ^ " skipped") 1 r.Fault.rp_skipped;
        (match r.Fault.rp_samples with
        | s :: _ ->
          Alcotest.(check int) (what ^ " sample row") 1 s.Fault.sm_row;
          Alcotest.(check int) (what ^ " sample pos") lo s.Fault.sm_pos
        | [] -> Alcotest.fail (what ^ ": no samples"))
      | _ -> Alcotest.fail (what ^ ": expected Completed"))
    [ ("extra", extra, 4); ("missing", missing, 4) ]

(* --- graceful limits ------------------------------------------------------ *)

let test_json_path_limit () =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_char b '{';
  for i = 0 to 65600 do
    if i > 0 then Buffer.add_char b ',';
    Buffer.add_string b (Fmt.str "\"f%d\":1" i)
  done;
  Buffer.add_char b '}';
  let db = Db.create () in
  Db.register_json db ~name:"wide" ~element:(Ptype.Record [ ("f0", Ptype.Int) ])
    ~contents:(Buffer.contents b);
  match Db.sql db "SELECT COUNT(*) FROM wide" with
  | _ -> Alcotest.fail "65536-path JSON should abort"
  | exception Perror.Unsupported m ->
    let has sub =
      let n = String.length sub and h = String.length m in
      let rec go i = i + n <= h && (String.sub m i n = sub || go (i + 1)) in
      go 0
    in
    (* paths are interned in sorted order, so the named path is the 65537th
       lexicographically — what matters is that one is named at all *)
    if not (has "first overflowing path: \"f") then
      Alcotest.failf "missing offending path: %s" m;
    if not (has "dataset wide") then Alcotest.failf "missing source dataset: %s" m

let test_binjson_bad_tag () =
  let s = Binjson.encode (Json.Obj [ ("a", Json.Int 7) ]) in
  (match Binjson.decode (Faultgen.flip_byte ~at:0 s) with
  | _ -> Alcotest.fail "flipped root tag should raise"
  | exception Perror.Parse_error { what; pos; _ } ->
    Alcotest.(check string) "what" "binjson" what;
    Alcotest.(check int) "pos" 0 pos);
  match Binjson.find_field s 0 "a" with
  | None -> Alcotest.fail "field a not found"
  | Some off -> (
    match Binjson.read_int (Faultgen.flip_byte ~at:off s) off with
    | _ -> Alcotest.fail "flipped value tag should raise"
    | exception Perror.Parse_error { what; pos; _ } ->
      Alcotest.(check string) "inner what" "binjson" what;
      Alcotest.(check int) "inner pos" off pos)

let () =
  Alcotest.run "fault"
    [
      ( "policies",
        [
          Alcotest.test_case "skip differential (csv)" `Slow test_skip_csv;
          Alcotest.test_case "skip differential (json)" `Slow test_skip_json;
          Alcotest.test_case "csv error position" `Quick test_csv_error_position;
          Alcotest.test_case "null fill (csv)" `Slow test_null_fill_csv;
          Alcotest.test_case "null fill (json)" `Slow test_null_fill_json;
          Alcotest.test_case "fail fast default" `Quick test_fail_fast_default;
          Alcotest.test_case "front-end errors fail the query" `Quick test_front_end_errors;
        ] );
      ( "limits",
        [
          Alcotest.test_case "error budget" `Quick test_error_budget;
          Alcotest.test_case "deadline" `Quick test_deadline;
          Alcotest.test_case "json path limit" `Quick test_json_path_limit;
          Alcotest.test_case "binjson bad tag" `Quick test_binjson_bad_tag;
        ] );
      ( "integration",
        [
          Alcotest.test_case "cache quarantine" `Quick test_cache_quarantine;
          Alcotest.test_case "counters" `Slow test_counters;
          Alcotest.test_case "csv trailing forms" `Quick test_csv_trailing_forms;
          Alcotest.test_case "csv ragged rows" `Quick test_csv_ragged_rows;
        ] );
    ]
