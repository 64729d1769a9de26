(* Sharded scatter-gather execution (DESIGN.md section 14).

   A shard set must be bit-identical to a single file holding the same rows
   — at every domain count and batch size, cold and warm, in every format —
   because the concatenated view enumerates rows in member order under the
   unchanged morsel grid. On top of that, shards whose zone-map/Bloom
   digests prove a pushed-down conjunct or join-key set empty are pruned
   before dispatch (visible in [Counters.shards_pruned], never in results),
   and a member whose index build fails is retried once and then handled by
   the active error policy. *)

open Proteus_model
module Plan = Proteus_algebra.Plan
module Db = Proteus.Db
module Registry = Proteus_plugin.Registry
module Counters = Proteus_engine.Counters
module Executor = Proteus_engine.Executor

let check_value = Alcotest.testable Value.pp Value.equal

(* --- data ------------------------------------------------------------------ *)

(* 800 rows; quarter-step floats survive the CSV/JSON decimal round-trip
   bit-exactly, so the same oracle serves all four formats *)
let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

let items =
  List.init 800 (fun i ->
      Value.record
        [ ("k", Value.Int i); ("grp", Value.Int (i mod 7));
          ("price", Value.Float (float_of_int ((i * 37) mod 1000) /. 4.0));
          ("name", Value.String (Fmt.str "n%d" (i mod 13))) ])

let to_csv records =
  Proteus_format.Csv.of_records Proteus_format.Csv.default_config
    (Schema.of_type item_type) records

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)
  ^ "\n"

(* contiguous n-way split, order preserved *)
let chunk n l =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec take k acc l =
    if k = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: r -> take (k - 1) (x :: acc) r
  in
  let rec go i l =
    if i = n then []
    else
      let sz = base + if i < extra then 1 else 0 in
      let part, rest = take sz [] l in
      part :: go (i + 1) rest
  in
  go 0 l

let make_db ?(shards = 4) () =
  let db = Db.create () in
  let parts = chunk shards items in
  Db.register_csv db ~name:"single_csv" ~element:item_type ~contents:(to_csv items) ();
  Db.register_sharded_csv db ~name:"sh_csv" ~element:item_type
    ~shards:(List.map to_csv parts) ();
  Db.register_json db ~name:"single_json" ~element:item_type ~contents:(to_json items);
  Db.register_sharded_json db ~name:"sh_json" ~element:item_type
    ~shards:(List.map to_json parts);
  Db.register_rows db ~name:"single_row" ~element:item_type items;
  Db.register_sharded_rows db ~name:"sh_row" ~element:item_type ~shards items;
  Db.register_columns_of db ~name:"single_col" ~element:item_type items;
  List.iteri
    (fun i part ->
      Db.register_columns_of db ~name:(Fmt.str "sh_col__s%d" i) ~element:item_type part)
    parts;
  Db.register_shard_set db ~name:"sh_col"
    ~members:(List.init shards (fun i -> Fmt.str "sh_col__s%d" i));
  db

let formats =
  [ ("csv", "single_csv", "sh_csv"); ("json", "single_json", "sh_json");
    ("row", "single_row", "sh_row"); ("col", "single_col", "sh_col") ]

(* --- plans ----------------------------------------------------------------- *)

let fld x n = Expr.Field (Expr.var x, n)
let count = Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1)

let agg_plan ds =
  Plan.reduce
    ~pred:Expr.(fld "x" "k" <. int 650)
    [ count;
      Plan.agg ~name:"sp" (Monoid.Primitive Monoid.Sum) (fld "x" "price");
      Plan.agg ~name:"sk" (Monoid.Primitive Monoid.Sum) (fld "x" "k");
      Plan.agg ~name:"mx" (Monoid.Primitive Monoid.Max) (fld "x" "price");
      Plan.agg ~name:"mn" (Monoid.Primitive Monoid.Min) (fld "x" "k") ]
    (Plan.scan ~dataset:ds ~binding:"x" ())

let group_plan ds =
  Plan.nest
    ~pred:Expr.(fld "x" "k" <. int 700)
    ~keys:[ ("grp", fld "x" "grp") ]
    ~aggs:
      [ count; Plan.agg ~name:"sp" (Monoid.Primitive Monoid.Sum) (fld "x" "price") ]
    ~binding:"g"
    (Plan.scan ~dataset:ds ~binding:"x" ())

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

(* --- bit-identity: sharded == single file, every lane ---------------------- *)

(* Two passes per configuration: the first runs cold (and fills caches),
   the second reads cached columns — both must agree with the single-file
   run of the same configuration. *)
let test_bit_identity () =
  let db = make_db () in
  List.iter
    (fun (fmt, single, sh) ->
      List.iter
        (fun domains ->
          List.iter
            (fun batch_size ->
              let tag p = Fmt.str "%s d=%d b=%d %s" fmt domains batch_size p in
              for pass = 1 to 2 do
                let one = Db.run_plan ~domains ~batch_size db (agg_plan single) in
                let many = Db.run_plan ~domains ~batch_size db (agg_plan sh) in
                Alcotest.check check_value
                  (tag (Fmt.str "agg pass %d" pass))
                  one many;
                let og = Db.run_plan ~domains ~batch_size db (group_plan single) in
                let sg = Db.run_plan ~domains ~batch_size db (group_plan sh) in
                Alcotest.check check_value
                  (tag (Fmt.str "group pass %d" pass))
                  (sort_bag og) (sort_bag sg)
              done)
            [ 0; 256; 1024 ])
        [ 1; 2; 4 ])
    formats

(* domain-count determinism of the sharded run itself: 2 == 4 domains,
   bit-for-bit, on a float sum (exposes merge-order changes) *)
let test_domain_determinism () =
  let db = make_db ~shards:5 () in
  let p2 = Db.run_plan ~domains:2 db (agg_plan "sh_csv") in
  let p4 = Db.run_plan ~domains:4 db (agg_plan "sh_csv") in
  Alcotest.check check_value "2 == 4 domains" p2 p4

(* --- pruning --------------------------------------------------------------- *)

let count_plan ?(pred = Expr.bool true) ds =
  Plan.reduce ~pred [ count ] (Plan.scan ~dataset:ds ~binding:"x" ())

let pruned_run ?domains ?batch_size db plan =
  let v, s = Executor.measure (fun () -> Db.run_plan ?domains ?batch_size db plan) in
  (v, s.Counters.shards_pruned)

(* clustered keys over 8 shards: a selective range predicate must prune the
   shards whose [min,max] cannot overlap it *)
let test_prune_clustered () =
  let db = Db.create () in
  Db.set_caching db false;
  Db.register_rows db ~name:"single" ~element:item_type items;
  Db.register_sharded_rows db ~name:"sh8" ~element:item_type ~shards:8 items;
  let pred = Expr.(fld "x" "k" <. int 100) in
  let expected = Db.run_plan db (count_plan ~pred "single") in
  let got, pruned = pruned_run db (count_plan ~pred "sh8") in
  Alcotest.check check_value "clustered result" expected got;
  Alcotest.(check int) "clustered shards pruned" 7 pruned;
  (* equality on a key present in exactly one shard: range + Bloom *)
  let pred = Expr.(fld "x" "k" ==. int 400) in
  let expected = Db.run_plan db (count_plan ~pred "single") in
  let got, pruned = pruned_run db (count_plan ~pred "sh8") in
  Alcotest.check check_value "point result" expected got;
  Alcotest.(check int) "point shards pruned" 7 pruned;
  (* parallel lane prunes the same shards *)
  let got, pruned = pruned_run ~domains:3 db (count_plan ~pred "sh8") in
  Alcotest.check check_value "point result (parallel)" expected got;
  Alcotest.(check int) "point shards pruned (parallel)" 7 pruned

(* scrambled keys: every shard spans the whole domain, so nothing is
   provably empty — pruning must stand down, results stay equal *)
let test_prune_scrambled () =
  let db = Db.create () in
  Db.set_caching db false;
  let scrambled =
    (* deterministic scatter: stride coprime with 800 *)
    List.init 800 (fun i -> List.nth items (i * 389 mod 800))
  in
  Db.register_rows db ~name:"single" ~element:item_type scrambled;
  Db.register_sharded_rows db ~name:"sh8" ~element:item_type ~shards:8 scrambled;
  let pred = Expr.(fld "x" "k" <. int 100) in
  let expected = Db.run_plan db (count_plan ~pred "single") in
  let got, pruned = pruned_run db (count_plan ~pred "sh8") in
  Alcotest.check check_value "scrambled result" expected got;
  Alcotest.(check int) "scrambled shards pruned" 0 pruned

(* an all-null key shard satisfies no comparison (Expr.cmp: Null -> false):
   its digest has no non-null values, so every test prunes it *)
let test_prune_all_null () =
  let nullable_type =
    Ptype.Record [ ("k", Ptype.Option Ptype.Int); ("v", Ptype.Int) ]
  in
  let mk k v =
    Value.record [ ("k", k); ("v", Value.Int v) ]
  in
  let good = List.init 100 (fun i -> mk (Value.Int i) i) in
  let nulls = List.init 50 (fun i -> mk Value.Null (1000 + i)) in
  let all = good @ nulls in
  let db = Db.create () in
  Db.set_caching db false;
  Db.register_rows db ~name:"single" ~element:nullable_type all;
  Db.register_rows db ~name:"m0" ~element:nullable_type good;
  Db.register_rows db ~name:"m1" ~element:nullable_type nulls;
  Db.register_shard_set db ~name:"sh2" ~members:[ "m0"; "m1" ];
  let pred = Expr.(fld "x" "k" <. int 1000) in
  let expected = Db.run_plan db (count_plan ~pred "single") in
  let got, pruned = pruned_run db (count_plan ~pred "sh2") in
  Alcotest.check check_value "all-null result" expected got;
  Alcotest.(check int) "all-null shard pruned" 1 pruned

(* join-key pruning: the build side's key set bounds which probe shards can
   produce matches (parallel lane — join arms after builds publish keys) *)
let test_prune_join_keys () =
  let db = Db.create () in
  Db.set_caching db false;
  Db.register_rows db ~name:"single" ~element:item_type items;
  Db.register_sharded_rows db ~name:"sh8" ~element:item_type ~shards:8 items;
  let gtype = Ptype.Record [ ("gid", Ptype.Int); ("w", Ptype.Int) ] in
  let gs =
    List.init 10 (fun i ->
        Value.record [ ("gid", Value.Int (110 + i)); ("w", Value.Int i) ])
  in
  Db.register_rows db ~name:"build" ~element:gtype gs;
  let join ds =
    Plan.reduce [ count ]
      (Plan.join
         ~pred:Expr.(fld "x" "k" ==. fld "g" "gid")
         (Plan.scan ~dataset:ds ~binding:"x" ())
         (Plan.scan ~dataset:"build" ~binding:"g" ()))
  in
  let expected = Db.run_plan ~domains:2 db (join "single") in
  let got, s = Executor.measure (fun () -> Db.run_plan ~domains:2 db (join "sh8")) in
  let pruned = s.Counters.shards_pruned in
  Alcotest.check check_value "join result" expected got;
  (* build keys 110..119 live in shard 1 of 8 (rows 100..199) *)
  Alcotest.(check int) "join shards pruned" 7 pruned

(* each [(what, pred, want)]: the count over [sharded] equals the one over
   "single", with [want] shards pruned *)
let check_prunes db ~sharded =
  List.iter (fun (what, pred, want) ->
      let expected = Db.run_plan db (count_plan ~pred "single") in
      let got, pruned = pruned_run db (count_plan ~pred sharded) in
      Alcotest.check check_value (what ^ " result") expected got;
      Alcotest.(check int) (what ^ " shards pruned") want pruned)

(* a string key clustered over 8 shards: a digest's zone map orders
   strings exactly, so a string range prunes like an int range *)
let test_prune_string_range () =
  let db = Db.create () in
  Db.set_caching db false;
  let rows =
    List.init 800 (fun i ->
        Value.record [ ("k", Value.Int i); ("name", Value.String (Fmt.str "s%05d" i)) ])
  in
  let ty = Ptype.Record [ ("k", Ptype.Int); ("name", Ptype.String) ] in
  Db.register_rows db ~name:"single" ~element:ty rows;
  Db.register_sharded_rows db ~name:"sh8" ~element:ty ~shards:8 rows;
  check_prunes db ~sharded:"sh8"
    [ ("name < c", Expr.(fld "x" "name" <. str "s00100"), 7);
      ("c > name", Expr.(str "s00700" >. fld "x" "name"), 1);
      ("name = c", Expr.(fld "x" "name" ==. str "s00450"), 7) ]

(* past 2^53 distinct ints share one float image, but a digest keeps int
   bounds exactly: [k < 2^53 + 1] refutes a shard holding only 2^53 + 1 *)
let test_prune_wide_ints () =
  let big = (1 lsl 53) + 1 in
  let ty = Ptype.Record [ ("k", Ptype.Int) ] in
  let row k = Value.record [ ("k", Value.Int k) ] in
  let db = Db.create () in
  Db.set_caching db false;
  Db.register_rows db ~name:"m0" ~element:ty (List.init 100 row);
  Db.register_rows db ~name:"m1" ~element:ty (List.init 50 (fun _ -> row big));
  Db.register_rows db ~name:"single" ~element:ty (List.init 100 row @ List.init 50 (fun _ -> row big));
  Db.register_shard_set db ~name:"sh2" ~members:[ "m0"; "m1" ];
  check_prunes db ~sharded:"sh2" [ ("k < 2^53 + 1", Expr.(fld "x" "k" <. int big), 1) ]

(* a numeric constant against a string column (and a string against an
   int column) orders by kind under [Expr.cmp]: every number sorts below
   every string, so a zone map decides the comparison from the operator —
   [name < 5] and both equalities hold nowhere, [k < 'a'] everywhere.
   Results match the single file either way. *)
let test_prune_mixed_kinds () =
  let db = Db.create () in
  Db.set_caching db false;
  Db.register_rows db ~name:"single" ~element:item_type items;
  Db.register_sharded_rows db ~name:"sh8" ~element:item_type ~shards:8 items;
  check_prunes db ~sharded:"sh8"
    [ ("name < 5", Expr.(fld "x" "name" <. int 5), 8);
      ("k < 'a'", Expr.(fld "x" "k" <. str "a"), 0);
      ("name = 5", Expr.(fld "x" "name" ==. int 5), 8);
      ("k = 'a'", Expr.(fld "x" "k" ==. str "a"), 8) ]

(* --- empty shards ---------------------------------------------------------- *)

let test_empty_shards () =
  let db = make_db () in
  let parts = chunk 3 items in
  let shards =
    match List.map to_csv parts with
    | [ a; b; c ] -> [ ""; a; ""; b; c; "" ]
    | _ -> assert false
  in
  Db.register_sharded_csv db ~name:"sh_holes" ~element:item_type ~shards ();
  List.iter
    (fun domains ->
      let one = Db.run_plan ~domains db (group_plan "single_csv") in
      let many = Db.run_plan ~domains db (group_plan "sh_holes") in
      Alcotest.check check_value
        (Fmt.str "empty shards d=%d" domains)
        (sort_bag one) (sort_bag many))
    [ 1; 4 ]

(* --- failed shards --------------------------------------------------------- *)

let small_type = Ptype.Record [ ("k", Ptype.Int) ]

let small_json lo hi =
  String.concat "" (List.init (hi - lo) (fun i -> Fmt.str "{\"k\": %d}\n" (lo + i)))

let make_bad_db () =
  let db = Db.create () in
  Db.register_json db ~name:"m0" ~element:small_type ~contents:(small_json 0 40);
  (* truncated object: the structural index build fails recoverably *)
  Db.register_json db ~name:"m1" ~element:small_type ~contents:"{\"k\": 40";
  Db.register_json db ~name:"m2" ~element:small_type ~contents:(small_json 50 90);
  Db.register_shard_set db ~name:"shbad" ~members:[ "m0"; "m1"; "m2" ];
  db

let completed = function
  | Db.Completed (v, r) -> (v, r)
  | Db.Failed (_, e) -> Alcotest.failf "unexpected failure: %a" Perror.pp_exn e
  | Db.Timed_out _ -> Alcotest.fail "unexpected timeout"
  | Db.Cancelled _ -> Alcotest.fail "unexpected cancel"

let test_failed_shard_fail_fast () =
  let db = make_bad_db () in
  match Executor.query ~policy:Fault.Fail_fast (fun () -> Db.run_plan db (count_plan "shbad")) with
  | Db.Failed (_, Perror.Parse_error _) -> ()
  | Db.Failed (_, e) -> Alcotest.failf "wrong error: %a" Perror.pp_exn e
  | _ -> Alcotest.fail "fail-fast over a broken shard must fail"

let test_failed_shard_skip () =
  let db = make_bad_db () in
  let v, report =
    completed (Executor.query ~policy:Fault.Skip_row (fun () -> Db.run_plan db (count_plan "shbad")))
  in
  (* the broken member degrades to an empty shard; the healthy ones scan *)
  Alcotest.check check_value "skip count" (Value.Int 80) v;
  Alcotest.(check bool) "skip recorded" true (report.Fault.rp_skipped >= 1)

let test_failed_shard_heal () =
  let db = make_bad_db () in
  (match Executor.query ~policy:Fault.Fail_fast (fun () -> Db.run_plan db (count_plan "shbad")) with
  | Db.Failed _ -> ()
  | _ -> Alcotest.fail "broken shard should fail first");
  (* re-registering the member invalidates the parent (failures are never
     memoized), so the same query now sees all 90 rows *)
  Db.register_json db ~name:"m1" ~element:small_type ~contents:(small_json 40 50);
  let v = Db.run_plan db (count_plan "shbad") in
  Alcotest.check check_value "healed count" (Value.Int 90) v

(* a member whose build fails ONCE is retried within the same query: the
   wrapper fails on its first parent-build invocation, the retry takes the
   genuine factory, and the query completes with zero skips *)
let test_failed_shard_retry () =
  let db = Db.create () in
  Db.register_json db ~name:"m0" ~element:small_type ~contents:(small_json 0 40);
  Db.register_json db ~name:"m2" ~element:small_type ~contents:(small_json 50 90);
  Db.register_shard_set db ~name:"shflaky" ~members:[ "m0"; "m2" ];
  let reg = Db.registry db in
  let genuine = Registry.factory reg "m0" in
  let calls = ref 0 in
  (* install_factory invokes once eagerly (calls=1); the parent's first
     build is the second call and fails; the retry after [invalidate]
     drops this wrapper and rebuilds genuinely *)
  Registry.install_factory reg "m0" (fun () ->
      incr calls;
      if !calls = 2 then
        raise (Perror.Parse_error { what = "json:m0"; pos = 0; msg = "flaky" })
      else genuine ());
  let v, report =
    completed (Executor.query ~policy:Fault.Fail_fast (fun () -> Db.run_plan db (count_plan "shflaky")))
  in
  Alcotest.check check_value "retried count" (Value.Int 80) v;
  Alcotest.(check int) "wrapper called twice" 2 !calls;
  Alcotest.(check int) "no skips" 0 report.Fault.rp_skipped

(* --- layout/API surface ---------------------------------------------------- *)

let test_shard_api () =
  let db = make_db ~shards:4 () in
  let reg = Db.registry db in
  (match Registry.shards reg "sh_csv" with
  | None -> Alcotest.fail "sh_csv should expose a layout"
  | Some layout ->
    Alcotest.(check int) "4 shards" 4 (Array.length layout);
    Alcotest.(check int) "total rows" 800
      (Array.fold_left (fun a s -> a + s.Registry.sh_rows) 0 layout);
    Alcotest.(check int) "offsets contiguous" 600 layout.(3).Registry.sh_offset);
  Alcotest.(check bool) "plain dataset has no layout" true
    (Registry.shards reg "single_csv" = None);
  Alcotest.(check bool) "parents" true
    (Registry.shard_parents reg "sh_csv__s1" = [ "sh_csv" ]);
  Db.add_shard db ~name:"sh_csv" ~member:"sh_csv__s0";
  (match Registry.shards reg "sh_csv" with
  | Some layout ->
    Alcotest.(check int) "5 shards after add" 5 (Array.length layout);
    Alcotest.(check int) "appended rows" 1000
      (Array.fold_left (fun a s -> a + s.Registry.sh_rows) 0 layout)
  | None -> Alcotest.fail "layout lost after add_shard");
  (* the duplicated first shard really scans twice *)
  let v = Db.run_plan db (count_plan "sh_csv") in
  Alcotest.check check_value "dup count" (Value.Int 1000) v

let () =
  Alcotest.run "shards"
    [
      ( "identity",
        [
          Alcotest.test_case "sharded == single, all formats/domains/batches"
            `Slow test_bit_identity;
          Alcotest.test_case "domain determinism" `Quick test_domain_determinism;
          Alcotest.test_case "empty shards" `Quick test_empty_shards;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "clustered keys prune" `Quick test_prune_clustered;
          Alcotest.test_case "scrambled keys do not prune" `Quick test_prune_scrambled;
          Alcotest.test_case "all-null key shard prunes" `Quick test_prune_all_null;
          Alcotest.test_case "join-key pruning" `Quick test_prune_join_keys;
          Alcotest.test_case "string range prunes" `Quick test_prune_string_range;
          Alcotest.test_case "ints past 2^53 prune exactly" `Quick test_prune_wide_ints;
          Alcotest.test_case "mixed-kind comparisons" `Quick test_prune_mixed_kinds;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fail-fast propagates" `Quick test_failed_shard_fail_fast;
          Alcotest.test_case "skip degrades to empty shard" `Quick test_failed_shard_skip;
          Alcotest.test_case "reregistration heals" `Quick test_failed_shard_heal;
          Alcotest.test_case "transient build failure retries" `Quick
            test_failed_shard_retry;
        ] );
      ("api", [ Alcotest.test_case "layout and add_shard" `Quick test_shard_api ]);
    ]
