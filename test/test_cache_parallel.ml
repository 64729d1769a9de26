(* Differential tests for segmented parallel cache materialization: a cold
   (cache-filling) run on the morsel spine must leave cache columns
   bit-identical to a serial fill — at every domain count, batch size and
   format — and the install-on-commit quarantine of DESIGN.md section 10
   must survive the move: an aborted run releases all segments, a Skip_row
   run that recorded errors never installs its compacted fill. *)

open Proteus_model
open Proteus_storage
open Proteus_catalog
open Proteus_plugin
open Proteus_engine
module Plan = Proteus_algebra.Plan
module Manager = Proteus_cache.Manager

let check_value = Alcotest.testable Value.pp Value.equal

(* --- one relational dataset in all four formats; 800 rows -> 16-row
   morsels, so a parallel cold fill commits many segments ----------------- *)

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

let item_schema = Schema.of_type item_type

let items =
  (* quarter-step prices survive the CSV/JSON decimal round-trip and sum
     exactly in doubles, so aggregates agree bit-for-bit across engines *)
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
  Memory.register_blob mem ~name:"groups.json" (to_json groups);
  Catalog.register cat
    (Dataset.make ~name:"groups" ~format:Dataset.Json
       ~location:(Dataset.Blob "groups.json") ~element:groups_type);
  cat

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

let sort_bag v =
  match v with
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

let item_datasets = [ "items_csv"; "items_json"; "items_row"; "items_col" ]
let cacheable_paths = [ "k"; "grp"; "price" ]

(* one scan per format touching every cacheable path, plus a join so a
   packed (build-side) cache materializes alongside the field fills *)
let workload =
  List.map
    (fun ds ->
      Plan.reduce
        [
          Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
          Plan.agg ~name:"sk" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "k"));
          Plan.agg ~name:"sg" (Monoid.Primitive Monoid.Sum)
            Expr.(Field (var "x", "grp"));
          Plan.agg ~name:"sp" (Monoid.Primitive Monoid.Sum)
            Expr.(Field (var "x", "price"));
        ]
        (Plan.scan ~dataset:ds ~binding:"x" ()))
    item_datasets
  @ [
      Plan.reduce
        [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
        (Plan.join
           ~pred:Expr.(Field (var "x", "grp") ==. Field (var "g", "gid"))
           (Plan.scan ~dataset:"items_csv" ~binding:"x" ())
           (Plan.scan ~dataset:"groups" ~binding:"g" ()));
    ]

(* Run the workload cold on a fresh session, returning (results, cache
   snapshot, stats). The cache snapshot holds every (dataset, path) field
   column present after the run. *)
let cold_run ?domains ~engine ~batch_size () =
  let mgr, reg = make_session () in
  let results =
    List.map
      (fun plan -> sort_bag (Executor.run ~batch_size ?domains reg ~engine plan))
      workload
  in
  let iface = Manager.iface mgr in
  let columns =
    List.concat_map
      (fun dataset ->
        List.filter_map
          (fun path ->
            match iface.Cache_iface.lookup_field ~dataset ~path with
            | Some col -> Some ((dataset, path), col)
            | None -> None)
          cacheable_paths)
      item_datasets
  in
  (mgr, reg, results, columns, Manager.stats mgr)

let baseline = lazy (cold_run ~engine:Executor.Engine_compiled ~batch_size:0 ())

(* --- cold-parallel == cold-serial == warm, for every cacheable column ---- *)

let test_cold_matrix () =
  let _, _, base_results, base_columns, base_stats = Lazy.force baseline in
  Alcotest.(check bool) "baseline populated caches" true
    (base_stats.Manager.field_stores > 0);
  (* csv + json elect k/grp/price each; binary formats never fill *)
  Alcotest.(check int) "baseline cached columns" 6 (List.length base_columns);
  List.iter
    (fun (domains, batch_size) ->
      let name = Fmt.str "domains=%d batch=%d" domains batch_size in
      let _, reg, results, columns, stats =
        cold_run ~domains ~engine:Executor.Engine_compiled ~batch_size ()
      in
      List.iteri
        (fun i (expected, got) ->
          Alcotest.check check_value (Fmt.str "%s query %d" name i) expected got)
        (List.combine base_results results);
      (* the cold fill must install exactly the serial columns, bit for bit *)
      Alcotest.(check int)
        (name ^ " same cached columns")
        (List.length base_columns) (List.length columns);
      List.iter
        (fun ((dataset, path), base_col) ->
          match List.assoc_opt (dataset, path) columns with
          | None -> Alcotest.failf "%s: %s.%s not cached" name dataset path
          | Some col ->
            Alcotest.check column_testable
              (Fmt.str "%s: %s.%s cache column" name dataset path)
              base_col col)
        base_columns;
      Alcotest.(check int)
        (name ^ " field stores")
        base_stats.Manager.field_stores stats.Manager.field_stores;
      Alcotest.(check int)
        (name ^ " fill commits")
        base_stats.Manager.fill_commits stats.Manager.fill_commits;
      Alcotest.(check int)
        (name ^ " fill rows")
        base_stats.Manager.fill_rows stats.Manager.fill_rows;
      Alcotest.(check int)
        (name ^ " nothing quarantined")
        0 stats.Manager.quarantined;
      Alcotest.(check bool)
        (name ^ " at least one segment per commit")
        true
        (stats.Manager.fill_segments >= stats.Manager.fill_commits);
      (* 800 rows -> 16-row morsels: a multi-domain tuple-lane fill commits
         many per-morsel segments, not one whole-dataset buffer *)
      if domains > 1 && batch_size = 0 then
        Alcotest.(check bool)
          (name ^ " fills are segmented")
          true
          (stats.Manager.fill_segments > stats.Manager.fill_commits);
      (* warm run: identical results, no further stores or commits *)
      List.iteri
        (fun i plan ->
          Alcotest.check check_value
            (Fmt.str "%s warm query %d" name i)
            (List.nth base_results i)
            (sort_bag
               (Executor.run ~batch_size reg
                  ~domains ~engine:Executor.Engine_compiled plan)))
        workload)
    [ (1, 0); (1, 256); (1, 1024); (2, 0); (2, 256); (2, 1024); (4, 0); (4, 256);
      (4, 1024) ]

let test_warm_stores_nothing () =
  let mgr, reg = make_session () in
  let run () =
    List.iter
      (fun plan ->
        ignore
          (Executor.run ~batch_size:256 reg ~domains:4 ~engine:Executor.Engine_compiled plan))
      workload
  in
  run ();
  let cold = Manager.stats mgr in
  run ();
  let warm = Manager.stats mgr in
  Alcotest.(check int) "no new stores" cold.Manager.field_stores
    warm.Manager.field_stores;
  Alcotest.(check int) "no new fill commits" cold.Manager.fill_commits
    warm.Manager.fill_commits;
  Alcotest.(check int) "no new fill rows" cold.Manager.fill_rows warm.Manager.fill_rows

(* --- the morsel counter ticks on parallel fleet runs ---------------------- *)

let test_morsel_counter () =
  let _, reg = make_session () in
  let _, s =
    Executor.measure (fun () ->
        Executor.run reg ~domains:4 ~engine:Executor.Engine_compiled (List.hd workload))
  in
  Alcotest.(check bool) "morsels dispensed" true (s.Counters.morsels > 0)

(* --- fault interaction: segments never install from a dirty run ----------- *)

let faulty_paths = cacheable_paths

let assert_not_cached name mgr dataset =
  let iface = Manager.iface mgr in
  List.iter
    (fun path ->
      match iface.Cache_iface.lookup_field ~dataset ~path with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: %s.%s installed from a dirty run" name dataset path)
    faulty_paths

let scan_plan ds =
  Plan.reduce
    [
      Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"sk" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "k"));
      Plan.agg ~name:"sg" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "grp"));
      Plan.agg ~name:"sp" (Monoid.Primitive Monoid.Sum) Expr.(Field (var "x", "price"));
    ]
    (Plan.scan ~dataset:ds ~binding:"x" ())

let test_fail_fast_releases_segments () =
  let mgr, reg = make_session () in
  let _seeks = Faultgen.inject reg ~dataset:"items_csv" ~fail_at:(fun r -> r = 400) in
  (match
     Executor.run_guarded reg ~domains:4 ~engine:Executor.Engine_compiled
       (scan_plan "items_csv")
   with
  | Executor.Failed _ -> ()
  | _ -> Alcotest.fail "injected Fail_fast run did not fail");
  assert_not_cached "fail-fast abort" mgr "items_csv";
  let stats = Manager.stats mgr in
  Alcotest.(check int) "no commits" 0 stats.Manager.fill_commits;
  Alcotest.(check bool) "segments quarantined" true (stats.Manager.quarantined > 0)

let test_skip_row_quarantines_compacted_fill () =
  (* a Skip_row run completes over the holes, but its compacted fill is not
     OID-aligned: commit must quarantine it, never install it *)
  List.iter
    (fun (domains, batch_size) ->
      let name = Fmt.str "skip domains=%d batch=%d" domains batch_size in
      let mgr, reg = make_session () in
      let _ = Faultgen.inject reg ~dataset:"items_csv" ~fail_at:(fun r -> r mod 97 = 3) in
      (match
         Executor.run_guarded ~batch_size ~policy:Fault.Skip_row reg
           ~domains ~engine:Executor.Engine_compiled (scan_plan "items_csv")
       with
      | Executor.Completed (_, report) ->
        Alcotest.(check bool) (name ^ " rows skipped") true (report.Fault.rp_skipped > 0)
      | _ -> Alcotest.fail (name ^ ": Skip_row run did not complete"));
      assert_not_cached name mgr "items_csv";
      let stats = Manager.stats mgr in
      Alcotest.(check int) (name ^ " no commits") 0 stats.Manager.fill_commits;
      Alcotest.(check bool) (name ^ " quarantined") true (stats.Manager.quarantined > 0))
    [ (1, 0); (4, 0); (4, 256) ]

let test_skip_row_clean_installs () =
  (* Skip_row with nothing to skip is a clean run: the batch-lane fill
     commits and the columns match the serial Fail_fast baseline *)
  let _, _, _, base_columns, _ = Lazy.force baseline in
  let mgr, reg = make_session () in
  (match
     Executor.run_guarded ~batch_size:256 ~policy:Fault.Skip_row reg
       ~domains:4 ~engine:Executor.Engine_compiled (scan_plan "items_csv")
   with
  | Executor.Completed (_, report) ->
    Alcotest.(check int) "no errors" 0 report.Fault.rp_errors
  | _ -> Alcotest.fail "clean Skip_row run did not complete");
  let iface = Manager.iface mgr in
  List.iter
    (fun path ->
      match
        ( iface.Cache_iface.lookup_field ~dataset:"items_csv" ~path,
          List.assoc_opt ("items_csv", path) base_columns )
      with
      | Some col, Some base -> Alcotest.check column_testable ("items_csv." ^ path) base col
      | None, _ -> Alcotest.failf "items_csv.%s not cached by clean Skip_row run" path
      | Some _, None -> Alcotest.failf "items_csv.%s unexpectedly cached" path)
    cacheable_paths;
  let stats = Manager.stats mgr in
  Alcotest.(check int) "nothing quarantined" 0 stats.Manager.quarantined;
  Alcotest.(check bool) "fill committed" true (stats.Manager.fill_commits > 0)

(* Install-on-commit looks at the filling query's own errors: a Skip_row
   error another query records on another domain, under its own context,
   while B's fill session is armed, must not quarantine B's clean fill. *)
let test_cross_session_commit () =
  let mgr, reg = make_session () in
  let dataset = "items_json" in
  let (), _ =
    Executor.measure (fun () ->
        let sc = Registry.scan reg ~dataset ~required:cacheable_paths in
        let session =
          match sc.Registry.sc_fill with
          | Some s -> s
          | None -> Alcotest.fail "the scan elected no fill"
        in
        Registry.session_arm session;
        let view = Registry.scan_view ~session reg ~dataset ~required:cacheable_paths in
        view.Registry.sc_range ~lo:0 ~hi:view.Registry.sc_count ~on_tuple:ignore;
        Domain.join
          (Domain.spawn (fun () ->
               let ctx = Fault.install ~policy:Fault.Skip_row () in
               Fault.record_skip ~source:"items_csv" ~row:3
                 (Perror.Parse_error { what = "k"; pos = -1; msg = "injected" });
               let r = Fault.finish ctx in
               Alcotest.(check int) "the other query saw its error" 1 r.Fault.rp_errors));
        Registry.session_commit session)
  in
  let iface = Manager.iface mgr in
  List.iter
    (fun path ->
      if iface.Cache_iface.lookup_field ~dataset ~path = None then
        Alcotest.failf "%s.%s quarantined by another query's error" dataset path)
    cacheable_paths;
  Alcotest.(check int) "nothing quarantined" 0 (Manager.stats mgr).Manager.quarantined

let () =
  Alcotest.run "cache_parallel"
    [
      ( "cold",
        [
          Alcotest.test_case "parallel == serial == warm, all formats" `Quick
            test_cold_matrix;
          Alcotest.test_case "warm runs store nothing" `Quick test_warm_stores_nothing;
          Alcotest.test_case "morsel counter" `Quick test_morsel_counter;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fail-fast abort releases segments" `Quick
            test_fail_fast_releases_segments;
          Alcotest.test_case "skip-row quarantines compacted fill" `Quick
            test_skip_row_quarantines_compacted_fill;
          Alcotest.test_case "clean skip-row installs" `Quick
            test_skip_row_clean_installs;
          Alcotest.test_case "another query's error never quarantines" `Quick
            test_cross_session_commit;
        ] );
    ]
