(* Prepare-once/run-many: parameterized engines, plan-shape fingerprints,
   the compiled-engine cache, the session scheduler and the TCP server.

   The load-bearing differential: a prepared parameterized engine re-bound
   to new constants must be bit-identical to a fresh compile of the same
   plan with those constants inlined — per format, per domain count, per
   batch size, and across zone-map promotion (skip conjuncts re-arm from
   the bound values on every run). *)

open Proteus_model
module Plan = Proteus_algebra.Plan
module Analysis = Proteus_algebra.Analysis
module Fingerprint = Proteus_algebra.Fingerprint
module Compiled = Proteus_engine.Compiled
module Executor = Proteus_engine.Executor
module Counters = Proteus_engine.Counters
module Engine_cache = Proteus_server.Engine_cache
module Scheduler = Proteus_server.Scheduler
module Server = Proteus_server.Server
module Db = Proteus.Db

let check_value = Alcotest.testable Value.pp Value.equal

(* --- one relational dataset in all four formats ------------------------- *)

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

let items =
  (* quarter-step prices survive the CSV/JSON decimal round-trip exactly,
     so one oracle serves all four formats *)
  List.init 800 (fun i ->
      Value.record
        [ ("k", Value.Int i); ("grp", Value.Int (i mod 7));
          ("price", Value.Float (float_of_int ((i * 37) mod 1000) /. 4.0));
          ("name", Value.String (Fmt.str "n%d" (i mod 13))) ])

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)

let to_csv records =
  Proteus_format.Csv.of_records Proteus_format.Csv.default_config
    (Schema.of_type item_type) records

let formats = [ "items_csv"; "items_json"; "items_row"; "items_col" ]

let make_db ?caching () =
  let db = Db.create ?caching () in
  Db.register_csv db ~name:"items_csv" ~element:item_type
    ~contents:(to_csv items) ();
  Db.register_json db ~name:"items_json" ~element:item_type
    ~contents:(to_json items);
  Db.register_rows db ~name:"items_row" ~element:item_type items;
  Db.register_columns_of db ~name:"items_col" ~element:item_type items;
  db

(* COUNT + float SUM under a parameterized comparison: float association
   catches any drift between lanes, domains, or re-binds *)
let agg_plan ds rhs =
  Plan.reduce
    ~pred:Expr.(path "x" [ "k" ] <. rhs)
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (Expr.path "x" [ "price" ]) ]
    (Plan.scan ~dataset:ds ~binding:"x" ())

let group_plan ds rhs =
  Plan.nest
    ~keys:[ ("g", Expr.path "x" [ "grp" ]) ]
    ~aggs:
      [ Plan.agg ~name:"n" (Monoid.Primitive Monoid.Count) (Expr.int 1);
        Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (Expr.path "x" [ "price" ]) ]
    ~pred:Expr.(path "x" [ "k" ] >=. rhs)
    ~binding:"row"
    (Plan.scan ~dataset:ds ~binding:"x" ())

(* --- fingerprints -------------------------------------------------------- *)

let test_shape_literals_collide () =
  List.iter
    (fun mk ->
      Alcotest.(check string)
        "same shape for different comparison constants"
        (Fingerprint.shape (mk (Expr.int 10)))
        (Fingerprint.shape (mk (Expr.int 777))))
    [ agg_plan "items_csv"; group_plan "items_json" ]

let test_shape_differences_split () =
  let base = Fingerprint.shape (agg_plan "items_csv" (Expr.int 10)) in
  let ne what s = Alcotest.(check bool) what false (String.equal base s) in
  (* operator *)
  ne "operator matters"
    (Fingerprint.shape
       (Plan.reduce
          ~pred:Expr.(path "x" [ "k" ] <=. int 10)
          [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
            Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum)
              (Expr.path "x" [ "price" ]) ]
          (Plan.scan ~dataset:"items_csv" ~binding:"x" ())));
  (* filtered field *)
  ne "field matters"
    (Fingerprint.shape
       (Plan.reduce
          ~pred:Expr.(path "x" [ "grp" ] <. int 10)
          [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
            Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum)
              (Expr.path "x" [ "price" ]) ]
          (Plan.scan ~dataset:"items_csv" ~binding:"x" ())));
  (* dataset *)
  ne "dataset matters" (Fingerprint.shape (agg_plan "items_json" (Expr.int 10)));
  (* LIKE patterns stay inline: different patterns are different shapes *)
  let like pat =
    Fingerprint.shape
      (Plan.reduce
         ~pred:(Expr.Binop (Expr.Like, Expr.path "x" [ "name" ], Expr.str pat))
         [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
         (Plan.scan ~dataset:"items_csv" ~binding:"x" ()))
  in
  Alcotest.(check bool) "LIKE pattern matters" false
    (String.equal (like "n1%") (like "n2%"))

let test_shape_rename_stable () =
  let mk binding =
    Plan.reduce
      ~pred:Expr.(path binding [ "k" ] <. int 42)
      [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
      (Plan.scan ~dataset:"items_csv" ~binding ())
  in
  Alcotest.(check string) "binding names canonicalized"
    (Fingerprint.shape (mk "x"))
    (Fingerprint.shape (mk "row_17"))

let test_parameterize_slots () =
  let plan = agg_plan "items_csv" (Expr.int 42) in
  let pplan, consts = Fingerprint.parameterize plan in
  Alcotest.(check (list (pair string check_value)))
    "one slot, reserved namespace"
    [ ("~0", Value.Int 42) ]
    consts;
  Alcotest.(check (list string)) "plan carries the slot" [ "~0" ]
    (Analysis.params pplan)

(* --- rebind differential: bound engine == fresh compile ------------------ *)

let rebind_vs_fresh ~domains ~batch_size db ds =
  let reg = Db.registry db in
  let param_plan = agg_plan ds (Expr.param "p") in
  let bound = Compiled.prepare_bound_par ~batch_size reg ~domains param_plan in
  List.iter
    (fun v ->
      Compiled.bind bound [ ("p", Value.Int v) ];
      let got = bound.Compiled.bd_run () in
      let fresh_plan = agg_plan ds (Expr.int v) in
      let expect = Compiled.prepare_par ~batch_size reg ~domains fresh_plan () in
      Alcotest.check check_value
        (Fmt.str "%s domains=%d batch=%d p=%d" ds domains batch_size v)
        expect got)
    [ 10; 500; 73; 800; 0 ]

let test_rebind_differential () =
  let db = make_db () in
  List.iter
    (fun ds ->
      List.iter
        (fun domains ->
          List.iter
            (fun batch_size -> rebind_vs_fresh ~domains ~batch_size db ds)
            [ 0; 7; Compiled.default_batch_size ])
        [ 1; 3 ])
    formats

let test_rebind_after_promotion () =
  (* promote k's zone map, then check the skip conjunct re-arms from the
     bound value: a bound engine over the promoted layout must agree with
     fresh compiles at every parameter value *)
  let caching =
    { Proteus_cache.Manager.default_config with promote = true; promote_threshold = 2 }
  in
  let db = make_db ~caching () in
  let reg = Db.registry db in
  (* drive the column past the promotion threshold *)
  for _ = 1 to 4 do
    ignore (Compiled.prepare_par reg ~domains:1 (agg_plan "items_csv" (Expr.int 100)) ())
  done;
  Alcotest.(check bool) "k promoted" true
    (Proteus_cache.Manager.is_promoted (Db.cache_manager db)
       ~dataset:"items_csv" ~path:"k");
  List.iter
    (fun domains ->
      rebind_vs_fresh ~domains ~batch_size:Compiled.default_batch_size db
        "items_csv")
    [ 1; 3 ]

let test_unbound_param_reads_null () =
  let db = make_db () in
  let bound =
    Compiled.prepare_bound_par (Db.registry db) ~domains:1
      (agg_plan "items_row" (Expr.param "p"))
  in
  (* comparisons against an unbound (Null) slot are false: empty selection,
     same as a predicate no row satisfies *)
  Alcotest.check check_value "unbound slot selects nothing"
    (Compiled.prepare_par (Db.registry db) ~domains:1
       (agg_plan "items_row" (Expr.int (-1))) ())
    (bound.Compiled.bd_run ());
  Alcotest.check_raises "unknown name"
    (Perror.Plan_error "unknown parameter ?nope") (fun () ->
      Compiled.bind bound [ ("nope", Value.Int 1) ])

(* --- Db-level parameters ------------------------------------------------- *)

let test_sql_params () =
  let db = make_db () in
  let expect = Db.sql db "SELECT COUNT(1) FROM items_csv WHERE k < 500" in
  Alcotest.check check_value "positional ?"
    expect
    (Db.sql db ~params:[ ("1", Value.Int 500) ]
       "SELECT COUNT(1) FROM items_csv WHERE k < ?");
  Alcotest.check check_value "named $p"
    expect
    (Db.sql db ~params:[ ("p", Value.Int 500) ]
       "SELECT COUNT(1) FROM items_csv WHERE k < $p");
  Alcotest.(check bool) "unbound parameter rejected" true
    (match Db.sql db "SELECT COUNT(1) FROM items_csv WHERE k < ?" with
    | exception Perror.Plan_error _ -> true
    | _ -> false)

let test_prepared_staleness () =
  let db = make_db () in
  let p = Db.prepare ~optimize:false db (Db.plan_sql db "SELECT COUNT(1) FROM items_csv WHERE k >= 0") in
  Alcotest.check check_value "first run" (Value.Int 800) (p.Db.run ());
  (* dataset update: the prepared engine must observe the append *)
  Db.append db ~name:"items_csv"
    (to_csv
       (List.init 10 (fun i ->
            Value.record
              [ ("k", Value.Int (800 + i)); ("grp", Value.Int 0);
                ("price", Value.Float 1.0); ("name", Value.String "x") ])));
  Alcotest.check check_value "sees appended rows" (Value.Int 810) (p.Db.run ());
  (* caching-mode flip: re-stages without changing the answer *)
  Db.set_caching db false;
  Alcotest.check check_value "after set_caching false" (Value.Int 810) (p.Db.run ());
  Db.set_caching db true;
  Alcotest.check check_value "after set_caching true" (Value.Int 810) (p.Db.run ())

let test_prepared_follows_promotion () =
  let caching =
    { Proteus_cache.Manager.default_config with promote = true; promote_threshold = 2 }
  in
  List.iter
    (fun ds ->
      let db = make_db ~caching () in
      let reg = Db.registry db in
      let plan = agg_plan ds (Expr.int 40) in
      let p = Db.prepare db plan in
      let gen = Proteus_plugin.Registry.generation reg in
      (* selective fresh compiles drive k past the promotion threshold, as
         in the engine-cache promotion test *)
      for i = 1 to 6 do
        ignore (Compiled.prepare_par reg ~domains:1 (agg_plan ds (Expr.int (30 + i))) ())
      done;
      Alcotest.(check bool) (ds ^ ": k promoted") true
        (Proteus_cache.Manager.is_promoted (Db.cache_manager db) ~dataset:ds ~path:"k");
      Alcotest.(check bool) (ds ^ ": promotion moved the generation") true
        (Proteus_plugin.Registry.generation reg > gen);
      (* the statement re-stages over the promoted layout: same answer and
         the same skips, seeks and slot reads as a fresh run *)
      let v, s = Executor.measure p.Db.run in
      let v', s' = Executor.measure (fun () -> Db.run_plan db plan) in
      Alcotest.check check_value (ds ^ ": answer") v' v;
      Alcotest.(check (list int)) (ds ^ ": skipped / seeks / slot reads")
        [ s'.Counters.morsels_skipped; s'.Counters.sorted_seeks; s'.Counters.slot_reads ]
        [ s.Counters.morsels_skipped; s.Counters.sorted_seeks; s.Counters.slot_reads ])
    [ "items_csv"; "items_json" ]

(* --- prepared handles over cold inputs ------------------------------------ *)

let fill_commits db = (Db.cache_stats db).Proteus_cache.Manager.fill_commits
let field_hits db = (Db.cache_stats db).Proteus_cache.Manager.field_hits
let cold_q = "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 300"

(* A statement prepared before its inputs are cached fills them on its first
   run; the fill re-stages it, so later runs read the cache instead of
   filling again. *)
let test_prepared_cold_fills_once () =
  let db = make_db () in
  let p = Db.prepare ~optimize:false db (Db.plan_sql db cold_q) in
  ignore (p.Db.run ());
  let fills = fill_commits db in
  Alcotest.(check bool) "the first run fills" true (fills > 0);
  let v = p.Db.run () in
  Alcotest.(check int) "the second run commits no fill" fills (fill_commits db);
  Alcotest.check check_value "and equals a fresh run" (Db.sql db cold_q) v

let test_prepared_reads_others_fill () =
  let db = make_db () in
  let p = Db.prepare ~optimize:false db (Db.plan_sql db cold_q) in
  ignore (Db.sql db "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 10");
  let fills = fill_commits db and hits = field_hits db in
  let v = p.Db.run () in
  Alcotest.(check int) "no fill after another query filled" fills (fill_commits db);
  Alcotest.(check bool) "reads the cached columns" true (field_hits db > hits);
  Alcotest.check check_value "answer" (Db.sql db cold_q) v

let test_prepared_unbound_then_bind () =
  let db = make_db () in
  let q = "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < ?" in
  let p = Db.prepare ~optimize:false db (Db.plan_sql db q) in
  Alcotest.(check bool) "unbound ? fails the run" true
    (match p.Db.run () with exception Perror.Plan_error _ -> true | _ -> false);
  List.iter
    (fun v ->
      let params = [ ("1", Value.Int v) ] in
      Db.bind p params;
      Alcotest.check check_value (Fmt.str "bound to %d" v) (Db.sql db ~params q)
        (p.Db.run ()))
    [ 250; 40 ]

let test_cache_cold_shape_stays_hit () =
  let db = make_db () in
  let cache = Engine_cache.create db in
  let lease () =
    let l = Engine_cache.acquire cache (Db.plan_sql db cold_q) in
    let v = Engine_cache.run l in
    Engine_cache.release l ~clean:true;
    (v, l)
  in
  ignore (lease ());
  ignore (lease ());
  let fills = fill_commits db in
  let v, l = lease () in
  Alcotest.(check bool) "third lease hits" true (Engine_cache.hit l);
  Alcotest.(check int) "and commits no fill" fills (fill_commits db);
  Alcotest.check check_value "answer" (Db.sql db cold_q) v

(* An arena too small for any column refuses every fill: the fill stamp
   stays put, so leases keep hitting without re-staging on every run. *)
let test_cache_refused_fill_no_restage () =
  let db = Db.create ~cache_budget:64 () in
  Db.register_csv db ~name:"items_csv" ~element:item_type ~contents:(to_csv items) ();
  let reg = Db.registry db in
  let stamp = Proteus_plugin.Registry.fill_stamp reg in
  let cache = Engine_cache.create db in
  let expect = Db.sql db cold_q in
  List.iteri
    (fun i hit ->
      let l = Engine_cache.acquire cache (Db.plan_sql db cold_q) in
      let v = Engine_cache.run l in
      Engine_cache.release l ~clean:true;
      Alcotest.check check_value (Fmt.str "lease %d answer" i) expect v;
      Alcotest.(check bool) (Fmt.str "lease %d hit" i) hit (Engine_cache.hit l);
      if hit then
        Alcotest.(check (float 0.)) (Fmt.str "lease %d pays no staging" i) 0.
          (Engine_cache.compile_seconds l))
    [ false; true; true; true ];
  Alcotest.(check int) "no fill installed" stamp
    (Proteus_plugin.Registry.fill_stamp reg)

(* --- engine cache -------------------------------------------------------- *)

let sql_plan db q = Db.plan_sql db q

let complete v = match (v : Executor.outcome) with
  | Executor.Completed (v, _) -> v
  | _ -> Alcotest.fail "expected completion"

let test_cache_hit_rebind () =
  let db = make_db () in
  let cache = Engine_cache.create db in
  let run q =
    let lease = Engine_cache.acquire cache (sql_plan db q) in
    let v = Engine_cache.run lease in
    Engine_cache.release lease ~clean:true;
    (v, Engine_cache.hit lease)
  in
  let v1, h1 = run "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 100" in
  Alcotest.(check bool) "first is a miss" false h1;
  let v2, h2 = run "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 300" in
  Alcotest.(check bool) "constant-only change hits" true h2;
  Alcotest.check check_value "hit result correct"
    (Db.sql db "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 300")
    v2;
  Alcotest.(check bool) "different results" false (Value.equal v1 v2);
  (* operator change is a different shape *)
  let _, h3 = run "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k <= 300" in
  Alcotest.(check bool) "operator change misses" false h3;
  let s = Engine_cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Engine_cache.hits;
  Alcotest.(check int) "misses" 2 s.Engine_cache.misses;
  Alcotest.(check int) "installs" 2 s.Engine_cache.installs

let test_cache_key_includes_engine_config () =
  let db = make_db () in
  let cache = Engine_cache.create db in
  let acquire ?domains ?batch_size () =
    let lease =
      Engine_cache.acquire cache ?domains ?batch_size
        (sql_plan db "SELECT COUNT(1) FROM items_row WHERE k < 5")
    in
    ignore (Engine_cache.run lease);
    Engine_cache.release lease ~clean:true;
    Engine_cache.hit lease
  in
  Alcotest.(check bool) "cold" false (acquire ());
  Alcotest.(check bool) "same config hits" true (acquire ());
  Alcotest.(check bool) "batch size is part of the key" false
    (acquire ~batch_size:0 ());
  Alcotest.(check bool) "domain count is part of the key" false
    (acquire ~domains:2 ())

let test_cache_invalidation () =
  let db = make_db () in
  let cache = Engine_cache.create db in
  let acquire () =
    let lease =
      Engine_cache.acquire cache
        (sql_plan db "SELECT COUNT(1) FROM items_json WHERE k < 100")
    in
    let v = Engine_cache.run lease in
    Engine_cache.release lease ~clean:true;
    (v, Engine_cache.hit lease)
  in
  let _ = acquire () in
  let _, h = acquire () in
  Alcotest.(check bool) "warm" true h;
  Db.append db ~name:"items_json"
    (to_json [ Value.record
                 [ ("k", Value.Int 1); ("grp", Value.Int 0);
                   ("price", Value.Float 0.25); ("name", Value.String "x") ] ]);
  let v, h = acquire () in
  Alcotest.(check bool) "append invalidates" false h;
  Alcotest.check check_value "recompiled engine sees the append"
    (Value.Int 101) v;
  Alcotest.(check bool) "invalidations counted" true
    ((Engine_cache.stats cache).Engine_cache.invalidations > 0)

let test_cache_invalidation_on_promotion () =
  let caching =
    { Proteus_cache.Manager.default_config with promote = true; promote_threshold = 2 }
  in
  let db = make_db ~caching () in
  let cache = Engine_cache.create db in
  (* the resident engine is deliberately NOT selective on k (a selective
     engine would drive the promotion itself mid-run and self-quarantine,
     which the quarantine test covers): a bare aggregate over items_csv *)
  let q = "SELECT COUNT(1) FROM items_csv" in
  let acquire () =
    let lease = Engine_cache.acquire cache (sql_plan db q) in
    let r = Engine_cache.run lease in
    Engine_cache.release lease ~clean:true;
    (r, Engine_cache.hit lease)
  in
  ignore (acquire ());
  let _, h = acquire () in
  Alcotest.(check bool) "resident" true h;
  let before = (Engine_cache.stats cache).Engine_cache.invalidations in
  (* repeated selective fresh compiles drive k past the promotion
     threshold: the promotion hook must drop every items_csv engine,
     including the resident one staged against the pre-promotion layout *)
  let reg = Db.registry db in
  for i = 1 to 6 do
    ignore (Compiled.prepare_par reg ~domains:1 (agg_plan "items_csv" (Expr.int (30 + i))) ())
  done;
  Alcotest.(check bool) "k promoted" true
    (Proteus_cache.Manager.is_promoted (Db.cache_manager db)
       ~dataset:"items_csv" ~path:"k");
  Alcotest.(check bool) "promotion invalidated cached engines" true
    ((Engine_cache.stats cache).Engine_cache.invalidations > before);
  (* and the next acquire recompiles against the promoted layout *)
  let v, h = acquire () in
  Alcotest.(check bool) "recompiled" false h;
  Alcotest.check check_value "post-promotion result" (Value.Int 800) v

let test_cache_quarantine () =
  let db = make_db () in
  let cache = Engine_cache.create db in
  let q = "SELECT COUNT(1) FROM items_row WHERE k < 100" in
  (* an unclean first run must NOT install *)
  let lease = Engine_cache.acquire cache (sql_plan db q) in
  ignore (Engine_cache.run lease);
  Engine_cache.release lease ~clean:false;
  let s = Engine_cache.stats cache in
  Alcotest.(check int) "nothing installed" 0 s.Engine_cache.installs;
  Alcotest.(check int) "poisoned counted" 1 s.Engine_cache.poisoned;
  (* a clean run installs; a later unclean run on the cached engine evicts *)
  let lease = Engine_cache.acquire cache (sql_plan db q) in
  ignore (Engine_cache.run lease);
  Engine_cache.release lease ~clean:true;
  Alcotest.(check int) "installed after clean run" 1
    (Engine_cache.stats cache).Engine_cache.installs;
  let lease = Engine_cache.acquire cache (sql_plan db q) in
  Alcotest.(check bool) "served from cache" true (Engine_cache.hit lease);
  ignore (Engine_cache.run lease);
  Engine_cache.release lease ~clean:false;
  let s = Engine_cache.stats cache in
  Alcotest.(check int) "poisoned engine evicted" 0 s.Engine_cache.entries;
  let lease = Engine_cache.acquire cache (sql_plan db q) in
  Alcotest.(check bool) "not reused after poisoning" false (Engine_cache.hit lease);
  ignore (Engine_cache.run lease);
  Engine_cache.release lease ~clean:true

let test_cache_lru_eviction () =
  let db = make_db () in
  let cache = Engine_cache.create ~capacity:2 db in
  let run q =
    let lease = Engine_cache.acquire cache (sql_plan db q) in
    ignore (Engine_cache.run lease);
    Engine_cache.release lease ~clean:true;
    Engine_cache.hit lease
  in
  ignore (run "SELECT COUNT(1) FROM items_csv WHERE k < 1");
  ignore (run "SELECT COUNT(1) FROM items_json WHERE k < 1");
  ignore (run "SELECT COUNT(1) FROM items_row WHERE k < 1");
  let s = Engine_cache.stats cache in
  Alcotest.(check int) "capacity respected" 2 s.Engine_cache.entries;
  Alcotest.(check bool) "eviction counted" true (s.Engine_cache.evictions > 0);
  (* the oldest (csv) shape was evicted; the newest two still hit *)
  Alcotest.(check bool) "recent shape survives" true
    (run "SELECT COUNT(1) FROM items_row WHERE k < 7");
  Alcotest.(check bool) "oldest shape evicted" false
    (run "SELECT COUNT(1) FROM items_csv WHERE k < 7")

(* --- scheduler ----------------------------------------------------------- *)

let queries =
  [ "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 100";
    "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 500";
    "SELECT COUNT(1), SUM(price) FROM items_json WHERE k < 250";
    "SELECT grp, COUNT(1), SUM(price) FROM items_row WHERE k >= 40 GROUP BY grp ORDER BY grp";
    "SELECT COUNT(1), SUM(price) FROM items_col WHERE k < 640";
    "SELECT COUNT(1) FROM items_row WHERE grp = 3";
    "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 123";
    "SELECT COUNT(1), SUM(price) FROM items_json WHERE k < 789" ]

let test_concurrent_matches_serial () =
  (* serial oracle on one session ... *)
  let db_serial = make_db () in
  let expected = List.map (fun q -> Db.sql db_serial q) queries in
  (* ... concurrent clients on another: every outcome must be bit-identical,
     including repeated rounds where later rounds hit the engine cache *)
  let db = make_db () in
  let sched = Scheduler.create ~workers:4 db in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      for round = 1 to 3 do
        let tickets =
          List.map
            (fun q ->
              match Scheduler.submit sched (Scheduler.request q) with
              | Ok tk -> tk
              | Error _ -> Alcotest.fail "queue bound hit unexpectedly")
            queries
        in
        List.iteri
          (fun i tk ->
            let c = Scheduler.await tk in
            match c.Scheduler.cp_outcome with
            | Executor.Completed (v, _) ->
              Alcotest.check check_value
                (Fmt.str "round %d query %d" round i)
                (List.nth expected i) v
            | _ -> Alcotest.fail (Fmt.str "round %d query %d did not complete" round i))
          tickets
      done;
      let s = Engine_cache.stats (Scheduler.engine_cache sched) in
      Alcotest.(check bool) "later rounds hit the engine cache" true
        (s.Engine_cache.hits >= List.length queries))

(* Each query's report carries its own counters, so two queries running at
   once on two workers each see exactly what they see running alone. *)
let test_concurrent_reports () =
  let pair =
    [ "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < 500";
      "SELECT COUNT(1) FROM items_json WHERE grp = 3" ]
  in
  let report tk =
    match (Scheduler.await tk).Scheduler.cp_outcome with
    | Executor.Completed (_, r) -> r.Fault.rp_stats
    | _ -> Alcotest.fail "query did not complete"
  in
  let submit sched q =
    match Scheduler.submit sched (Scheduler.request q) with
    | Ok tk -> tk
    | Error _ -> Alcotest.fail "submit refused"
  in
  let rounds = 3 in
  (* solo: one worker, one query at a time (cold round, then warm ones) *)
  let solo =
    let sched = Scheduler.create ~workers:1 (make_db ()) in
    Fun.protect
      ~finally:(fun () -> Scheduler.shutdown sched)
      (fun () ->
        List.init rounds (fun _ ->
            List.map (fun q -> report (submit sched q)) pair))
  in
  let sched = Scheduler.create ~workers:2 (make_db ()) in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      List.iteri
        (fun round alone ->
          let tickets = List.map (submit sched) pair in
          List.iteri
            (fun i (tk, (a : Counters.snapshot)) ->
              let s = report tk in
              let check what f =
                Alcotest.(check int) (Fmt.str "round %d query %d %s" round i what) (f a) (f s)
              in
              check "tuples" (fun s -> s.Counters.tuples);
              check "morsels" (fun s -> s.Counters.morsels);
              check "morsels_skipped" (fun s -> s.Counters.morsels_skipped))
            (List.combine tickets alone))
        solo)

(* The [stats] verb's resilience segment keeps its text; its [shed=] is the
   scheduler's own count. *)
let test_stats_shed () =
  let sched = Scheduler.create ~workers:0 (make_db ()) in
  let q = "SELECT COUNT(1) FROM items_csv" in
  let submit ?timeout_ms () = Scheduler.submit sched (Scheduler.request ?timeout_ms q) in
  (* seed the service-time estimate, queue one job, then shed a deadline
     the queue wait alone exceeds *)
  ignore (submit ());
  Alcotest.(check bool) "seed ran" true (Scheduler.drain_one sched);
  ignore (submit ());
  (match submit ~timeout_ms:0 () with
  | Error `Infeasible -> ()
  | _ -> Alcotest.fail "an infeasible deadline must shed");
  let line = Server.stats_line sched in
  let segment =
    let words = String.split_on_char ' ' line in
    let rec after = function
      | "resilience" :: rest -> rest
      | _ :: rest -> after rest
      | [] -> Alcotest.fail "no resilience segment"
    in
    let rec upto = function "promotion" :: _ | [] -> [] | w :: rest -> w :: upto rest in
    upto (after words)
  in
  let key w = List.hd (String.split_on_char '=' w) in
  Alcotest.(check (list string)) "resilience keys"
    [ "shards-retried"; "shards-hedged"; "breaker-open"; "shed" ]
    (List.map key segment);
  Alcotest.(check string) "shed from the scheduler"
    (Fmt.str "shed=%d" (Scheduler.stats sched).Scheduler.shed)
    (List.nth segment 3);
  Alcotest.(check int) "one shed" 1 (Scheduler.stats sched).Scheduler.shed;
  Scheduler.shutdown ~drain_timeout_ms:10 sched

let test_scheduler_params_and_hits () =
  let db = make_db () in
  let sched = Scheduler.create ~workers:2 db in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let run v =
        match
          Scheduler.run sched
            (Scheduler.request ~params:[ ("1", Value.Int v) ]
               "SELECT COUNT(1) FROM items_csv WHERE k < ?")
        with
        | Ok c -> c
        | Error _ -> Alcotest.fail "rejected"
      in
      let c1 = run 100 in
      Alcotest.check check_value "first" (Value.Int 100)
        (complete c1.Scheduler.cp_outcome);
      Alcotest.(check bool) "first compiles" false c1.Scheduler.cp_hit;
      let c2 = run 400 in
      Alcotest.check check_value "rebound" (Value.Int 400)
        (complete c2.Scheduler.cp_outcome);
      Alcotest.(check bool) "second hits" true c2.Scheduler.cp_hit;
      Alcotest.(check bool) "hit pays no staging" true
        (c2.Scheduler.cp_compile_seconds = 0.))

let test_scheduler_overload () =
  let db = make_db () in
  let sched = Scheduler.create ~workers:1 ~max_queue:1 db in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let submitted =
        List.init 50 (fun i ->
            Scheduler.submit sched
              (Scheduler.request
                 (Fmt.str "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < %d" (i + 1))))
      in
      let accepted =
        List.filter_map (function Ok tk -> Some tk | Error _ -> None) submitted
      in
      Alcotest.(check bool) "some rejected" true
        (List.length accepted < List.length submitted);
      Alcotest.(check bool) "some accepted" true (List.length accepted >= 1);
      (* accepted work still completes correctly *)
      List.iter
        (fun tk ->
          match (Scheduler.await tk).Scheduler.cp_outcome with
          | Executor.Completed (Value.Record _, _) -> ()
          | _ -> Alcotest.fail "accepted query failed")
        accepted;
      Alcotest.(check bool) "rejections counted" true
        ((Scheduler.stats sched).Scheduler.rejected > 0))

let test_scheduler_deadline () =
  let db = make_db () in
  let sched = Scheduler.create ~workers:1 db in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      (* a cross join with a residual float filter: ~640k probes, far past
         a 1 ms budget; the cooperative token stops it at a batch boundary *)
      match
        Scheduler.run sched
          (Scheduler.request ~timeout_ms:1
             "SELECT COUNT(1) FROM items_csv a, items_json b WHERE a.price + b.price > 1.0")
      with
      | Ok { Scheduler.cp_outcome = Executor.Timed_out _; _ } -> ()
      | Ok { Scheduler.cp_outcome = Executor.Cancelled _; _ } -> ()
      | Ok _ -> Alcotest.fail "expected a deadline expiry"
      | Error _ -> Alcotest.fail "rejected")

let test_scheduler_fairness () =
  (* workers:0 + drain_one makes the round-robin fully deterministic:
     client a's backlog of 3 is submitted before client b's single query,
     yet b runs second — a newcomer waits one turn, not a whole backlog *)
  let db = make_db () in
  let sched = Scheduler.create ~workers:0 db in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      let submit client v =
        match
          Scheduler.submit sched
            (Scheduler.request ~client
               (Fmt.str "SELECT COUNT(1) FROM items_row WHERE k < %d" v))
        with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "rejected"
      in
      let a1 = submit "a" 1 and a2 = submit "a" 2 and a3 = submit "a" 3 in
      let b1 = submit "b" 100 in
      (* each drain_one runs exactly one job synchronously, so awaiting
         right after is deterministic: the awaited ticket resolved iff its
         turn just ran. Turn 1: a1 *)
      Alcotest.(check bool) "turn 1" true (Scheduler.drain_one sched);
      Alcotest.check check_value "a1 first" (Value.Int 1)
        (complete (Scheduler.await a1).Scheduler.cp_outcome);
      (* turn 2 must be b1, not a2: b entered the ring behind a, and a
         rotated to the back after a1 *)
      Alcotest.(check bool) "turn 2" true (Scheduler.drain_one sched);
      Alcotest.check check_value "b1 second" (Value.Int 100)
        (complete (Scheduler.await b1).Scheduler.cp_outcome);
      (* a's remaining backlog drains in FIFO order with itself *)
      Alcotest.(check bool) "turn 3" true (Scheduler.drain_one sched);
      Alcotest.check check_value "a2 third" (Value.Int 2)
        (complete (Scheduler.await a2).Scheduler.cp_outcome);
      Alcotest.(check bool) "turn 4" true (Scheduler.drain_one sched);
      Alcotest.check check_value "a3 fourth" (Value.Int 3)
        (complete (Scheduler.await a3).Scheduler.cp_outcome);
      Alcotest.(check bool) "queue drained" false (Scheduler.drain_one sched))

let test_scheduler_parse_error () =
  let db = make_db () in
  let sched = Scheduler.create ~workers:1 db in
  Fun.protect
    ~finally:(fun () -> Scheduler.shutdown sched)
    (fun () ->
      match Scheduler.run sched (Scheduler.request "SELECT FROM nonsense !!") with
      | Ok { Scheduler.cp_outcome = Executor.Failed _; _ } -> ()
      | _ -> Alcotest.fail "expected a failed outcome")

(* --- TCP server ---------------------------------------------------------- *)

let test_tcp_roundtrip () =
  let db = make_db () in
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let srv =
    Domain.spawn (fun () ->
        Server.serve
          ~ready:(fun p -> Atomic.set port p)
          ~stop db
          { Server.default_config with port = 0; workers = 2 })
  in
  let rec wait_port n =
    if Atomic.get port = 0 then
      if n = 0 then Alcotest.fail "server did not come up"
      else begin
        Unix.sleepf 0.05;
        wait_port (n - 1)
      end
  in
  wait_port 100;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    (fun () ->
      Server.with_connection ~port:(Atomic.get port) (fun inc out ->
          let send line = output_string out (line ^ "\n"); flush out in
          let recv () = input_line inc in
          send "ping";
          Alcotest.(check string) "pong" "pong" (recv ());
          send "run SELECT COUNT(1) FROM items_csv WHERE k < 100";
          Alcotest.(check string) "ok 1" "ok 1" (recv ());
          Alcotest.(check string) "count" "100" (recv ());
          send "param 300";
          Alcotest.(check string) "param ok" "ok" (recv ());
          send "run SELECT COUNT(1) FROM items_csv WHERE k < ?";
          Alcotest.(check string) "ok 1 (rebound)" "ok 1" (recv ());
          Alcotest.(check string) "rebound count" "300" (recv ());
          send "stats";
          let stats_line = recv () in
          let contains needle =
            let n = String.length needle and h = String.length stats_line in
            let rec go i = i + n <= h && (String.sub stats_line i n = needle || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) "stats mention a hit" true (contains "hits=1");
          Alcotest.(check bool) "stats mention a miss" true (contains "misses=1");
          send "nonsense";
          let l = recv () in
          Alcotest.(check bool) "unknown command errors" true
            (String.length l >= 3 && String.sub l 0 3 = "err");
          send "quit";
          Alcotest.(check string) "bye" "bye" (recv ())))

let () =
  Alcotest.run "server"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "literals collide" `Quick test_shape_literals_collide;
          Alcotest.test_case "structural differences split" `Quick
            test_shape_differences_split;
          Alcotest.test_case "rename stable" `Quick test_shape_rename_stable;
          Alcotest.test_case "parameterize slots" `Quick test_parameterize_slots;
        ] );
      ( "rebind",
        [
          Alcotest.test_case "bound == fresh (formats x domains x batch)" `Quick
            test_rebind_differential;
          Alcotest.test_case "bound == fresh after promotion" `Quick
            test_rebind_after_promotion;
          Alcotest.test_case "unbound slot reads Null" `Quick
            test_unbound_param_reads_null;
        ] );
      ( "db-params",
        [
          Alcotest.test_case "sql ?params" `Quick test_sql_params;
          Alcotest.test_case "prepared statements observe updates" `Quick
            test_prepared_staleness;
          Alcotest.test_case "prepared statements follow promotions" `Quick
            test_prepared_follows_promotion;
          Alcotest.test_case "cold statement fills once" `Quick
            test_prepared_cold_fills_once;
          Alcotest.test_case "statement reads another query's fill" `Quick
            test_prepared_reads_others_fill;
          Alcotest.test_case "unbound ? fails, bind then runs" `Quick
            test_prepared_unbound_then_bind;
        ] );
      ( "engine-cache",
        [
          Alcotest.test_case "hit re-binds" `Quick test_cache_hit_rebind;
          Alcotest.test_case "key includes engine config" `Quick
            test_cache_key_includes_engine_config;
          Alcotest.test_case "append invalidates" `Quick test_cache_invalidation;
          Alcotest.test_case "promotion invalidates" `Quick
            test_cache_invalidation_on_promotion;
          Alcotest.test_case "quarantine" `Quick test_cache_quarantine;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "cold shape stays a hit" `Quick
            test_cache_cold_shape_stays_hit;
          Alcotest.test_case "refused fill starts no re-stage" `Quick
            test_cache_refused_fill_no_restage;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "concurrent == serial" `Quick
            test_concurrent_matches_serial;
          Alcotest.test_case "concurrent reports == solo reports" `Quick
            test_concurrent_reports;
          Alcotest.test_case "stats verb reads the scheduler's shed" `Quick
            test_stats_shed;
          Alcotest.test_case "params and hits" `Quick test_scheduler_params_and_hits;
          Alcotest.test_case "admission control" `Quick test_scheduler_overload;
          Alcotest.test_case "deadline" `Quick test_scheduler_deadline;
          Alcotest.test_case "round-robin fairness" `Quick test_scheduler_fairness;
          Alcotest.test_case "parse error" `Quick test_scheduler_parse_error;
        ] );
      ("server", [ Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip ]);
    ]
