(* Morsel-driven parallel execution: the specialized engine at 1..N OCaml
   domains over the paper's workload shapes — TPC-H Q1/Q6-style cells on the
   JSON and binary instances, plus Symantec spam-workload cells with the
   adaptive caches warm.

   Every (cell, domain count) point is also a record of BENCH_engine.json
   so regressions are machine-checkable. Domain counts beyond the machine's
   core count measure overhead, not speedup; the determinism guarantee
   (identical results at any count) still holds. *)

module Tpch = Proteus_tpch.Tpch
module Q = Tpch.Queries
module Symantec = Proteus_symantec.Symantec
module Plan = Proteus_algebra.Plan
module Expr = Proteus_model.Expr
module Ptype = Proteus_model.Ptype
module Json = Proteus_format.Json

let domain_counts = List.sort_uniq compare [ 1; 2; Util.max_domains ]

let at_domains ?(params = []) ?counters ~figure name d t =
  Util.record ~figure ~params:(("domains", Json.Int d) :: params) ?counters name t

(* Cold-run cells: caches cleared before every iteration, so each run is a
   cache-filling pass — the segmented fill riding the morsel spine — and
   cold and warm scaling sit side by side. *)
let cold_cell name db plan =
  let plan = Util.tune plan in
  Fmt.pr "   cold fill, %s:" name;
  let records =
    List.map
      (fun d ->
        let t =
          Util.measure_n 9 (fun () ->
              (* drop the caches, keep the structural indexes: the cell
                 isolates fill + scan, not index construction *)
              Proteus.Db.set_caching ~clear:true db true;
              ignore (Proteus.Db.run_plan ~domains:d db plan))
        in
        Fmt.pr " %dd=%.2fms" d (Util.ms t.Util.median);
        at_domains ~figure:"cold_fill" name d t)
      domain_counts
  in
  Fmt.pr "@.";
  (* leave the session warm again for any cell measured after this one *)
  ignore (Proteus.Db.run_plan db plan);
  records

(* one table row: the cell at every domain count *)
let cell name db plan =
  let plan = Util.tune plan in
  (name, List.map (fun d -> Util.measure_at db ~domains:d plan) domain_counts)

let scaling_row name db plan =
  let plan = Util.tune plan in
  Fmt.pr "   scaling, %s:" name;
  let records =
    List.map
      (fun d ->
        let t = Util.measure_at db ~domains:d plan in
        Fmt.pr " %dd=%.2fms" d (Util.ms t.Util.median);
        at_domains ~figure:"parallel_scaling" name d t)
      [ 1; 2; 4; 8 ]
  in
  Fmt.pr "@.";
  records

(* Selective scans over a clustered CSV column, warm cache, with and without
   workload promotion. The promoted session has crossed the access threshold:
   its zone maps let the dispenser drop whole morsels of the 1%-selectivity
   scan, and the 50% scan bounds how much a barely-selective predicate can
   gain. Each cell reports the morsels the zone maps skipped on one
   instrumented run. *)
let promotion_cells () =
  let n = 200_000 in
  let ev_type =
    Ptype.Record [ ("k", Ptype.Int); ("v", Ptype.Float); ("s", Ptype.String) ]
  in
  let buf = Buffer.create (n * 16) in
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Fmt.str "%d,%.1f,str%d\n" i (float_of_int i *. 0.5) (i mod 97))
  done;
  let contents = Buffer.contents buf in
  let session ~promote =
    let caching =
      { Proteus_cache.Manager.default_config with promote; promote_threshold = 2 }
    in
    let db = Proteus.Db.create ~caching () in
    Proteus.Db.register_csv db ~name:"events" ~element:ev_type ~contents ();
    db
  in
  let query frac =
    Plan.reduce
      ~pred:Expr.(Field (var "x", "k") <. int (n * frac / 100))
      [ Plan.agg ~name:"c" (Proteus_model.Monoid.Primitive Proteus_model.Monoid.Count)
          (Expr.int 1) ]
      (Plan.scan ~dataset:"events" ~binding:"x" ())
  in
  let cells = [ ("selective 1%", query 1); ("selective 50%", query 50) ] in
  List.concat_map
    (fun (mode, promote) ->
      let db = session ~promote in
      (* warm the cache; with promotion on these passes also cross the
         access threshold, so the measured steady state is post-promotion *)
      List.iter
        (fun (_, plan) ->
          for _ = 1 to 3 do
            ignore (Proteus.Db.run_plan db plan)
          done)
        cells;
          Fmt.pr "   promotion %s:" mode;
      let records =
        List.map
          (fun (name, plan) ->
            let prepared = Proteus.Db.prepare ~domains:Util.max_domains db plan in
            let t = Util.measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ())) in
            let _, s = Proteus_engine.Executor.measure prepared.Proteus.Db.run in
            let skipped = s.Proteus_engine.Counters.morsels_skipped in
            let total = skipped + s.Proteus_engine.Counters.morsels in
            Fmt.pr " %s=%.2fms (skip %.0f%%)" name (Util.ms t.Util.median)
              (if total = 0 then 0. else 100. *. float_of_int skipped /. float_of_int total);
            at_domains ~figure:"promotion" ~params:[ ("mode", Json.Str mode) ]
              ~counters:[ ("morsels_skipped", skipped); ("morsels", total) ]
              name Util.max_domains t)
          cells
      in
      Fmt.pr "@.";
      records)
    [ ("unpromoted", false); ("promoted", true) ]

let run_all (je : Tpch_figs.json_env) (be : Tpch_figs.bin_env) =
  let joc = je.Tpch_figs.jd.Tpch.order_count in
  let boc = be.Tpch_figs.bd.Tpch.order_count in
  let jdb = je.Tpch_figs.j_proteus and bdb = be.Tpch_figs.b_proteus in
  let q6 oc = Q.projection ~lineitem:"lineitem" ~order_count:oc ~variant:Q.Agg4 ~selectivity:0.5 in
  let q1 oc = Q.group_by ~lineitem:"lineitem" ~order_count:oc ~aggregates:4 ~selectivity:1.0 in
  let join oc =
    Q.join ~orders:"orders" ~lineitem:"lineitem" ~order_count:oc ~variant:Q.JAgg2
      ~selectivity:0.2
  in
  let rows =
    List.map
      (fun (name, db, plan) -> cell name db plan)
      [
        ("JSON Q6-shape (4 aggr)", jdb, q6 joc);
        ("JSON Q1-shape (group-by)", jdb, q1 joc);
        ("bin Q6-shape (4 aggr)", bdb, q6 boc);
        ("bin Q1-shape (group-by)", bdb, q1 boc);
        ("bin join (2 aggr)", bdb, join boc);
      ]
  in
  (* cold-run scaling: the cache-filling pass itself, at 1..N domains —
     since PR 5 the fill rides the morsel spine instead of forcing the
     serial fallback *)
  let cold_json =
    List.concat_map
      (fun (name, plan) -> cold_cell name jdb plan)
      [ ("JSON Q6-shape (4 aggr)", q6 joc); ("JSON Q1-shape (group-by)", q1 joc) ]
  in
  (* Symantec: warm the adaptive caches with one pass (cold fills run
     parallel too, but the cells below measure the warm steady state) *)
  let s =
    Symantec.generate
      ~params:
        {
          Symantec.default_params with
          json_objects = 500;
          csv_rows = 4_000;
          bin_rows = 6_000;
        }
      ()
  in
  let sdb = Proteus.Db.create () in
  Proteus.Db.register_json sdb ~name:Symantec.json_name ~element:Symantec.json_type
    ~contents:s.Symantec.json_text;
  Proteus.Db.register_csv sdb ~name:Symantec.csv_name ~element:Symantec.csv_type
    ~contents:s.Symantec.csv_text ();
  Proteus.Db.register_rows sdb ~name:Symantec.bin_name ~element:Symantec.bin_type
    s.Symantec.bin_records;
  let squeries = Symantec.queries s in
  let cold_q16 = cold_cell "Symantec Q16" sdb (List.assoc "Q16" squeries) in
  List.iter (fun (_, plan) -> ignore (Proteus.Db.run_plan sdb (Util.tune plan))) squeries;
  let srows =
    List.map (fun q -> cell ("Symantec " ^ q) sdb (List.assoc q squeries)) [ "Q16"; "Q39" ]
  in
  Util.print_table
    ~title:(Fmt.str "Parallel engine: morsel fleet at 1..%d domains" Util.max_domains)
    ~systems:(List.map (fun d -> Fmt.str "%d domain(s)" d) domain_counts)
    (List.map (fun (name, ts) -> (name, List.map Option.some ts)) (rows @ srows));
  let warm =
    List.concat_map
      (fun (name, ts) -> List.map2 (at_domains ~figure:"parallel_engine" name) domain_counts ts)
      (rows @ srows)
  in
  Util.print_note
    "1 domain runs the same fleet with one worker; cells where more domains \
     trail 1 on this machine indicate fewer cores than domains";
  let scaling =
    List.concat_map
      (fun (name, plan) -> scaling_row name bdb plan)
      [
        ("bin Q6-shape (4 aggr)", q6 boc);
        ("bin join (2 aggr)", join boc);
        ("bin Q1-shape (group-by)", q1 boc);
      ]
  in
  (* batch-size sweep for the vectorized lane at one domain; batch = 0 is
     the staged tuple-at-a-time lane, the ablation baseline *)
  let sweep_plan = Util.tune (q6 boc) in
  Fmt.pr "   batch-size sweep, bin Q6-shape:";
  let sweep =
    List.map
      (fun bs ->
        let prepared = Proteus.Db.prepare ~batch_size:bs bdb sweep_plan in
        let t = Util.measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ())) in
        Fmt.pr " b%d=%.2fms" bs (Util.ms t.Util.median);
        at_domains ~figure:"batch_sweep" ~params:[ ("batch_size", Json.Int bs) ]
          "bin Q6-shape (4 aggr)" 1 t)
      [ 0; 256; 1024; 4096 ]
  in
  Fmt.pr "@.";
  let promotion = promotion_cells () in
  List.concat [ warm; cold_json; cold_q16; scaling; sweep; promotion ]
