(* Morsel-driven parallel execution: the specialized engine at 1..N OCaml
   domains over the paper's workload shapes — TPC-H Q1/Q6-style cells on the
   JSON and binary instances, plus Symantec spam-workload cells with the
   adaptive caches warm.

   Every (cell, domain count, median ms) triple is also dumped to
   BENCH_engine.json so regressions are machine-checkable. Domain counts
   beyond the machine's core count measure overhead, not speedup; the
   determinism guarantee (identical results at any count) still holds. *)

module Tpch = Proteus_tpch.Tpch
module Q = Tpch.Queries
module Symantec = Proteus_symantec.Symantec
module Plan = Proteus_algebra.Plan
module Expr = Proteus_model.Expr
module Ptype = Proteus_model.Ptype

let max_domains =
  try int_of_string (String.trim (Sys.getenv "PROTEUS_BENCH_DOMAINS")) with _ -> 4

(* Pre-partitioning curves (PR 2, serial join build + splice-merged
   group-by), kept verbatim so the emitted JSON carries before/after: the
   join build was serial on domain 0, and the Q1/JSON cells *regressed*
   with domain count (per-morsel table splices, per-tuple JSON entry
   allocations serializing on the minor-GC barrier). *)
let baseline : (string * int * float) list =
  [
    ("bin join (2 aggr)", 0, 13.4351); ("bin join (2 aggr)", 1, 13.3789);
    ("bin join (2 aggr)", 2, 12.9530); ("bin join (2 aggr)", 4, 12.3539);
    ("bin Q1-shape (group-by)", 0, 8.2161); ("bin Q1-shape (group-by)", 1, 10.6330);
    ("bin Q1-shape (group-by)", 2, 15.2259); ("bin Q1-shape (group-by)", 4, 15.3801);
    ("JSON Q1-shape (group-by)", 0, 11.6291); ("JSON Q1-shape (group-by)", 1, 14.1809);
    ("JSON Q1-shape (group-by)", 2, 31.1911); ("JSON Q1-shape (group-by)", 4, 45.6440);
    ("JSON Q6-shape (4 aggr)", 0, 4.7672); ("JSON Q6-shape (4 aggr)", 1, 6.7101);
    ("JSON Q6-shape (4 aggr)", 2, 13.8412); ("JSON Q6-shape (4 aggr)", 4, 13.8171);
  ]

(* Pre-blit curve (PR 5): the parallel join build concatenated its
   per-(worker, morsel) buffers with per-row pushes, leaving a serial tail
   after the fan-out; kept verbatim so the JSON carries before/after the
   Array.blit concatenation. Measured on the same cells as "bin join". *)
let baseline_pre_blit : (string * int * float) list =
  [
    ("bin join (2 aggr)", 0, 12.0380); ("bin join (2 aggr)", 1, 11.0760);
    ("bin join (2 aggr)", 2, 11.9629); ("bin join (2 aggr)", 4, 12.7680);
    ("bin join (2 aggr) (scaling)", 1, 16.4270);
    ("bin join (2 aggr) (scaling)", 2, 16.5029);
    ("bin join (2 aggr) (scaling)", 4, 20.6680);
    ("bin join (2 aggr) (scaling)", 8, 15.8720);
  ]

(* Physical cores visible to the process, as the OS reports them; paired
   with [Domain.recommended_domain_count] in the JSON metadata so scaling
   numbers carry the machine context they were measured on. *)
let host_cores =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n > 0 then !n else Domain.recommended_domain_count ()
  with _ -> Domain.recommended_domain_count ()

let tune plan =
  Proteus_optimizer.Rewrite.extract_join_keys
    (Proteus_optimizer.Rewrite.pushdown_selections plan)

(* accumulated (cell, domains, median seconds) *)
let records : (string * int * float) list ref = ref []

(* cold-run cells: caches cleared before every iteration, so each run is a
   cache-filling pass — the segmented fill riding the morsel spine. Emitted
   as the "cold fill" engine column so cold and warm scaling sit side by
   side in the JSON. *)
let cold_records : (string * int * float) list ref = ref []

(* workload-adaptive promotion cells: (cell, mode, domains, median seconds,
   share of morsels the zone maps skipped on one instrumented run) *)
let promo_records : (string * string * int * float * float) list ref = ref []

(* One warming run first: a statement prepared before its inputs are cached
   keeps the raw path on every run, so without it whichever width a cell
   measures first would time a cold-staged engine. *)
let measure_at db ~domains plan =
  ignore (Proteus.Db.run_plan ~domains db plan);
  let prepared = Proteus.Db.prepare ~domains db plan in
  Util.measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ()))

let domain_counts =
  List.sort_uniq compare [ 1; 2; max_domains ]

let cold_cell name db plan =
  let plan = tune plan in
  Fmt.pr "   cold fill, %s:" name;
  List.iter
    (fun d ->
      let t =
        Util.measure_n 9 (fun () ->
            (* drop the caches, keep the structural indexes: the cell
               isolates fill + scan, not index construction *)
            Proteus.Db.set_caching ~clear:true db true;
            ignore (Proteus.Db.run_plan ~domains:d db plan))
      in
      cold_records := (name, d, t) :: !cold_records;
      Fmt.pr " %dd=%.2fms" d (Util.ms t))
    domain_counts;
  Fmt.pr "@.";
  (* leave the session warm again for any cell measured after this one *)
  ignore (Proteus.Db.run_plan db plan)

let cell name db plan =
  let plan = tune plan in
  let at =
    List.map
      (fun d ->
        let t = measure_at db ~domains:d plan in
        records := (name, d, t) :: !records;
        Some t)
      domain_counts
  in
  (name, at)

let scaling_row name db plan =
  let plan = tune plan in
  Fmt.pr "   scaling, %s:" name;
  List.iter
    (fun d ->
      let t = measure_at db ~domains:d plan in
      records := (name ^ " (scaling)", d, t) :: !records;
      Fmt.pr " %dd=%.2fms" d (Util.ms t))
    [ 1; 2; 4; 8 ];
  Fmt.pr "@."

(* Selective scans over a clustered CSV column, warm cache, with and without
   workload promotion. The promoted session has crossed the access threshold:
   its zone maps let the dispenser drop whole morsels of the 1%-selectivity
   scan, and the 50% scan bounds how much a barely-selective predicate can
   gain. The unpromoted rows double as the pre-promotion baseline curve. *)
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
  List.iter
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
      List.iter
        (fun (name, plan) ->
          let prepared = Proteus.Db.prepare ~domains:max_domains db plan in
          let t = Util.measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ())) in
          let _, s = Proteus_engine.Executor.measure prepared.Proteus.Db.run in
          let total =
            s.Proteus_engine.Counters.morsels_skipped + s.Proteus_engine.Counters.morsels
          in
          let share =
            if total = 0 then 0.0
            else
              float_of_int s.Proteus_engine.Counters.morsels_skipped
              /. float_of_int total
          in
          promo_records := (name, mode, max_domains, t, share) :: !promo_records;
          Fmt.pr " %s=%.2fms (skip %.0f%%)" name (Util.ms t) (share *. 100.))
        cells;
      Fmt.pr "@.")
    [ ("unpromoted", false); ("promoted", true) ]

let emit_json path =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n  \"figure\": \"parallel engine\",\n  \"cells\": [\n";
  let entries = List.rev !records in
  List.iteri
    (fun i (name, domains, t) ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"cell\": %S, \"engine\": \"parallel\", \"domains\": %d, \"median_ms\": %.4f}%s\n"
           name domains (Util.ms t)
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  ],\n  \"cold_fill\": [\n";
  let colds = List.rev !cold_records in
  List.iteri
    (fun i (name, domains, t) ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"cell\": %S, \"engine\": \"cold fill\", \"domains\": %d, \"median_ms\": %.4f}%s\n"
           name domains (Util.ms t)
           (if i = List.length colds - 1 then "" else ",")))
    colds;
  Buffer.add_string buf "  ],\n  \"baseline_pre_partitioning\": [\n";
  List.iteri
    (fun i (name, domains, ms) ->
      Buffer.add_string buf
        (Fmt.str "    {\"cell\": %S, \"engine\": %S, \"domains\": %d, \"median_ms\": %.4f}%s\n"
           name
           (if domains = 0 then "serial" else "parallel")
           (max 1 domains) ms
           (if i = List.length baseline - 1 then "" else ",")))
    baseline;
  Buffer.add_string buf "  ],\n  \"baseline_pre_blit\": [\n";
  List.iteri
    (fun i (name, domains, ms) ->
      Buffer.add_string buf
        (Fmt.str "    {\"cell\": %S, \"engine\": %S, \"domains\": %d, \"median_ms\": %.4f}%s\n"
           name
           (if domains = 0 then "serial" else "parallel")
           (max 1 domains) ms
           (if i = List.length baseline_pre_blit - 1 then "" else ",")))
    baseline_pre_blit;
  Buffer.add_string buf "  ],\n  \"promotion\": [\n";
  let promos = List.rev !promo_records in
  let promo_row (name, mode, domains, t, share) last =
    Fmt.str
      "    {\"cell\": %S, \"mode\": %S, \"domains\": %d, \"median_ms\": %.4f, \
       \"skipped_morsel_share\": %.3f}%s\n"
      name mode domains (Util.ms t) share
      (if last then "" else ",")
  in
  List.iteri
    (fun i r -> Buffer.add_string buf (promo_row r (i = List.length promos - 1)))
    promos;
  (* the unpromoted warm-cache rows ARE the engine before this PR's
     promotion machinery: emit them again under the baseline key the other
     before/after curves use *)
  let pre = List.filter (fun (_, mode, _, _, _) -> mode = "unpromoted") promos in
  Buffer.add_string buf "  ],\n  \"baseline_pre_promotion\": [\n";
  List.iteri
    (fun i r -> Buffer.add_string buf (promo_row r (i = List.length pre - 1)))
    pre;
  Buffer.add_string buf
    (Fmt.str
       "  ],\n  \"metadata\": {\"recommended_domain_count\": %d, \"host_cores\": %d, \
        \"bench_max_domains\": %d}\n}\n"
       (Domain.recommended_domain_count ())
       host_cores max_domains);
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "   wrote %s (%d measurements)@." path (List.length entries)

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
    [
      cell "JSON Q6-shape (4 aggr)" jdb (q6 joc);
      cell "JSON Q1-shape (group-by)" jdb (q1 joc);
      cell "bin Q6-shape (4 aggr)" bdb (q6 boc);
      cell "bin Q1-shape (group-by)" bdb (q1 boc);
      cell "bin join (2 aggr)" bdb (join boc);
    ]
  in
  (* cold-run scaling: the cache-filling pass itself, at 1..N domains —
     since PR 5 the fill rides the morsel spine instead of forcing the
     serial fallback *)
  cold_cell "JSON Q6-shape (4 aggr)" jdb (q6 joc);
  cold_cell "JSON Q1-shape (group-by)" jdb (q1 joc);
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
  (match List.assoc_opt "Q16" squeries with
  | Some plan -> cold_cell "Symantec Q16" sdb plan
  | None -> ());
  List.iter (fun (_, plan) -> ignore (Proteus.Db.run_plan sdb (tune plan))) squeries;
  let srows =
    List.filter_map
      (fun qname ->
        match List.assoc_opt qname squeries with
        | Some plan -> Some (cell ("Symantec " ^ qname) sdb plan)
        | None -> None)
      [ "Q16"; "Q39" ]
  in
  Util.print_table
    ~title:
      (Fmt.str "Parallel engine: morsel fleet at 1..%d domains" max_domains)
    ~systems:(List.map (fun d -> Fmt.str "%d domain(s)" d) domain_counts)
    (rows @ srows);
  Util.print_note
    "1 domain runs the same fleet with one worker; cells where more domains \
     trail 1 on this machine indicate fewer cores than domains";
  scaling_row "bin Q6-shape (4 aggr)" bdb (q6 boc);
  scaling_row "bin join (2 aggr)" bdb (join boc);
  scaling_row "bin Q1-shape (group-by)" bdb (q1 boc);
  (* batch-size sweep for the vectorized lane at one domain; batch = 0 is
     the staged tuple-at-a-time lane, the ablation baseline *)
  let sweep_plan = tune (q6 boc) in
  Fmt.pr "   batch-size sweep, bin Q6-shape:";
  List.iter
    (fun bs ->
      let prepared = Proteus.Db.prepare ~batch_size:bs bdb sweep_plan in
      let t = Util.measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ())) in
      records := (Fmt.str "bin Q6-shape (batch=%d)" bs, 1, t) :: !records;
      Fmt.pr " b%d=%.2fms" bs (Util.ms t))
    [ 0; 256; 1024; 4096 ];
  Fmt.pr "@.";
  promotion_cells ();
  emit_json "BENCH_engine.json"
