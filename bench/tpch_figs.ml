(* Figures 5–13: the synthetic TPC-H microbenchmarks of Section 7.1.

   Two instances, as in the paper: a "JSON" instance (the paper's SF10) and
   a larger "binary" instance (the paper's SF100), scaled to laptop size.
   The baselines load the data up front (load time excluded here, as the
   paper's 7.1 experiments run over loaded/warm systems); Proteus builds its
   structural indexes on the first access, which we also perform before
   timing. Adaptive caching is deactivated except for Figure 13. *)

module Tpch = Proteus_tpch.Tpch
module Q = Tpch.Queries
module B = Proteus_baselines
module Cache_iface = Proteus_plugin.Cache_iface
module Registry = Proteus_plugin.Registry
module Json = Proteus_format.Json

let sf_json = try float_of_string (Sys.getenv "PROTEUS_BENCH_SF_JSON") with Not_found -> 0.005
let sf_bin = try float_of_string (Sys.getenv "PROTEUS_BENCH_SF_BIN") with Not_found -> 0.02

type json_env = {
  jd : Tpch.t;
  j_proteus : Proteus.Db.t;
  j_pg : B.Rowstore.t;
  j_dbmsx : B.Rowstore.t;
  j_monet : B.Colstore.t;
  j_dbmsc : B.Colstore.t;
  j_mongo : B.Docstore.t;
  j_setup : Util.record list;  (* index build vs baseline load times *)
}

type bin_env = {
  bd : Tpch.t;
  b_proteus : Proteus.Db.t;
  b_pg : B.Rowstore.t;
  b_dbmsx : B.Rowstore.t;
  b_monet : B.Colstore.t;
  b_dbmsc : B.Colstore.t;
}

let setup_json () =
  let jd = Tpch.generate ~sf:sf_json () in
  (* no system may exploit field order (Section 7.1), so shuffle it *)
  let li = Tpch.lineitem_json ~shuffle_fields:true jd in
  let ords = Tpch.orders_json ~shuffle_fields:true jd in
  let denorm = Tpch.denormalized_json ~shuffle_fields:true jd in
  let j_proteus = Proteus.Db.create () in
  Proteus.Db.set_caching j_proteus false;
  Proteus.Db.register_json j_proteus ~name:"lineitem" ~element:Tpch.lineitem_type
    ~contents:li;
  Proteus.Db.register_json j_proteus ~name:"orders" ~element:Tpch.order_type
    ~contents:ords;
  Proteus.Db.register_json j_proteus ~name:"denorm" ~element:Tpch.denorm_order_type
    ~contents:denorm;
  (* first (cold) access builds the structural indexes *)
  let _, proteus_index_time =
    Util.time_once (fun () ->
        List.iter
          (fun ds -> ignore (Registry.source (Proteus.Db.registry j_proteus) ds))
          [ "lineitem"; "orders"; "denorm" ])
  in
  let j_pg = B.Rowstore.create ~json_encoding:B.Rowstore.Jsonb () in
  let _, j_pg_load =
    Util.time_once (fun () ->
        B.Rowstore.load_json j_pg ~name:"lineitem" ~element:Tpch.lineitem_type li;
        B.Rowstore.load_json j_pg ~name:"orders" ~element:Tpch.order_type ords;
        B.Rowstore.load_json j_pg ~name:"denorm" ~element:Tpch.denorm_order_type denorm)
  in
  let j_dbmsx = B.Rowstore.create ~json_encoding:B.Rowstore.Text () in
  B.Rowstore.load_json j_dbmsx ~name:"lineitem" ~element:Tpch.lineitem_type li;
  B.Rowstore.load_json j_dbmsx ~name:"orders" ~element:Tpch.order_type ords;
  B.Rowstore.load_json j_dbmsx ~name:"denorm" ~element:Tpch.denorm_order_type denorm;
  let j_monet = B.Colstore.create B.Colstore.monetdb_config () in
  B.Colstore.load_json j_monet ~name:"lineitem" ~element:Tpch.lineitem_type li;
  let j_dbmsc = B.Colstore.create B.Colstore.dbmsc_config () in
  B.Colstore.load_json j_dbmsc ~name:"lineitem" ~element:Tpch.lineitem_type li;
  let j_mongo = B.Docstore.create () in
  let _, j_mongo_load =
    Util.time_once (fun () ->
        B.Docstore.load_json j_mongo ~name:"lineitem" ~element:Tpch.lineitem_type li;
        B.Docstore.load_json j_mongo ~name:"orders" ~element:Tpch.order_type ords;
        B.Docstore.load_json j_mongo ~name:"denorm" ~element:Tpch.denorm_order_type denorm)
  in
  (* Section 7.1 in-text: index size ratios and build-vs-load comparison *)
  (match Registry.index_info (Proteus.Db.registry j_proteus) "lineitem" with
  | Some info ->
    Fmt.pr
      "[setup] JSON instance: %d lineitems (%d KB); structural index %.0f%% of file, \
       built in %.0f ms, cold statistics %.0f ms (all 3 files: %.0f ms; jsonb load \
       %.0f ms, BSON load %.0f ms)@."
      (List.length jd.Tpch.lineitems)
      (String.length li / 1024)
      (100.
      *. float_of_int info.Registry.size_bytes
      /. float_of_int info.Registry.input_bytes)
      (info.Registry.build_seconds *. 1000.)
      (info.Registry.stats_seconds *. 1000.)
      (proteus_index_time *. 1000.) (j_pg_load *. 1000.) (j_mongo_load *. 1000.)
  | None -> ());
  let setup (system, cell, t) =
    Util.record ~figure:"setup" ~params:[ ("system", Json.Str system) ] cell (Util.once t)
  in
  let j_setup =
    List.map setup
      [
        ("Proteus", "structural index build", proteus_index_time);
        ("PostgreSQL", "jsonb load", j_pg_load);
        ("MongoDB", "BSON load", j_mongo_load);
      ]
  in
  { jd; j_proteus; j_pg; j_dbmsx; j_monet; j_dbmsc; j_mongo; j_setup }

let setup_bin () =
  let bd = Tpch.generate ~sf:sf_bin () in
  let b_proteus = Proteus.Db.create () in
  Proteus.Db.set_caching b_proteus false;
  Proteus.Db.register_columns b_proteus ~name:"lineitem" ~element:Tpch.lineitem_type
    (Tpch.lineitem_columns bd);
  Proteus.Db.register_columns b_proteus ~name:"orders" ~element:Tpch.order_type
    (Tpch.orders_columns bd);
  let b_pg = B.Rowstore.create () in
  B.Rowstore.load_relational b_pg ~name:"lineitem" ~element:Tpch.lineitem_type
    bd.Tpch.lineitems;
  B.Rowstore.load_relational b_pg ~name:"orders" ~element:Tpch.order_type bd.Tpch.orders;
  let b_dbmsx = B.Rowstore.create () in
  B.Rowstore.load_relational b_dbmsx ~name:"lineitem" ~element:Tpch.lineitem_type
    bd.Tpch.lineitems;
  B.Rowstore.load_relational b_dbmsx ~name:"orders" ~element:Tpch.order_type
    bd.Tpch.orders;
  let b_monet = B.Colstore.create B.Colstore.monetdb_config () in
  B.Colstore.load_relational b_monet ~name:"lineitem" ~element:Tpch.lineitem_type
    bd.Tpch.lineitems;
  B.Colstore.load_relational b_monet ~name:"orders" ~element:Tpch.order_type
    bd.Tpch.orders;
  let b_dbmsc = B.Colstore.create B.Colstore.dbmsc_config () in
  B.Colstore.load_relational b_dbmsc ~name:"lineitem" ~sort_key:"l_orderkey"
    ~element:Tpch.lineitem_type bd.Tpch.lineitems;
  B.Colstore.load_relational b_dbmsc ~name:"orders" ~sort_key:"o_orderkey"
    ~element:Tpch.order_type bd.Tpch.orders;
  Fmt.pr "[setup] binary instance: %d lineitems, %d orders@."
    (List.length bd.Tpch.lineitems)
    (List.length bd.Tpch.orders);
  { bd; b_proteus; b_pg; b_dbmsx; b_monet; b_dbmsc }

(* The systems of each figure, as (name, run) columns. *)
let json_systems e =
  [
    ("PostgreSQL", B.Rowstore.run e.j_pg);
    ("DBMS-X", B.Rowstore.run e.j_dbmsx);
    ("MonetDB", B.Colstore.run e.j_monet);
    ("DBMS-C", B.Colstore.run e.j_dbmsc);
    ("MongoDB", B.Docstore.run e.j_mongo);
    ("Proteus", Proteus.Db.run_plan e.j_proteus);
  ]

(* the JSON figures past Figure 5 leave the column stores out *)
let json_doc_systems e =
  List.filter (fun (name, _) -> name <> "MonetDB" && name <> "DBMS-C") (json_systems e)

let bin_systems e =
  [
    ("PostgreSQL", B.Rowstore.run e.b_pg);
    ("DBMS-X", B.Rowstore.run e.b_dbmsx);
    ("MonetDB", B.Colstore.run e.b_monet);
    ("DBMS-C", B.Colstore.run e.b_dbmsc);
    ("Proteus", Proteus.Db.run_plan e.b_proteus);
  ]

(* The rows of a figure: every (variant, selectivity) pair, labelled as the
   paper's x axis. *)
let sweep variants plan_of =
  List.concat_map
    (fun (vname, v) ->
      List.map
        (fun sel ->
          ( Fmt.str "%s sel=%.0f%%" vname (sel *. 100.),
            [ ("variant", Json.Str vname); ("selectivity", Json.Float sel) ],
            plan_of v sel ))
        Util.selectivities)
    variants

let projections oc =
  sweep
    [ ("1 Aggr (Count)", Q.Count1); ("1 Aggr (Max)", Q.Max1); ("4 Aggr", Q.Agg4) ]
    (fun variant selectivity ->
      Q.projection ~lineitem:"lineitem" ~order_count:oc ~variant ~selectivity)

let selections oc =
  sweep
    (List.map (fun p -> (Fmt.str "%d predicate(s)" p, p)) [ 1; 3; 4 ])
    (fun predicates selectivity ->
      Q.selection ~lineitem:"lineitem" ~order_count:oc ~predicates ~selectivity)

let joins oc =
  sweep
    [ ("Join Count", Q.JCount); ("Join Max", Q.JMax); ("Join 2 Aggr", Q.JAgg2) ]
    (fun variant selectivity ->
      Q.join ~orders:"orders" ~lineitem:"lineitem" ~order_count:oc ~variant ~selectivity)

let group_bys oc =
  sweep
    (List.map (fun a -> (Fmt.str "%d Aggr" a, a)) [ 1; 3; 4 ])
    (fun aggregates selectivity ->
      Q.group_by ~lineitem:"lineitem" ~order_count:oc ~aggregates ~selectivity)

(* Measure every (row, system) cell of one figure, print its table and
   return one record per measured cell. [sits_out system label] marks the
   cells the paper leaves empty, as it excludes systems from experiments they
   cannot serve sensibly. *)
let grid ?(sits_out = fun _ _ -> false) ~figure ~title systems rows =
  let measured =
    List.map
      (fun (label, params, plan) ->
        ( label,
          List.map
            (fun (system, run) ->
              if sits_out system label then None
              else
                let t = Util.measure (fun () -> ignore (run (Util.tune plan))) in
                Some
                  (t, Util.record ~figure ~params:(("system", Json.Str system) :: params) label t))
            systems ))
      rows
  in
  Util.print_table ~title ~systems:(List.map fst systems)
    (List.map (fun (label, cells) -> (label, List.map (Option.map fst) cells)) measured);
  List.concat_map (fun (_, cells) -> List.filter_map (Option.map snd) cells) measured

(* --- Figures 5-12 ------------------------------------------------------------ *)

let fig5 e =
  grid ~figure:"fig5" ~title:"Figure 5: JSON projections" (json_systems e)
    (projections e.jd.Tpch.order_count)

let fig6 e =
  grid ~figure:"fig6" ~title:"Figure 6: binary projections" (bin_systems e)
    (projections e.bd.Tpch.order_count)

let fig7 e =
  grid ~figure:"fig7" ~title:"Figure 7: JSON selections" (json_doc_systems e)
    (selections e.jd.Tpch.order_count)

let fig8 e =
  grid ~figure:"fig8" ~title:"Figure 8: binary selections" (bin_systems e)
    (selections e.bd.Tpch.order_count)

(* the paper lists MongoDB's join result "only for the first query as an
   indication" *)
let fig9 e =
  let oc = e.jd.Tpch.order_count in
  let unnests =
    sweep [ ("Unnest", ()) ] (fun () selectivity ->
        Q.unnest_count ~denorm:"denorm" ~order_count:oc ~selectivity)
  in
  grid ~figure:"fig9" ~title:"Figure 9: JSON joins and unnest"
    ~sits_out:(fun system label ->
      system = "MongoDB"
      && String.starts_with ~prefix:"Join" label
      && label <> "Join Count sel=10%")
    (json_doc_systems e) (joins oc @ unnests)

(* Figure 10 plus the paper's counter comparison at 20% selectivity: MonetDB
   vs Proteus, hardware counters proxied by interpretation/materialization
   counts. *)
let fig10 e =
  let oc = e.bd.Tpch.order_count in
  let cells =
    grid ~figure:"fig10" ~title:"Figure 10: binary joins" (bin_systems e) (joins oc)
  in
  let plan =
    Util.tune
      (Q.join ~orders:"orders" ~lineitem:"lineitem" ~order_count:oc ~variant:Q.JCount
         ~selectivity:0.2)
  in
  let module C = Proteus_engine.Counters in
  let counted name run =
    let (_, s), t = Util.time_once (fun () -> Proteus_engine.Executor.measure run) in
    let r =
      Util.record ~figure:"fig10_counters"
        ~params:[ ("selectivity", Json.Float 0.2) ]
        ~counters:[ ("materialized", s.C.materialized); ("dispatches", s.C.dispatches) ]
        name (Util.once t)
    in
    Fmt.pr "     %-22s %14d %14d@." name s.C.materialized s.C.dispatches;
    (r, s)
  in
  Fmt.pr "   counter proxies (join, sel=20%%; hardware-counter analogues):@.";
  Fmt.pr "     %-22s %14s %14s@." "" "materialized" "interp.dispatch";
  let r_monet, monet =
    counted "MonetDB-like (col-at-a-time)" (fun () -> B.Colstore.run e.b_monet plan)
  in
  let r_volcano, volcano =
    counted "interpreted (Volcano)" (fun () ->
        Proteus.Db.run_plan ~engine:Proteus.Db.Engine_volcano e.b_proteus plan)
  in
  let r_compiled, compiled =
    counted "Proteus (compiled)" (fun () -> Proteus.Db.run_plan e.b_proteus plan)
  in
  let ratio a b = if b = 0 then Float.infinity else float_of_int a /. float_of_int b in
  Fmt.pr
    "     Proteus materializes %.1fx fewer values than the columnar engine \
     (the paper: 10x fewer LLC / 40x fewer dTLB misses) and removes all %d \
     per-tuple interpretation dispatches (the paper: 2x fewer branches)@."
    (ratio monet.C.materialized (max 1 compiled.C.materialized))
    volcano.C.dispatches;
  cells @ [ r_monet; r_volcano; r_compiled ]

let fig11 e =
  grid ~figure:"fig11" ~title:"Figure 11: JSON group-bys" (json_doc_systems e)
    (group_bys e.jd.Tpch.order_count)

let fig12 e =
  grid ~figure:"fig12" ~title:"Figure 12: binary group-bys" (bin_systems e)
    (group_bys e.bd.Tpch.order_count)

(* --- Figure 13: effect of caching ------------------------------------------- *)

let fig13 () =
  let jd = Tpch.generate ~sf:sf_json () in
  let li = Tpch.lineitem_json ~shuffle_fields:true jd in
  let oc = jd.Tpch.order_count in
  (* baseline: the configuration of the previous figures (caching off) *)
  let base = Proteus.Db.create () in
  Proteus.Db.set_caching base false;
  Proteus.Db.register_json base ~name:"lineitem" ~element:Tpch.lineitem_type ~contents:li;
  ignore (Registry.source (Proteus.Db.registry base) "lineitem");
  (* cached-predicate: a previous query already cached the predicate field;
     the cache is then frozen read-only so timings measure reuse, not
     population *)
  let cached = Proteus.Db.create () in
  Proteus.Db.register_json cached ~name:"lineitem" ~element:Tpch.lineitem_type
    ~contents:li;
  ignore
    (Proteus.Db.run_plan cached
       (Q.projection ~lineitem:"lineitem" ~order_count:oc ~variant:Q.Count1
          ~selectivity:1.0));
  let mgr = Proteus.Db.cache_manager cached in
  let read_only =
    {
      (Proteus_cache.Manager.iface mgr) with
      Cache_iface.should_cache_field = (fun ~dataset:_ ~path:_ ~ty:_ ~rows:_ -> false);
    }
  in
  Registry.set_cache (Proteus.Db.registry cached) read_only;
  Fmt.pr "@.== Figure 13: caching speedup over JSON (cache: %.1f%% of file) ==@."
    (100.
    *. float_of_int (Proteus_cache.Manager.resident_bytes mgr)
    /. float_of_int (String.length li));
  Fmt.pr "%-26s%14s%14s%14s@." "" "baseline" "cached-pred" "speedup";
  List.concat_map
    (fun (label, mk) ->
      List.concat_map
        (fun sel ->
          let plan = mk sel in
          let cell = Fmt.str "%s sel=%.0f%%" label (sel *. 100.) in
          (* engine generation happens once; samples time pure execution *)
          let time system db =
            let prepared = Proteus.Db.prepare db plan in
            let t = Util.measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ())) in
            Util.record ~figure:"fig13"
              ~params:[ ("system", Json.Str system); ("selectivity", Json.Float sel) ]
              cell t
          in
          let r_base = time "baseline" base in
          let r_cached = time "cached-pred" cached in
          let t_base = r_base.Util.time.median and t_cached = r_cached.Util.time.median in
          Fmt.pr "%-26s%11.2fms %11.2fms %13.1fx@." cell (Util.ms t_base)
            (Util.ms t_cached) (t_base /. t_cached);
          [ r_base; r_cached ])
        Util.selectivities)
    [
      ( "Projection template",
        fun sel ->
          Q.projection ~lineitem:"lineitem" ~order_count:oc ~variant:Q.Agg4
            ~selectivity:sel );
      ( "Selection template",
        fun sel ->
          Q.selection ~lineitem:"lineitem" ~order_count:oc ~predicates:4
            ~selectivity:sel );
    ]

(* The environments are returned for the parallel figure, which reuses the
   loaded instances. *)
let run_all () =
  let je = setup_json () in
  let be = setup_bin () in
  let figs =
    [ (fun () -> je.j_setup); (fun () -> fig5 je); (fun () -> fig6 be);
      (fun () -> fig7 je); (fun () -> fig8 be); (fun () -> fig9 je);
      (fun () -> fig10 be); (fun () -> fig11 je); (fun () -> fig12 be); fig13 ]
  in
  (* in order: a list literal would evaluate its figures right to left *)
  (je, be, List.concat_map (fun fig -> fig ()) figs)
