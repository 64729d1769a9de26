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

let sf_json = try float_of_string (Sys.getenv "PROTEUS_BENCH_SF_JSON") with Not_found -> 0.005
let sf_bin = try float_of_string (Sys.getenv "PROTEUS_BENCH_SF_BIN") with Not_found -> 0.02

(* plans handed to every system get the same optimizer courtesy the real
   systems' own optimizers would provide: pushdown + join keys *)
let tune plan =
  Proteus_optimizer.Rewrite.extract_join_keys
    (Proteus_optimizer.Rewrite.pushdown_selections plan)

type json_env = {
  jd : Tpch.t;
  j_proteus : Proteus.Db.t;
  j_pg : B.Rowstore.t;
  j_dbmsx : B.Rowstore.t;
  j_monet : B.Colstore.t;
  j_dbmsc : B.Colstore.t;
  j_mongo : B.Docstore.t;
  j_pg_load : float;
  j_mongo_load : float;
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
       built in %.0f ms (all 3 files: %.0f ms; jsonb load %.0f ms, BSON load %.0f ms)@."
      (List.length jd.Tpch.lineitems)
      (String.length li / 1024)
      (100.
      *. float_of_int info.Registry.size_bytes
      /. float_of_int info.Registry.input_bytes)
      (info.Registry.build_seconds *. 1000.)
      (proteus_index_time *. 1000.) (j_pg_load *. 1000.) (j_mongo_load *. 1000.)
  | None -> ());
  { jd; j_proteus; j_pg; j_dbmsx; j_monet; j_dbmsc; j_mongo; j_pg_load; j_mongo_load }

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

(* run one plan on one system; None marks "not applicable", as the paper
   excludes systems from experiments they cannot serve sensibly *)
let cell run plan = Some (Util.measure (fun () -> ignore (run (tune plan))))

let proteus_run db plan = Proteus.Db.run_plan db plan

(* --- Figure 5: JSON projections -------------------------------------------- *)

let fig5 (e : json_env) =
  let oc = e.jd.Tpch.order_count in
  let rows =
    List.concat_map
      (fun (vname, variant) ->
        List.map
          (fun sel ->
            let plan = Q.projection ~lineitem:"lineitem" ~order_count:oc ~variant ~selectivity:sel in
            ( Fmt.str "%s sel=%.0f%%" vname (sel *. 100.),
              [
                cell (B.Rowstore.run e.j_pg) plan;
                cell (B.Rowstore.run e.j_dbmsx) plan;
                cell (B.Colstore.run e.j_monet) plan;
                cell (B.Colstore.run e.j_dbmsc) plan;
                cell (B.Docstore.run e.j_mongo) plan;
                cell (proteus_run e.j_proteus) plan;
              ] ))
          Util.selectivities)
      [ ("1 Aggr (Count)", Q.Count1); ("1 Aggr (Max)", Q.Max1); ("4 Aggr", Q.Agg4) ]
  in
  Util.print_table ~title:"Figure 5: JSON projections"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MonetDB"; "DBMS-C"; "MongoDB"; "Proteus" ]
    rows

(* --- Figure 6: binary projections ------------------------------------------ *)

let fig6 (e : bin_env) =
  let oc = e.bd.Tpch.order_count in
  let rows =
    List.concat_map
      (fun (vname, variant) ->
        List.map
          (fun sel ->
            let plan = Q.projection ~lineitem:"lineitem" ~order_count:oc ~variant ~selectivity:sel in
            ( Fmt.str "%s sel=%.0f%%" vname (sel *. 100.),
              [
                cell (B.Rowstore.run e.b_pg) plan;
                cell (B.Rowstore.run e.b_dbmsx) plan;
                cell (B.Colstore.run e.b_monet) plan;
                cell (B.Colstore.run e.b_dbmsc) plan;
                cell (proteus_run e.b_proteus) plan;
              ] ))
          Util.selectivities)
      [ ("1 Aggr (Count)", Q.Count1); ("1 Aggr (Max)", Q.Max1); ("4 Aggr", Q.Agg4) ]
  in
  Util.print_table ~title:"Figure 6: binary projections"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MonetDB"; "DBMS-C"; "Proteus" ]
    rows

(* --- Figures 7/8: selections ------------------------------------------------ *)

let fig7 (e : json_env) =
  let oc = e.jd.Tpch.order_count in
  let rows =
    List.concat_map
      (fun predicates ->
        List.map
          (fun sel ->
            let plan = Q.selection ~lineitem:"lineitem" ~order_count:oc ~predicates ~selectivity:sel in
            ( Fmt.str "%d predicate(s) sel=%.0f%%" predicates (sel *. 100.),
              [
                cell (B.Rowstore.run e.j_pg) plan;
                cell (B.Rowstore.run e.j_dbmsx) plan;
                cell (B.Docstore.run e.j_mongo) plan;
                cell (proteus_run e.j_proteus) plan;
              ] ))
          Util.selectivities)
      [ 1; 3; 4 ]
  in
  Util.print_table ~title:"Figure 7: JSON selections"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MongoDB"; "Proteus" ]
    rows

let fig8 (e : bin_env) =
  let oc = e.bd.Tpch.order_count in
  let rows =
    List.concat_map
      (fun predicates ->
        List.map
          (fun sel ->
            let plan = Q.selection ~lineitem:"lineitem" ~order_count:oc ~predicates ~selectivity:sel in
            ( Fmt.str "%d predicate(s) sel=%.0f%%" predicates (sel *. 100.),
              [
                cell (B.Rowstore.run e.b_pg) plan;
                cell (B.Rowstore.run e.b_dbmsx) plan;
                cell (B.Colstore.run e.b_monet) plan;
                cell (B.Colstore.run e.b_dbmsc) plan;
                cell (proteus_run e.b_proteus) plan;
              ] ))
          Util.selectivities)
      [ 1; 3; 4 ]
  in
  Util.print_table ~title:"Figure 8: binary selections"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MonetDB"; "DBMS-C"; "Proteus" ]
    rows

(* --- Figure 9: JSON joins + unnest ------------------------------------------ *)

let fig9 (e : json_env) =
  let oc = e.jd.Tpch.order_count in
  let join_rows =
    List.concat_map
      (fun (vname, variant) ->
        List.map
          (fun sel ->
            let plan =
              Q.join ~orders:"orders" ~lineitem:"lineitem" ~order_count:oc ~variant
                ~selectivity:sel
            in
            ( Fmt.str "%s sel=%.0f%%" vname (sel *. 100.),
              [
                cell (B.Rowstore.run e.j_pg) plan;
                cell (B.Rowstore.run e.j_dbmsx) plan;
                (* the paper lists MongoDB's join result "only for the first
                   query as an indication" *)
                (if variant = Q.JCount && sel <= 0.1 then
                   cell (B.Docstore.run e.j_mongo) plan
                 else None);
                cell (proteus_run e.j_proteus) plan;
              ] ))
          Util.selectivities)
      [ ("Join Count", Q.JCount); ("Join Max", Q.JMax); ("Join 2 Aggr", Q.JAgg2) ]
  in
  let unnest_rows =
    List.map
      (fun sel ->
        let plan = Q.unnest_count ~denorm:"denorm" ~order_count:oc ~selectivity:sel in
        ( Fmt.str "Unnest sel=%.0f%%" (sel *. 100.),
          [
            cell (B.Rowstore.run e.j_pg) plan;
            cell (B.Rowstore.run e.j_dbmsx) plan;
            cell (B.Docstore.run e.j_mongo) plan;
            cell (proteus_run e.j_proteus) plan;
          ] ))
      Util.selectivities
  in
  Util.print_table ~title:"Figure 9: JSON joins and unnest"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MongoDB"; "Proteus" ]
    (join_rows @ unnest_rows)

(* --- Figure 10: binary joins + counter proxies ------------------------------ *)

let fig10 (e : bin_env) =
  let oc = e.bd.Tpch.order_count in
  let rows =
    List.concat_map
      (fun (vname, variant) ->
        List.map
          (fun sel ->
            let plan =
              Q.join ~orders:"orders" ~lineitem:"lineitem" ~order_count:oc ~variant
                ~selectivity:sel
            in
            ( Fmt.str "%s sel=%.0f%%" vname (sel *. 100.),
              [
                cell (B.Rowstore.run e.b_pg) plan;
                cell (B.Rowstore.run e.b_dbmsx) plan;
                cell (B.Colstore.run e.b_monet) plan;
                cell (B.Colstore.run e.b_dbmsc) plan;
                cell (proteus_run e.b_proteus) plan;
              ] ))
          Util.selectivities)
      [ ("Join Count", Q.JCount); ("Join Max", Q.JMax); ("Join 2 Aggr", Q.JAgg2) ]
  in
  Util.print_table ~title:"Figure 10: binary joins"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MonetDB"; "DBMS-C"; "Proteus" ]
    rows;
  (* the paper's counter comparison at 20% selectivity: MonetDB vs Proteus,
     hardware counters proxied by interpretation/materialization counts *)
  let plan =
    tune (Q.join ~orders:"orders" ~lineitem:"lineitem" ~order_count:oc ~variant:Q.JCount ~selectivity:0.2)
  in
  let module C = Proteus_engine.Counters in
  let snap run = snd (Proteus_engine.Executor.measure run) in
  let monet = snap (fun () -> B.Colstore.run e.b_monet plan) in
  let compiled = snap (fun () -> proteus_run e.b_proteus plan) in
  let volcano =
    snap (fun () ->
        Proteus.Db.run_plan ~engine:Proteus.Db.Engine_volcano e.b_proteus plan)
  in
  Fmt.pr "   counter proxies (join, sel=20%%; hardware-counter analogues):@.";
  Fmt.pr "     %-22s %14s %14s@." "" "materialized" "interp.dispatch";
  Fmt.pr "     %-22s %14d %14d@." "MonetDB-like (col-at-a-time)" monet.C.materialized
    monet.C.dispatches;
  Fmt.pr "     %-22s %14d %14d@." "interpreted (Volcano)" volcano.C.materialized
    volcano.C.dispatches;
  Fmt.pr "     %-22s %14d %14d@." "Proteus (compiled)" compiled.C.materialized
    compiled.C.dispatches;
  let ratio a b = if b = 0 then Float.infinity else float_of_int a /. float_of_int b in
  Fmt.pr
    "     Proteus materializes %.1fx fewer values than the columnar engine \
     (the paper: 10x fewer LLC / 40x fewer dTLB misses) and removes all %d \
     per-tuple interpretation dispatches (the paper: 2x fewer branches)@."
    (ratio monet.C.materialized (max 1 compiled.C.materialized))
    volcano.C.dispatches

(* --- Figures 11/12: group-bys ------------------------------------------------ *)

let fig11 (e : json_env) =
  let oc = e.jd.Tpch.order_count in
  let rows =
    List.concat_map
      (fun aggregates ->
        List.map
          (fun sel ->
            let plan = Q.group_by ~lineitem:"lineitem" ~order_count:oc ~aggregates ~selectivity:sel in
            ( Fmt.str "%d Aggr sel=%.0f%%" aggregates (sel *. 100.),
              [
                cell (B.Rowstore.run e.j_pg) plan;
                cell (B.Rowstore.run e.j_dbmsx) plan;
                cell (B.Docstore.run e.j_mongo) plan;
                cell (proteus_run e.j_proteus) plan;
              ] ))
          Util.selectivities)
      [ 1; 3; 4 ]
  in
  Util.print_table ~title:"Figure 11: JSON group-bys"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MongoDB"; "Proteus" ]
    rows

let fig12 (e : bin_env) =
  let oc = e.bd.Tpch.order_count in
  let rows =
    List.concat_map
      (fun aggregates ->
        List.map
          (fun sel ->
            let plan = Q.group_by ~lineitem:"lineitem" ~order_count:oc ~aggregates ~selectivity:sel in
            ( Fmt.str "%d Aggr sel=%.0f%%" aggregates (sel *. 100.),
              [
                cell (B.Rowstore.run e.b_pg) plan;
                cell (B.Rowstore.run e.b_dbmsx) plan;
                cell (B.Colstore.run e.b_monet) plan;
                cell (B.Colstore.run e.b_dbmsc) plan;
                cell (proteus_run e.b_proteus) plan;
              ] ))
          Util.selectivities)
      [ 1; 3; 4 ]
  in
  Util.print_table ~title:"Figure 12: binary group-bys"
    ~systems:[ "PostgreSQL"; "DBMS-X"; "MonetDB"; "DBMS-C"; "Proteus" ]
    rows

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
      Cache_iface.should_cache_field = (fun ~dataset:_ ~path:_ ~ty:_ -> false);
    }
  in
  Registry.set_cache (Proteus.Db.registry cached) read_only;
  Fmt.pr "@.== Figure 13: caching speedup over JSON (cache: %.1f%% of file) ==@."
    (100.
    *. float_of_int (Proteus_cache.Manager.resident_bytes mgr)
    /. float_of_int (String.length li));
  Fmt.pr "%-26s%14s%14s%14s@." "" "baseline" "cached-pred" "speedup";
  List.iter
    (fun (label, mk) ->
      List.iter
        (fun sel ->
          let plan = mk sel in
          (* engine generation happens once; samples time pure execution *)
          let p_base = Proteus.Db.prepare_plan base plan in
          let p_cached = Proteus.Db.prepare_plan cached plan in
          let t_base = Util.measure_n 9 (fun () -> ignore (p_base.Proteus.Db.run ())) in
          let t_cached =
            Util.measure_n 9 (fun () -> ignore (p_cached.Proteus.Db.run ()))
          in
          Fmt.pr "%-26s%11.2fms %11.2fms %13.1fx@."
            (Fmt.str "%s sel=%.0f%%" label (sel *. 100.))
            (Util.ms t_base) (Util.ms t_cached) (t_base /. t_cached))
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

let run_all () =
  let je = setup_json () in
  let be = setup_bin () in
  fig5 je;
  fig6 be;
  fig7 je;
  fig8 be;
  fig9 je;
  fig10 be;
  fig11 je;
  fig12 be;
  fig13 ();
  (je, be)
