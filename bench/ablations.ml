(* Ablations over the design choices DESIGN.md calls out:

   A. engine-per-query (closure-compiled) vs Volcano interpretation —
      Section 5.1's reason to exist;
   B. the fixed-schema structural-index fast path (shared Level 0 with
      compile-time slot resolution) vs the flexible per-object Level 0 —
      Section 5.2 "Specializing per Dataset Contents";
   C. implicit caching of join build sides (reusing the materialized side
      of a previous radix join) — Section 6;
   E. the vectorized lane (batch kernels over selection vectors) vs the
      staged tuple-at-a-time lane of the same specialized engine. *)

module Tpch = Proteus_tpch.Tpch
module Q = Tpch.Queries
module Manager = Proteus_cache.Manager
module Json = Proteus_format.Json

(* Each ablation pits two variants of one design choice against each other;
   [variant] names which side a cell measures. *)
let pair ~figure cell (v1, t1) (v2, t2) =
  let r variant t =
    Util.record ~figure ~params:[ ("variant", Json.Str variant) ] cell t
  in
  [ r v1 t1; r v2 t2 ]

let mk_db ?caching ~register () =
  let db = Proteus.Db.create ?caching () in
  (match caching with None -> Proteus.Db.set_caching db false | Some _ -> ());
  register db;
  db

let run_all () =
  let d = Tpch.generate ~sf:Tpch_figs.sf_json () in
  let oc = d.Tpch.order_count in
  Fmt.pr "@.== Ablations ==@.";

  (* A: compiled vs interpreted, over raw JSON and binary columns *)
  let db =
    mk_db
      ~register:(fun db ->
        Proteus.Db.register_json db ~name:"li_json" ~element:Tpch.lineitem_type
          ~contents:(Tpch.lineitem_json d);
        Proteus.Db.register_columns db ~name:"li_col" ~element:Tpch.lineitem_type
          (Tpch.lineitem_columns d);
        Proteus.Db.register_columns db ~name:"ord_col" ~element:Tpch.order_type
          (Tpch.orders_columns d))
      ()
  in
  Fmt.pr "A. engine-per-query vs Volcano interpretation:@.";
  let a =
    List.concat_map
      (fun (label, plan) ->
        let t_c =
          Util.measure (fun () ->
              ignore (Proteus.Db.run_plan ~engine:Proteus.Db.Engine_compiled db plan))
        in
        let t_v =
          Util.measure (fun () ->
              ignore (Proteus.Db.run_plan ~engine:Proteus.Db.Engine_volcano db plan))
        in
        Fmt.pr "   %-34s compiled %8.2fms   volcano %8.2fms   (%.1fx)@." label
          (Util.ms t_c.median) (Util.ms t_v.median) (t_v.median /. t_c.median);
        pair ~figure:"ablation_A" label ("compiled", t_c) ("volcano", t_v))
      [
        ( "4-agg scan, binary, sel=50%",
          Q.projection ~lineitem:"li_col" ~order_count:oc ~variant:Q.Agg4 ~selectivity:0.5 );
        ( "4-agg scan, raw JSON, sel=50%",
          Q.projection ~lineitem:"li_json" ~order_count:oc ~variant:Q.Agg4 ~selectivity:0.5 );
        ( "join, binary, sel=20%",
          Q.join ~orders:"ord_col" ~lineitem:"li_col" ~order_count:oc ~variant:Q.JCount
            ~selectivity:0.2 );
        ( "group-by 4 aggs, binary",
          Q.group_by ~lineitem:"li_col" ~order_count:oc ~aggregates:4 ~selectivity:1.0 );
      ]
  in

  (* B: fixed-schema JSON fast path. The TPC-H JSON writer emits every
     object with the same field order (machine-generated data), which the
     index detects; shuffling each object's fields forces the flexible
     per-object Level-0 path. *)
  let shuffled_json = Tpch.lineitem_json ~shuffle_fields:true d in
  let db_shuffled =
    mk_db
      ~register:(fun db ->
        Proteus.Db.register_json db ~name:"li_json" ~element:Tpch.lineitem_type
          ~contents:shuffled_json)
      ()
  in
  let plan =
    Q.projection ~lineitem:"li_json" ~order_count:oc ~variant:Q.Agg4 ~selectivity:1.0
  in
  let t_fixed = Util.measure (fun () -> ignore (Proteus.Db.run_plan db plan)) in
  let t_flex =
    Util.measure (fun () -> ignore (Proteus.Db.run_plan db_shuffled plan))
  in
  Fmt.pr
    "B. structural index: fixed-schema fast path %8.2fms   flexible Level-0 %8.2fms \
     (%.2fx)@."
    (Util.ms t_fixed.median) (Util.ms t_flex.median) (t_flex.median /. t_fixed.median);
  let b =
    pair ~figure:"ablation_B" "4-agg scan, raw JSON, sel=100%" ("fixed-schema", t_fixed)
      ("flexible", t_flex)
  in

  (* C: implicit caching of join build sides *)
  let join_plan =
    Q.join ~orders:"ord_col" ~lineitem:"li_json" ~order_count:oc ~variant:Q.JCount
      ~selectivity:0.5
  in
  let register db =
    Proteus.Db.register_json db ~name:"li_json" ~element:Tpch.lineitem_type
      ~contents:(Tpch.lineitem_json d);
    Proteus.Db.register_columns db ~name:"ord_col" ~element:Tpch.order_type
      (Tpch.orders_columns d)
  in
  let db_nocache = mk_db ~register () in
  let db_joincache =
    mk_db
      ~caching:
        { Manager.config_disabled with cache_join_sides = true }
      ~register ()
  in
  ignore (Proteus.Db.run_plan db_nocache join_plan);
  ignore (Proteus.Db.run_plan db_joincache join_plan) (* populates the side *);
  let t_cold = Util.measure (fun () -> ignore (Proteus.Db.run_plan db_nocache join_plan)) in
  let t_reuse =
    Util.measure (fun () -> ignore (Proteus.Db.run_plan db_joincache join_plan))
  in
  Fmt.pr "C. implicit join-side caching: rebuild %8.2fms   reuse %8.2fms (%.1fx)@."
    (Util.ms t_cold.median) (Util.ms t_reuse.median) (t_cold.median /. t_reuse.median);
  let c =
    pair ~figure:"ablation_C" "join, JSON x binary, sel=50%" ("rebuild", t_cold)
      ("reuse", t_reuse)
  in

  (* E: vectorized vs staged tuple execution — same plan, same specialized
     engine, over binary columns where batch getters are memcpy-like; a
     selective predicate exercises the selection-vector compaction. The two
     lanes must agree bit for bit. *)
  let sel_plan =
    Q.projection ~lineitem:"li_col" ~order_count:oc ~variant:Q.Agg4 ~selectivity:0.2
  in
  let r_batch = ref Proteus_model.Value.Null in
  let r_tuple = ref Proteus_model.Value.Null in
  let t_batch = Util.measure (fun () -> r_batch := Proteus.Db.run_plan db sel_plan) in
  let t_tuple =
    Util.measure (fun () -> r_tuple := Proteus.Db.run_plan ~batch_size:0 db sel_plan)
  in
  if not (Proteus_model.Value.equal !r_batch !r_tuple) then
    failwith "ablation E: the vectorized and tuple lanes disagree";
  Fmt.pr
    "E. vectorized lane, binary scan-agg sel=20%%: batch %8.2fms   tuple-at-a-time \
     %8.2fms (%.2fx)@."
    (Util.ms t_batch.median) (Util.ms t_tuple.median) (t_tuple.median /. t_batch.median);
  a @ b @ c
  @ pair ~figure:"ablation_E" "4-agg scan, binary, sel=20%" ("batch", t_batch)
      ("tuple", t_tuple)
