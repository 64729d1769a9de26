(* TPC-H analytics across data representations: the same lineitem data as
   raw JSON, raw CSV, and binary columns, queried by the same plans — and a
   look at what per-query engine generation buys over interpretation.

   Run with: dune exec examples/tpch_analytics.exe *)

open Proteus_model
module Tpch = Proteus_tpch.Tpch

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let sf = 0.002 in
  Fmt.pr "generating TPC-H data at SF %g ...@." sf;
  let d = Tpch.generate ~sf () in
  Fmt.pr "  %d orders, %d lineitems@.@." d.Tpch.order_count
    (List.length d.Tpch.lineitems);

  let db = Proteus.Db.create () in
  Proteus.Db.register_json db ~name:"lineitem_json" ~element:Tpch.lineitem_type
    ~contents:(Tpch.lineitem_json d);
  Proteus.Db.register_csv db ~name:"lineitem_csv" ~element:Tpch.lineitem_type
    ~contents:(Tpch.lineitem_csv d) ();
  Proteus.Db.register_columns db ~name:"lineitem_col" ~element:Tpch.lineitem_type
    (Tpch.lineitem_columns d);

  (* the same logical query over three physical representations *)
  Fmt.pr "Q: SELECT COUNT(*), MAX(l_quantity) FROM lineitem WHERE l_orderkey < 20%%@.";
  List.iter
    (fun ds ->
      let plan =
        Tpch.Queries.projection ~lineitem:ds ~order_count:d.Tpch.order_count
          ~variant:Tpch.Queries.Agg4 ~selectivity:0.2
      in
      (* first run is cold: it builds the structural index *)
      let r, cold = time (fun () -> Proteus.Db.run_plan db plan) in
      let _, warm = time (fun () -> Proteus.Db.run_plan db plan) in
      Fmt.pr "  %-14s cold %6.1f ms   warm %6.1f ms   -> %a@." ds (cold *. 1000.)
        (warm *. 1000.) Value.pp r)
    [ "lineitem_json"; "lineitem_csv"; "lineitem_col" ];

  (* engine ablation: the specialized engine vs the Volcano interpreter *)
  Fmt.pr "@.engine-per-query vs interpretation (binary columns, 50%% selectivity):@.";
  let plan =
    Tpch.Queries.projection ~lineitem:"lineitem_col" ~order_count:d.Tpch.order_count
      ~variant:Tpch.Queries.Count1 ~selectivity:0.5
  in
  List.iter
    (fun (name, engine) ->
      let (_, c), secs =
        time (fun () ->
            Proteus_engine.Executor.measure (fun () ->
                Proteus.Db.run_plan ~engine db plan))
      in
      Fmt.pr "  %-9s %6.1f ms   (%a)@." name (secs *. 1000.)
        Proteus_engine.Counters.pp c)
    [ ("compiled", Proteus.Db.Engine_compiled); ("volcano", Proteus.Db.Engine_volcano) ];

  (* group-by over the JSON representation *)
  let plan =
    Tpch.Queries.group_by ~lineitem:"lineitem_json" ~order_count:d.Tpch.order_count
      ~aggregates:3 ~selectivity:1.0
  in
  let rows, _ = time (fun () -> Proteus.Db.run_plan db plan) in
  Fmt.pr "@.per-linenumber aggregates over raw JSON:@.";
  List.iter (fun row -> Fmt.pr "  %a@." Value.pp row) (Value.elements rows)
