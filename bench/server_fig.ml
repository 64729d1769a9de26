(* Prepare-once/run-many: first-compile vs slot-rebind latency on one plan
   shape, measured through the query server's engine cache itself. The miss
   pays optimize + staging, the hits pay key computation + bind + run. Both
   cells execute the query, so the ratio understates the raw staging
   speedup. Throughput and tail latency of prepared serving over the wire
   are the gated benchmark's [serve_prepared] workload (bench/e2e). *)

module Value = Proteus_model.Value
module Ptype = Proteus_model.Ptype
module Schema = Proteus_model.Schema
module Engine_cache = Proteus_server.Engine_cache
module Json = Proteus_format.Json

let rows = 4_000

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float);
      ("name", Ptype.String) ]

let make_db () =
  let items =
    List.init rows (fun i ->
        Value.record
          [ ("k", Value.Int i); ("grp", Value.Int (i mod 7));
            ("price", Value.Float (float_of_int ((i * 37) mod 1000) /. 4.0));
            ("name", Value.String (Fmt.str "n%d" (i mod 13))) ])
  in
  let db = Proteus.Db.create () in
  Proteus.Db.register_csv db ~name:"items_csv" ~element:item_type
    ~contents:
      (Proteus_format.Csv.of_records Proteus_format.Csv.default_config
         (Schema.of_type item_type) items)
    ();
  db

let run_all () =
  Fmt.pr "@.== Query server: first compile vs cached re-bind ==@.";
  let db = make_db () in
  let cache = Engine_cache.create db in
  let acquire v =
    let t0 = Unix.gettimeofday () in
    let lease =
      Engine_cache.acquire cache
        (Proteus.Db.plan_sql db
           (Fmt.str "SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < %d" v))
    in
    let dt = Unix.gettimeofday () -. t0 in
    ignore (Engine_cache.run lease);
    Engine_cache.release lease ~clean:true;
    dt
  in
  let prepare = Util.once (acquire 100) in
  let rebind = Util.summarize (List.init 21 (fun i -> acquire (100 + (i * 53) mod rows))) in
  Fmt.pr "   first compile %.3fms, cached re-bind %.3fms (%.1fx)@."
    (Util.ms prepare.Util.median) (Util.ms rebind.Util.median)
    (prepare.Util.median /. rebind.Util.median);
  List.map
    (fun (cell, t) ->
      Util.record ~figure:"prepare_vs_rebind" ~params:[ ("rows", Json.Int rows) ] cell t)
    [ ("first compile", prepare); ("cached rebind", rebind) ]
