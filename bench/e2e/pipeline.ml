(* The query path of the in-process workloads.

   An untraced request calls the public one-shot entry point
   ([Proteus.Db.sql] / [Proteus.Db.run_plan]). A traced request calls the
   functions that entry point chains — parse, plan and validate, stage,
   run — with one span around each, plus a timed [Registry.source] per
   input between planning and staging: the structural-index build on first
   touch (and after an append), a memoized lookup otherwise. The work is
   the same, only decomposed. Encoding the answer as the CLI would is timed
   after the request, outside its wall clock. *)

module Plan = Proteus_algebra.Plan
module Registry = Proteus_plugin.Registry
module Compiled = Proteus_engine.Compiled
module Optimizer = Proteus_optimizer.Optimizer

type query = Sql of string | Plan of Plan.t

let run db = function
  | Sql q -> Proteus.Db.sql ~domains:Common.domains db q
  | Plan p -> Proteus.Db.run_plan ~domains:Common.domains db p

let traced (l : Layers.t) db ~rid query =
  let tr = l.trace in
  let span ~parent name f = Trace.span tr ~rid ~parent name (fun _ -> f ()) in
  let v =
    Layers.counted l db (fun () ->
        Trace.span tr ~rid "request" (fun root ->
            let plan =
              match query with
              | Sql q ->
                (* the workloads' SQL has no ORDER BY / HAVING / LIMIT and
                   qualifies every column of a join, so the statement body
                   is the whole query and no catalog resolver is needed *)
                let stmt =
                  span ~parent:root "lang.parse" (fun () -> Proteus_lang.Sql.parse_statement q)
                in
                span ~parent:root "optimizer.plan" (fun () ->
                    let p =
                      Optimizer.plan_of_calculus (Proteus.Db.catalog db)
                        stmt.Proteus_lang.Sql.body
                    in
                    Plan.validate p;
                    p)
              | Plan p ->
                span ~parent:root "optimizer.plan" (fun () ->
                    let p = Optimizer.optimize (Proteus.Db.catalog db) p in
                    Plan.validate p;
                    p)
            in
            let reg = Proteus.Db.registry db in
            span ~parent:root "plugin.index" (fun () ->
                List.iter (fun d -> ignore (Registry.source reg d)) (Plan.datasets plan));
            let staged =
              span ~parent:root "engine.stage" (fun () ->
                  Compiled.prepare_par reg ~domains:Common.domains plan)
            in
            span ~parent:root "engine.exec" staged))
  in
  Trace.span tr ~rid "proteus.encode" (fun _ -> ignore (Proteus.Output.to_json v));
  v

(* One request of a workload: traced or not, timed either way. Traced runs
   interleave traced and untraced requests ([trace_this] picks), so the
   tracing overhead is measured on the same stream. *)
let request (cfg : Common.config) db ~rid ~trace_this query =
  match cfg.layers with
  | Some l when trace_this -> Common.timed (fun () -> traced l db ~rid query)
  | Some l ->
    let v, dt = Common.timed (fun () -> run db query) in
    Layers.note l ~traced:false dt;
    (v, dt)
  | None -> Common.timed (fun () -> run db query)
