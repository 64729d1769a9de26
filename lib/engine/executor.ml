open Proteus_model

type engine = Engine_compiled | Engine_volcano

let execute ?batch_size ?(domains = 1) reg ~engine plan =
  Proteus_algebra.Plan.validate plan;
  match engine with
  | Engine_compiled -> Compiled.prepare_par ?batch_size reg ~domains plan ()
  | Engine_volcano -> Volcano.execute reg plan

type outcome =
  | Completed of Value.t * Fault.report
  | Failed of Fault.report * exn
  | Timed_out of Fault.report
  | Cancelled of Fault.report

(* The lifecycle every query goes through: install a fresh context, run
   [f] under it, then finish the context (its counters fold into the
   process totals before the outcome returns). *)
let enter ?(policy = Fault.Fail_fast) ?max_errors ?deadline ?(on_ctx = ignore) f =
  let ctx = Fault.install ~policy ?max_errors ?deadline () in
  let result =
    match
      on_ctx ctx;
      f ()
    with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (ctx, Fault.finish ctx, result)

let query ?policy ?max_errors ?deadline ?on_ctx f =
  match enter ?policy ?max_errors ?deadline ?on_ctx f with
  | _, r, Ok v -> Completed (v, r)
  | ctx, r, Error (e, _) -> (
    (* Classify from the context, not from which worker's exception won
       the pool's failure CAS: under parallel execution a peer's
       [Cancelled] can race the root cause to the surface. *)
    match e with
    | Fault.Budget_exceeded _ -> Failed (r, e)
    | Fault.Timed_out | Fault.Cancelled ->
      if Fault.budget_hit ctx then Failed (r, Fault.Budget_exceeded r.Fault.rp_errors)
      else if Fault.deadline_hit ctx || e = Fault.Timed_out then Timed_out r
      else Cancelled r
    | e -> Failed (r, e))

let measure f =
  match enter f with
  | _, r, Ok v -> (v, r.Fault.rp_stats)
  | _, _, Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* Inside an active query (a guarded run's nested call) a plain run counts
   toward that query. *)
let as_query f = if Fault.active () then f () else fst (measure f)

let run ?batch_size ?domains reg ~engine plan =
  as_query (fun () -> execute ?batch_size ?domains reg ~engine plan)

