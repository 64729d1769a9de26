open Proteus_model

type engine = Engine_compiled | Engine_volcano

let run ?batch_size ?(domains = 1) reg ~engine plan =
  Proteus_algebra.Plan.validate plan;
  match engine with
  | Engine_compiled -> Compiled.prepare_par ?batch_size reg ~domains plan ()
  | Engine_volcano -> Volcano.execute reg plan

type outcome =
  | Completed of Value.t * Fault.report
  | Failed of Fault.report * exn
  | Timed_out of Fault.report
  | Cancelled of Fault.report

let run_guarded ?batch_size ?domains ?(policy = Fault.Fail_fast) ?max_errors ?timeout_ms
    reg ~engine plan =
  let deadline =
    Option.map (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.)) timeout_ms
  in
  let ctx = Fault.install ~policy ?max_errors ?deadline () in
  Fun.protect ~finally:Fault.clear (fun () ->
      match run ?batch_size ?domains reg ~engine plan with
      | v -> Completed (v, Fault.report ctx)
      | exception e ->
        let r = Fault.report ctx in
        (* Classify from the context, not from which worker's exception won
           the pool's failure CAS: under parallel execution a peer's
           [Cancelled] can race the root cause to the surface. *)
        (match e with
        | Fault.Budget_exceeded _ -> Failed (r, e)
        | Fault.Timed_out | Fault.Cancelled ->
          if Fault.budget_hit ctx then
            Failed (r, Fault.Budget_exceeded r.Fault.rp_errors)
          else if Fault.deadline_hit ctx then Timed_out r
          else if e = Fault.Timed_out then Timed_out r
          else Cancelled r
        | e -> Failed (r, e)))
