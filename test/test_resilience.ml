(* The resilience layer (DESIGN.md section 15): retry budgets with
   deadline-aware backoff, per-member circuit breakers, straggler hedging,
   and graceful scheduler drain.

   The load-bearing differentials: a hedged run must be bit-identical to
   an unhedged run of the same query (the hedge only duplicates work, it
   never reorders the deterministic morsel fan-in), and a flaky member
   that heals within its retry budget must be invisible to the user —
   same rows, zero recorded errors. *)

open Proteus_model
module Plan = Proteus_algebra.Plan
module Policy = Proteus_resilience.Policy
module Breaker = Proteus_resilience.Breaker
module Hedge = Proteus_resilience.Hedge
module Registry = Proteus_plugin.Registry
module Counters = Proteus_engine.Counters
module Scheduler = Proteus_server.Scheduler
module Server = Proteus_server.Server
module Executor = Proteus_engine.Executor
module Db = Proteus.Db

let check_value = Alcotest.testable Value.pp Value.equal

let flaky_exn () =
  Perror.Parse_error { what = "unit"; pos = -1; msg = "transient" }

(* --- retry policy --------------------------------------------------------- *)

let test_policy_budget () =
  (* first-try success: f runs once, no retries *)
  let calls = ref 0 in
  let v =
    Policy.run (Policy.of_attempts 3) ~retryable:Fault.recoverable (fun a ->
        incr calls;
        a)
  in
  Alcotest.(check int) "first-try attempt index" 1 v;
  Alcotest.(check int) "one call" 1 !calls;
  (* heals within budget: fails twice, succeeds on the third attempt *)
  let calls = ref 0 and retries = ref 0 in
  let v =
    Policy.run
      (Policy.make ~attempts:3 ~base_backoff_ms:0.1 ~max_backoff_ms:0.5 ())
      ~retryable:Fault.recoverable
      ~on_retry:(fun ~attempt:_ _ -> incr retries)
      (fun _ ->
        incr calls;
        if !calls <= 2 then raise (flaky_exn ()) else !calls)
  in
  Alcotest.(check int) "healed on third call" 3 v;
  Alcotest.(check int) "two retries" 2 !retries;
  (* budget exhaustion: the last failure propagates *)
  let calls = ref 0 in
  (match
     Policy.run
       (Policy.make ~attempts:2 ~base_backoff_ms:0.1 ~max_backoff_ms:0.5 ())
       ~retryable:Fault.recoverable
       (fun _ ->
         incr calls;
         raise (flaky_exn ()))
   with
  | (_ : int) -> Alcotest.fail "exhausted budget must raise"
  | exception Perror.Parse_error _ -> ());
  Alcotest.(check int) "budget bounds the calls" 2 !calls;
  (* non-retryable errors never retry *)
  let calls = ref 0 in
  (match
     Policy.run (Policy.of_attempts 5) ~retryable:Fault.recoverable (fun _ ->
         incr calls;
         Perror.plan_error "not a data error")
   with
  | (_ : int) -> Alcotest.fail "plan error must raise"
  | exception Perror.Plan_error _ -> ());
  Alcotest.(check int) "no retry for plan errors" 1 !calls

let test_policy_deadline () =
  (* an already-expired deadline forbids any backoff sleep: the first
     failure surfaces immediately even with a huge configured backoff *)
  let t0 = Unix.gettimeofday () in
  (match
     Policy.run ~deadline:(t0 -. 1.)
       (Policy.make ~attempts:5 ~base_backoff_ms:1000. ~max_backoff_ms:5000. ())
       ~retryable:Fault.recoverable
       (fun _ -> raise (flaky_exn ()))
   with
  | (_ : int) -> Alcotest.fail "must raise"
  | exception Perror.Parse_error _ -> ());
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Fmt.str "no sleep past the deadline (%.3fs)" elapsed)
    true (elapsed < 0.5)

(* --- circuit breaker ------------------------------------------------------ *)

let test_breaker_cycle () =
  let b = Breaker.create ~config:{ Breaker.threshold = 2; cooldown_ms = 40. } () in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Alcotest.(check bool) "closed admits" true (Breaker.admit b = Breaker.Proceed);
  Breaker.failure b;
  Alcotest.(check bool) "one failure stays closed" true
    (Breaker.state b = Breaker.Closed);
  Breaker.failure b;
  Alcotest.(check bool) "threshold opens" true (Breaker.state b = Breaker.Open);
  Alcotest.(check bool) "open rejects" true (Breaker.admit b = Breaker.Reject);
  Alcotest.(check bool) "open is blocking" true (Breaker.blocking b);
  Unix.sleepf 0.06;
  Alcotest.(check bool) "cooled breaker is not blocking" false
    (Breaker.blocking b);
  (* first admit after cooldown: the half-open probe slot *)
  Alcotest.(check bool) "cooldown admits a probe" true
    (Breaker.admit b = Breaker.Proceed);
  Alcotest.(check bool) "half-open" true (Breaker.state b = Breaker.Half_open);
  Alcotest.(check bool) "single probe slot" true
    (Breaker.admit b = Breaker.Reject);
  Breaker.success b;
  Alcotest.(check bool) "probe success closes" true
    (Breaker.state b = Breaker.Closed);
  (* and a failed probe re-opens *)
  Breaker.failure b;
  Breaker.failure b;
  Unix.sleepf 0.06;
  Alcotest.(check bool) "probe again" true (Breaker.admit b = Breaker.Proceed);
  Breaker.failure b;
  Alcotest.(check bool) "failed probe re-opens" true
    (Breaker.state b = Breaker.Open)

(* --- hedge unit ----------------------------------------------------------- *)

let test_hedge_threshold () =
  let h = Hedge.create ~factor:3. ~floor_ms:0. () in
  Alcotest.(check bool) "no history, no floor: stands down" true
    (Hedge.threshold_ms h <= 0.);
  Hedge.note h "a" 2.;
  Hedge.note h "b" 4.;
  Hedge.note h "c" 100.;
  (* median of {2, 4, 100} = 4; threshold = 3 x 4 = 12 *)
  Alcotest.(check (float 0.001)) "3x median" 12. (Hedge.threshold_ms h);
  let h = Hedge.create ~floor_ms:5. () in
  Alcotest.(check (float 0.001)) "floor with no history" 5.
    (Hedge.threshold_ms h);
  (* run with hedging disabled is a plain call *)
  let h0 = Hedge.create () in
  Alcotest.(check int) "stand-down run" 7 (Hedge.run h0 ~key:"k" (fun () -> 7));
  (* a fast f never hedges; a slow f hedges and still returns its value *)
  let h = Hedge.create ~floor_ms:5. () in
  Alcotest.(check int) "fast run" 1 (Hedge.run h ~key:"k" (fun () -> 1));
  let v, s =
    Executor.measure (fun () ->
        Hedge.run h ~key:"slow" (fun () ->
            Unix.sleepf 0.03;
            42))
  in
  Alcotest.(check int) "slow run value" 42 v;
  Alcotest.(check bool) "slow run hedged" true (s.Counters.shards_hedged >= 1)

(* --- sharded fixtures ------------------------------------------------------ *)

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float) ]

let items n =
  List.init n (fun i ->
      Value.record
        [ ("k", Value.Int i); ("grp", Value.Int (i mod 5));
          ("price", Value.Float (float_of_int ((i * 37) mod 1000) /. 4.0)) ])

let to_csv records =
  Proteus_format.Csv.of_records Proteus_format.Csv.default_config
    (Schema.of_type item_type) records

let chunk n l =
  let len = List.length l in
  let base = len / n and extra = len mod n in
  let rec take k acc l =
    if k = 0 then (List.rev acc, l)
    else
      match l with [] -> (List.rev acc, []) | x :: r -> take (k - 1) (x :: acc) r
  in
  let rec go i l =
    if i = n then []
    else
      let sz = base + if i < extra then 1 else 0 in
      let part, rest = take sz [] l in
      part :: go (i + 1) rest
  in
  go 0 l

(* a sharded CSV db: members are named sh__s0 .. sh__s{n-1} *)
let make_sharded_db ?(rows = 200) ?(shards = 4) () =
  let db = Db.create () in
  Db.set_caching db false;
  Db.register_sharded_csv db ~name:"sh" ~element:item_type
    ~shards:(List.map to_csv (chunk shards (items rows)))
    ();
  db

let fld x n = Expr.Field (Expr.var x, n)

let agg_plan ds =
  Plan.reduce
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
      Plan.agg ~name:"sp" (Monoid.Primitive Monoid.Sum) (fld "x" "price");
      Plan.agg ~name:"sk" (Monoid.Primitive Monoid.Sum) (fld "x" "k") ]
    (Plan.scan ~dataset:ds ~binding:"x" ())

let count_plan ds =
  Plan.reduce
    [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1) ]
    (Plan.scan ~dataset:ds ~binding:"x" ())

let completed = function
  | Db.Completed (v, r) -> (v, r)
  | Db.Failed (_, e) -> Alcotest.failf "unexpected failure: %a" Perror.pp_exn e
  | Db.Timed_out _ -> Alcotest.fail "unexpected timeout"
  | Db.Cancelled _ -> Alcotest.fail "unexpected cancel"

(* --- straggler hedging ----------------------------------------------------- *)

(* hedged == unhedged, bit-for-bit, across domains x batch sizes: one
   member stalls past the hedge floor, the speculative duplicate wins the
   race, and the result must still be identical to a clean unhedged run
   (same memoized index, deterministic morsel-order fan-in). *)
let test_hedged_identity () =
  let baseline =
    let db = make_sharded_db () in
    Db.run_plan db (agg_plan "sh")
  in
  List.iter
    (fun domains ->
      List.iter
        (fun batch_size ->
          let db = make_sharded_db () in
          let reg = Db.registry db in
          Registry.set_hedge reg (Some (Hedge.create ~floor_ms:3. ()));
          let hits = Faultgen.stall reg ~dataset:"sh__s2" ~ms:40 () in
          let v, s =
            Executor.measure (fun () ->
                Db.run_plan ~domains ~batch_size db (agg_plan "sh"))
          in
          let tag p = Fmt.str "d=%d b=%d %s" domains batch_size p in
          Alcotest.check check_value (tag "hedged == unhedged") baseline v;
          Alcotest.(check int) (tag "stall fired") 1 (Atomic.get hits);
          Alcotest.(check bool)
            (tag (Fmt.str "hedge fired (%d)" s.Counters.shards_hedged))
            true (s.Counters.shards_hedged >= 1))
        [ 0; 1024 ])
    [ 1; 2; 4 ]

(* the hedge pays off: with one member stalled well past the floor, the
   hedged query must finish in less wall-clock than the stall it dodged *)
let test_hedge_beats_straggler () =
  let stall_ms = 300 in
  let db = make_sharded_db ~shards:8 () in
  let reg = Db.registry db in
  (* warm the index + EWMAs with a clean pass *)
  let clean = Db.run_plan db (agg_plan "sh") in
  Registry.set_hedge reg (Some (Hedge.create ~floor_ms:5. ()));
  ignore (Faultgen.stall reg ~dataset:"sh__s3" ~ms:stall_ms ());
  let t0 = Unix.gettimeofday () in
  let v, s = Executor.measure (fun () -> Db.run_plan db (agg_plan "sh")) in
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Alcotest.check check_value "stalled run identical" clean v;
  Alcotest.(check bool) "hedge fired" true (s.Counters.shards_hedged >= 1);
  Alcotest.(check bool)
    (Fmt.str "beat the straggler (%.0fms < %dms)" elapsed_ms stall_ms)
    true
    (elapsed_ms < float_of_int stall_ms)

(* degraded policies stand the hedge down (speculative duplicates would
   double-account per-row skips): results must still be right *)
let test_hedge_stands_down_degraded () =
  let db = make_sharded_db () in
  let reg = Db.registry db in
  Registry.set_hedge reg (Some (Hedge.create ~floor_ms:1. ()));
  ignore (Faultgen.stall reg ~dataset:"sh__s1" ~ms:20 ());
  let v, report =
    completed (Db.run_plan_guarded ~policy:Fault.Skip_row db (count_plan "sh"))
  in
  Alcotest.check check_value "skip-policy result" (Value.Int 200) v;
  Alcotest.(check int) "no hedge under skip" 0
    report.Fault.rp_stats.Counters.shards_hedged

(* --- retry budgets over flaky members -------------------------------------- *)

(* a member failing its first 2 builds succeeds within a 3-attempt budget:
   full rows, zero user-visible errors, retries counted *)
let test_flaky_within_budget () =
  let db = make_sharded_db () in
  let reg = Db.registry db in
  Registry.set_retry_policy reg
    (Policy.make ~attempts:3 ~base_backoff_ms:0.2 ~max_backoff_ms:1. ());
  let calls = Faultgen.flaky reg ~dataset:"sh__s1" ~failures:2 () in
  let v, report =
    completed (Db.run_plan_guarded ~policy:Fault.Fail_fast db (count_plan "sh"))
  in
  Alcotest.check check_value "full count despite flakiness" (Value.Int 200) v;
  Alcotest.(check int) "zero user-visible errors" 0 report.Fault.rp_errors;
  (* two injected failures + the healed build; a successful build may hit
     the factory again for digest stamping, so the bound is one-sided *)
  Alcotest.(check bool)
    (Fmt.str "all three attempts reached the plug-in (%d)" (Atomic.get calls))
    true
    (Atomic.get calls >= 3);
  Alcotest.(check int) "two retries counted" 2
    report.Fault.rp_stats.Counters.shards_retried

(* budget exhaustion under each error policy: Fail_fast surfaces the
   member's error; Skip_row/Null_fill degrade it to an empty shard with a
   recorded skip *)
let test_flaky_exhaustion_policies () =
  List.iter
    (fun policy ->
      let db = make_sharded_db () in
      let reg = Db.registry db in
      Registry.set_retry_policy reg
        (Policy.make ~attempts:2 ~base_backoff_ms:0.2 ~max_backoff_ms:1. ());
      let calls = Faultgen.flaky reg ~dataset:"sh__s1" ~failures:99 () in
      match policy with
      | Fault.Fail_fast -> (
        match Db.run_plan_guarded ~policy db (count_plan "sh") with
        | Db.Failed (_, Perror.Parse_error _) ->
          Alcotest.(check int) "fail-fast: budget bounds attempts" 2
            (Atomic.get calls)
        | Db.Failed (_, e) -> Alcotest.failf "wrong error: %a" Perror.pp_exn e
        | _ -> Alcotest.fail "exhausted fail-fast must fail")
      | _ ->
        let v, report = completed (Db.run_plan_guarded ~policy db (count_plan "sh")) in
        (* 200 rows minus the degraded member's 50 *)
        Alcotest.check check_value
          (Fmt.str "%s: healthy members scan" (Fault.policy_name policy))
          (Value.Int 150) v;
        Alcotest.(check bool) "degradation recorded" true
          (report.Fault.rp_skipped >= 1))
    [ Fault.Fail_fast; Fault.Skip_row; Fault.Null_fill ]

(* --- circuit breaker over the scatter --------------------------------------- *)

(* open -> skip without touching the plug-in -> half-open probe heals *)
let test_breaker_scatter_cycle () =
  let db = make_sharded_db () in
  let reg = Db.registry db in
  Registry.set_retry_policy reg (Policy.of_attempts 1);
  Registry.set_breaker_config reg { Breaker.threshold = 2; cooldown_ms = 50. };
  let calls = Faultgen.flaky reg ~dataset:"sh__s1" ~failures:2 () in
  let degraded () =
    completed (Db.run_plan_guarded ~policy:Fault.Skip_row db (count_plan "sh"))
  in
  (* two failing queries accumulate the consecutive failures that open *)
  let v, _ = degraded () in
  Alcotest.check check_value "q1 degrades" (Value.Int 150) v;
  let v, _ = degraded () in
  Alcotest.check check_value "q2 degrades" (Value.Int 150) v;
  Alcotest.(check bool) "breaker open after threshold" true
    (List.assoc "sh__s1" (Registry.breaker_states reg) = Breaker.Open);
  (* open: the next query skips the member without invoking its factory *)
  let before = Atomic.get calls in
  let v, report = degraded () in
  Alcotest.check check_value "q3 skips the open member" (Value.Int 150) v;
  Alcotest.(check int) "plug-in untouched while open" before (Atomic.get calls);
  Alcotest.(check bool) "breaker-open counted" true
    (report.Fault.rp_stats.Counters.breaker_open >= 1);
  Alcotest.(check bool) "skip recorded in the report" true
    (report.Fault.rp_skipped >= 1);
  (* after the cooldown a half-open probe runs the (now healed) member *)
  Unix.sleepf 0.07;
  let v, _ = degraded () in
  Alcotest.check check_value "probe heals: full rows" (Value.Int 200) v;
  Alcotest.(check bool) "probe reached the plug-in" true
    (Atomic.get calls > before);
  Alcotest.(check bool) "breaker closed again" true
    (List.assoc "sh__s1" (Registry.breaker_states reg) = Breaker.Closed)

(* re-registration resets the member's breaker: a healed source comes back
   before its cooldown expires *)
let test_breaker_reregistration_resets () =
  let db = make_sharded_db () in
  let reg = Db.registry db in
  Registry.set_retry_policy reg (Policy.of_attempts 1);
  Registry.set_breaker_config reg
    { Breaker.threshold = 1; cooldown_ms = 60_000. };
  ignore (Faultgen.flaky reg ~dataset:"sh__s1" ~failures:1 ());
  let degraded () =
    completed (Db.run_plan_guarded ~policy:Fault.Skip_row db (count_plan "sh"))
  in
  let v, _ = degraded () in
  Alcotest.check check_value "q1 degrades" (Value.Int 150) v;
  Alcotest.(check bool) "open with a long cooldown" true
    (List.assoc "sh__s1" (Registry.breaker_states reg) = Breaker.Open);
  Registry.invalidate reg "sh__s1";
  let v, _ = degraded () in
  Alcotest.check check_value "re-registration heals immediately" (Value.Int 200) v

(* --- graceful drain --------------------------------------------------------- *)

let make_flat_db () =
  let db = Db.create () in
  Db.register_rows db ~name:"items" ~element:item_type (items 400);
  db

let test_drain_completes_inflight () =
  let db = make_flat_db () in
  let sched = Scheduler.create ~workers:2 db in
  let tickets =
    List.init 6 (fun i ->
        match
          Scheduler.submit sched
            (Scheduler.request
               (Fmt.str "SELECT COUNT(1), SUM(price) FROM items WHERE k < %d"
                  (100 + i)))
        with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "submit refused")
  in
  (* a generous drain lets every queued + in-flight query finish *)
  Scheduler.shutdown ~drain_timeout_ms:30_000 sched;
  List.iter
    (fun tk ->
      match (Scheduler.await tk).Scheduler.cp_outcome with
      | Executor.Completed _ -> ()
      | _ -> Alcotest.fail "drained query must complete")
    tickets;
  (match Scheduler.submit sched (Scheduler.request "SELECT COUNT(1) FROM items") with
  | Error `Shutting_down -> ()
  | _ -> Alcotest.fail "submit after shutdown must refuse")

let test_drain_timeout_flushes () =
  let db = make_flat_db () in
  (* no workers: queued jobs can never run, so the drain MUST flush them —
     every ticket resolves, nothing hangs *)
  let sched = Scheduler.create ~workers:0 db in
  let tickets =
    List.init 3 (fun _ ->
        match Scheduler.submit sched (Scheduler.request "SELECT COUNT(1) FROM items") with
        | Ok tk -> tk
        | Error _ -> Alcotest.fail "submit refused")
  in
  Scheduler.shutdown ~drain_timeout_ms:30 sched;
  List.iter
    (fun tk ->
      match (Scheduler.await tk).Scheduler.cp_outcome with
      | Executor.Failed (_, Scheduler.Shutting_down) -> ()
      | _ -> Alcotest.fail "flushed ticket must resolve as Shutting_down")
    tickets

(* --- deadline-infeasibility shedding ---------------------------------------- *)

let test_shed_infeasible () =
  let db = make_flat_db () in
  let sched = Scheduler.create ~workers:0 ~max_queue:128 db in
  (* seed the service-time EWMA deterministically *)
  (match Scheduler.submit sched (Scheduler.request "SELECT COUNT(1) FROM items") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "seed submit refused");
  Alcotest.(check bool) "seed ran" true (Scheduler.drain_one sched);
  (* back up the queue, then offer a deadline the wait alone exceeds *)
  let backlog =
    List.init 60 (fun _ ->
        Scheduler.submit sched
          (Scheduler.request "SELECT COUNT(1), SUM(price) FROM items"))
  in
  List.iter
    (function Ok _ -> () | Error _ -> Alcotest.fail "backlog submit refused")
    backlog;
  (match
     Scheduler.submit sched
       (Scheduler.request ~timeout_ms:1 "SELECT COUNT(1) FROM items")
   with
  | Error `Infeasible -> ()
  | Ok _ -> Alcotest.fail "infeasible deadline must shed"
  | Error _ -> Alcotest.fail "wrong rejection");
  Alcotest.(check int) "shed counted" 1 (Scheduler.stats sched).Scheduler.shed;
  (* no deadline -> no shedding, however deep the queue *)
  (match Scheduler.submit sched (Scheduler.request "SELECT COUNT(1) FROM items") with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "deadline-free submit must be accepted");
  Scheduler.shutdown ~drain_timeout_ms:10 sched

(* --- server hardening ------------------------------------------------------- *)

let with_server f =
  let db = make_flat_db () in
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let srv =
    Domain.spawn (fun () ->
        Server.serve
          ~ready:(fun p -> Atomic.set port p)
          ~stop db
          {
            Server.default_config with
            port = 0;
            workers = 1;
            drain_timeout_ms = 5000;
          })
  in
  let rec wait_port n =
    if Atomic.get port = 0 then
      if n = 0 then Alcotest.fail "server did not come up"
      else begin
        Unix.sleepf 0.05;
        wait_port (n - 1)
      end
  in
  wait_port 100;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    (fun () -> f (Atomic.get port))

let send out line =
  output_string out (line ^ "\n");
  flush out

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_server_hardening () =
  with_server (fun port ->
      (* an oversized request line: one clear error, then the connection
         closes — and the server survives *)
      Server.with_connection ~port (fun inc out ->
          send out ("run SELECT " ^ String.make 9000 'x');
          Alcotest.(check string) "oversized line rejected"
            "err error: request line too long" (input_line inc);
          match input_line inc with
          | (_ : string) -> Alcotest.fail "connection must close after overflow"
          | exception End_of_file -> ());
      (* an abrupt disconnect mid-line kills only that connection *)
      Server.with_connection ~port (fun _inc out ->
          output_string out "run SELECT COUNT(1) FROM ite";
          flush out);
      (* the accept loop is still alive and serving *)
      Server.with_connection ~port (fun inc out ->
          send out "run SELECT COUNT(1) FROM items";
          Alcotest.(check string) "server still serves" "ok 1" (input_line inc);
          Alcotest.(check string) "count" "400" (input_line inc);
          send out "health";
          let h = input_line inc in
          Alcotest.(check bool)
            (Fmt.str "health shape (%s)" h)
            true
            (starts_with ~prefix:"health ok scheduler submitted=" h);
          send out "stats";
          let s = input_line inc in
          Alcotest.(check bool)
            (Fmt.str "stats carry resilience counters (%s)" s)
            true
            (let needle = "resilience shards-retried=" in
             let n = String.length needle and h = String.length s in
             let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
             go 0);
          send out "quit";
          Alcotest.(check string) "bye" "bye" (input_line inc)))

let () =
  Alcotest.run "resilience"
    [
      ( "policy",
        [
          Alcotest.test_case "retry budget" `Quick test_policy_budget;
          Alcotest.test_case "deadline-aware backoff" `Quick test_policy_deadline;
        ] );
      ( "breaker",
        [ Alcotest.test_case "state machine cycle" `Quick test_breaker_cycle ] );
      ( "hedge",
        [
          Alcotest.test_case "threshold arithmetic" `Quick test_hedge_threshold;
          Alcotest.test_case "hedged == unhedged (domains x batch)" `Slow
            test_hedged_identity;
          Alcotest.test_case "hedge beats the straggler" `Quick
            test_hedge_beats_straggler;
          Alcotest.test_case "stands down under degraded policies" `Quick
            test_hedge_stands_down_degraded;
        ] );
      ( "retry",
        [
          Alcotest.test_case "flaky member heals within budget" `Quick
            test_flaky_within_budget;
          Alcotest.test_case "exhaustion under each policy" `Quick
            test_flaky_exhaustion_policies;
        ] );
      ( "scatter-breaker",
        [
          Alcotest.test_case "open -> skip -> probe -> heal" `Quick
            test_breaker_scatter_cycle;
          Alcotest.test_case "re-registration resets" `Quick
            test_breaker_reregistration_resets;
        ] );
      ( "drain",
        [
          Alcotest.test_case "drain completes in-flight work" `Quick
            test_drain_completes_inflight;
          Alcotest.test_case "timed-out drain flushes, never hangs" `Quick
            test_drain_timeout_flushes;
          Alcotest.test_case "infeasible deadlines shed at submit" `Quick
            test_shed_infeasible;
        ] );
      ( "server",
        [
          Alcotest.test_case "hardening + health verb" `Quick
            test_server_hardening;
        ] );
    ]
