(* Failure propagation across the domain pool: when one worker's accessor
   raises mid-query, the cancellation token must stop its peers at their
   next morsel boundary — the run ends without draining the dispenser. *)

open Proteus_model
module Db = Proteus.Db
module Executor = Proteus_engine.Executor

let n_rows = 800 (* 16-row morsels -> 50 morsels *)

let item_ty =
  Ptype.Record [ ("k", Ptype.Int); ("price", Ptype.Float) ]

let contents =
  String.concat ""
    (List.init n_rows (fun i ->
         Fmt.str "%d,%.12g\n" i (float_of_int ((i * 37) mod 1000) /. 4.0)))

let q = "SELECT SUM(price) AS s FROM items WHERE k >= 0"

let test_morsel0_fault_cancels_peers () =
  let db = Db.create () in
  (* field caches would satisfy reads without touching the injected
     accessors, hiding the fault *)
  Db.set_caching db false;
  Db.register_csv db ~name:"items" ~element:item_ty ~contents ();
  (* sanity: the uninjected parallel run completes *)
  let expected = Db.sql ~domains:4 db q in
  ignore expected;
  (* inject: any access in morsel 0 (rows 0..15) raises *)
  let seeks =
    Faultgen.inject (Db.registry db) ~dataset:"items" ~fail_at:(fun row -> row < 16)
  in
  (match Executor.query (fun () -> Db.sql ~domains:4 db q) with
  | Db.Failed (_, Perror.Parse_error _) -> ()
  | Db.Failed (_, e) -> Alcotest.failf "unexpected failure: %a" Perror.pp_exn e
  | Db.Completed _ -> Alcotest.fail "injected fault should fail the query"
  | Db.Timed_out _ | Db.Cancelled _ -> Alcotest.fail "expected Failed");
  (* peers stopped within a morsel of the failure: the 4 workers saw at most
     a handful of morsels between them, nowhere near the 800-row input *)
  let n = Atomic.get seeks in
  if n >= n_rows / 2 then
    Alcotest.failf "workers drained %d of %d rows after the fault" n n_rows

let test_budget_abort_cancels_peers () =
  let db = Db.create () in
  (* field caches would satisfy reads without touching the injected
     accessors, hiding the fault *)
  Db.set_caching db false;
  Db.register_csv db ~name:"items" ~element:item_ty ~contents ();
  ignore (Db.sql ~domains:4 db q);
  let seeks =
    Faultgen.inject (Db.registry db) ~dataset:"items" ~fail_at:(fun row -> row < 16)
  in
  (match
     Executor.query ~policy:Fault.Skip_row ~max_errors:2 (fun () ->
         Db.sql ~domains:4 db q)
   with
  | Db.Failed (_, Fault.Budget_exceeded _) -> ()
  | _ -> Alcotest.fail "expected Failed (Budget_exceeded)");
  let n = Atomic.get seeks in
  if n >= n_rows / 2 then
    Alcotest.failf "workers drained %d of %d rows after the budget abort" n n_rows

let test_skip_over_injection_completes () =
  (* the same injection under Skip_row with a sufficient budget completes,
     dropping exactly the injected rows *)
  let db = Db.create () in
  (* field caches would satisfy reads without touching the injected
     accessors, hiding the fault *)
  Db.set_caching db false;
  Db.register_csv db ~name:"items" ~element:item_ty ~contents ();
  let clean = Db.sql ~domains:4 db q in
  ignore clean;
  ignore (Faultgen.inject (Db.registry db) ~dataset:"items" ~fail_at:(fun row -> row < 16));
  match Executor.query ~policy:Fault.Skip_row (fun () -> Db.sql ~domains:4 db q) with
  | Db.Completed (_, r) ->
    Alcotest.(check int) "skipped" 16 r.Fault.rp_skipped
  | _ -> Alcotest.fail "expected Completed under Skip_row"

let () =
  Alcotest.run "fault_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "morsel-0 fault cancels peers" `Quick
            test_morsel0_fault_cancels_peers;
          Alcotest.test_case "budget abort cancels peers" `Quick
            test_budget_abort_cancels_peers;
          Alcotest.test_case "skip over injection completes" `Quick
            test_skip_over_injection_completes;
        ] );
    ]
