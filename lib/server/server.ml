(* `proteus serve`: a line-protocol TCP front end over the scheduler.

   One OS thread per connection parses requests and blocks on scheduler
   tickets; the actual queries run on the scheduler's worker domains. The
   protocol is line-oriented (LF), with fixed-shape responses so shell
   clients (bash /dev/tcp, nc) can drive it:

     ping                  ->  pong
     param NAME=VALUE      ->  ok            (accumulates for the next run;
                                              positional ?s are named 1, 2, ...)
     timeout MS            ->  ok            (deadline for the next run)
     run SQL               ->  ok N          followed by N JSON result lines
                           |   err KIND: message
     stats                 ->  stats cache <counters> scheduler <counters>
                                 resilience <counters>
     health                ->  health <ok|draining> scheduler <counters>
                                 breakers open=N half-open=N closed=N
     quit                  ->  bye           (connection closes)

   [err] kinds: [overloaded] (admission control), [infeasible] (deadline
   shedding), [timeout], [cancelled], [error] (parse/plan/data errors).
   Params and timeout reset after every run.

   Hardening: request lines are capped (an oversized line gets one [err
   error:] reply and the connection closes), malformed input and EPIPE
   mid-write close only their own connection (SIGPIPE is ignored), and
   SIGTERM-initiated shutdown drains queued + in-flight queries up to
   [drain_timeout_ms] before cancelling the stragglers. *)

open Proteus_model
module Executor = Proteus_engine.Executor
module Registry = Proteus_plugin.Registry

(* Parameter values on the wire / CLI: null, true/false, int, float,
   'single-quoted string' ('' escapes a quote), else the raw string. *)
let parse_value s =
  let s = String.trim s in
  let n = String.length s in
  if n >= 2 && s.[0] = '\'' && s.[n - 1] = '\'' then begin
    let body = String.sub s 1 (n - 2) in
    let buf = Buffer.create (String.length body) in
    let i = ref 0 in
    while !i < String.length body do
      if body.[!i] = '\'' && !i + 1 < String.length body && body.[!i + 1] = '\''
      then begin
        Buffer.add_char buf '\'';
        i := !i + 2
      end
      else begin
        Buffer.add_char buf body.[!i];
        incr i
      end
    done;
    Value.String (Buffer.contents buf)
  end
  else
    match s with
    | "null" -> Value.Null
    | "true" -> Value.Bool true
    | "false" -> Value.Bool false
    | _ -> (
      match int_of_string_opt s with
      | Some i -> Value.Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Value.Float f
        | None -> Value.String s))

(* "NAME=VALUE" -> (name, value); bare "VALUE" binds the next positional
   slot (?s are named "1", "2", ... in appearance order). *)
let parse_param ~positional s =
  match String.index_opt s '=' with
  | Some eq
    when eq > 0
         && String.for_all
              (fun c ->
                (c >= 'a' && c <= 'z')
                || (c >= 'A' && c <= 'Z')
                || (c >= '0' && c <= '9')
                || c = '_')
              (String.sub s 0 eq) ->
    (String.sub s 0 eq, parse_value (String.sub s (eq + 1) (String.length s - eq - 1)))
  | _ ->
    incr positional;
    (string_of_int !positional, parse_value s)

type config = {
  host : string;
  port : int;
  workers : int;
  max_queue : int;
  cache_capacity : int;
  domains : int;          (* per-query morsel parallelism *)
  batch_size : int option;
  timeout_ms : int option;  (* default per-query deadline *)
  drain_timeout_ms : int;   (* graceful-shutdown budget for in-flight work *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7477;
    workers = 2;
    max_queue = 64;
    cache_capacity = 64;
    domains = 1;
    batch_size = None;
    timeout_ms = None;
    drain_timeout_ms = 2000;
  }

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let result_lines v =
  match v with
  | Value.Coll (_, rows) ->
    List.map (fun r -> one_line (Proteus.Output.to_json r)) rows
  | v -> [ one_line (Proteus.Output.to_json v) ]

let exn_message e = one_line (Fmt.str "%a" Perror.pp_exn e)

let handle_run sched cfg ~client ~params ~timeout_ms sql out =
  let rq =
    Scheduler.request ~params
      ?timeout_ms:(match timeout_ms with Some _ as t -> t | None -> cfg.timeout_ms)
      ~domains:cfg.domains ?batch_size:cfg.batch_size ~client sql
  in
  match Scheduler.submit sched rq with
  | Error `Overloaded -> output_string out "err overloaded: queue full, retry later\n"
  | Error `Shutting_down -> output_string out "err error: server shutting down\n"
  | Error `Infeasible ->
    output_string out "err infeasible: deadline cannot be met, try later\n"
  | Ok ticket -> (
    let c = Scheduler.await ticket in
    match c.Scheduler.cp_outcome with
    | Executor.Completed (v, _) ->
      let lines = result_lines v in
      Printf.fprintf out "ok %d\n" (List.length lines);
      List.iter (fun l -> output_string out (l ^ "\n")) lines
    | Executor.Timed_out _ -> output_string out "err timeout: query deadline expired\n"
    | Executor.Cancelled _ -> output_string out "err cancelled: query was cancelled\n"
    | Executor.Failed (_, e) ->
      Printf.fprintf out "err error: %s\n" (exn_message e))

(* Process totals, except [shed]: a shed query never started, so the
   scheduler owns that count. *)
let resilience_line (ss : Scheduler.stats) =
  let c = Proteus_engine.Counters.snapshot () in
  Fmt.str "shards-retried=%d shards-hedged=%d breaker-open=%d shed=%d"
    c.shards_retried c.shards_hedged c.breaker_open ss.shed

let promotion_line db =
  let ps = Proteus.Db.cache_stats db in
  (* rows the structural indexes took in by extension over appends, not by
     a rebuild *)
  let extended =
    List.fold_left
      (fun acc name ->
        match Proteus_plugin.Registry.index_info (Proteus.Db.registry db) name with
        | Some i -> acc + i.Proteus_plugin.Registry.extended_rows
        | None -> acc)
      0
      (Proteus_catalog.Catalog.names (Proteus.Db.catalog db))
  in
  Fmt.str
    "promotions=%d zone-maps=%d dict-columns=%d sorted-projections=%d \
     slot-columns=%d index-rows-extended=%d tail-rows=%d layouts-extended=%d \
     layouts-dropped=%d"
    ps.Proteus_cache.Manager.promotions ps.zone_maps ps.dict_columns
    ps.sorted_projections ps.slot_columns extended ps.tail_rows ps.layouts_extended
    ps.layouts_dropped

let engine_line () =
  let module C = Proteus_engine.Counters in
  let s = C.snapshot () in
  Fmt.str
    "morsels=%d morsels-skipped=%d sorted-seeks=%d probe-morsels-skipped=%d \
     slot-reads=%d"
    s.C.morsels s.C.morsels_skipped s.C.sorted_seeks s.C.probe_morsels_skipped
    s.C.slot_reads

let stats_line sched =
  let cs = Engine_cache.stats (Scheduler.engine_cache sched) in
  let ss = Scheduler.stats sched in
  Printf.sprintf "stats cache %s scheduler %s resilience %s promotion %s engine %s"
    (Fmt.str "%a" Engine_cache.pp_stats cs)
    (Fmt.str "%a" Scheduler.pp_stats ss)
    (resilience_line ss)
    (promotion_line (Scheduler.db sched))
    (engine_line ())

let handle_health sched ~draining out =
  let module B = Proteus_resilience.Breaker in
  let ss = Scheduler.stats sched in
  let states = Registry.breaker_states (Proteus.Db.registry (Scheduler.db sched)) in
  let count st = List.length (List.filter (fun (_, s) -> s = st) states) in
  Printf.fprintf out "health %s scheduler %s breakers open=%d half-open=%d closed=%d\n"
    (if Atomic.get draining then "draining" else "ok")
    (Fmt.str "%a" Scheduler.pp_stats ss)
    (count B.Open) (count B.Half_open) (count B.Closed)

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some sp ->
    ( String.sub line 0 sp,
      String.trim (String.sub line (sp + 1) (String.length line - sp - 1)) )

(* Each connection is its own scheduler client: concurrent connections
   round-robin fairly instead of one backlog starving the rest. *)
let client_counter = Atomic.make 0

(* Request lines are read char-by-char into a capped buffer: a client
   streaming an unbounded line (no LF) cannot balloon server memory. *)
let max_request_line = 8192

type request_line = Line of string | Too_long | Eof

let read_request inc =
  let buf = Buffer.create 128 in
  let rec go () =
    match input_char inc with
    | exception End_of_file ->
      if Buffer.length buf = 0 then Eof else Line (Buffer.contents buf)
    | '\n' -> Line (Buffer.contents buf)
    | _ when Buffer.length buf >= max_request_line -> Too_long
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

(* One connection, on its own thread. Any I/O failure — EPIPE mid-write
   (SIGPIPE is ignored in [serve]), an abrupt disconnect, a closed
   descriptor during drain — lands in the catch-all below and ends only
   this connection; the accept loop never sees it. *)
let handle_connection sched cfg ~draining fd =
  let inc = Unix.in_channel_of_descr fd in
  let out = Unix.out_channel_of_descr fd in
  let client = Fmt.str "conn-%d" (Atomic.fetch_and_add client_counter 1) in
  let params = ref [] in
  let positional = ref 0 in
  let timeout_ms = ref None in
  let quit = ref false in
  (try
     while not !quit do
       match read_request inc with
       | Eof -> quit := true
       | Too_long ->
         (* no resync point inside an oversized line: answer and close *)
         output_string out "err error: request line too long\n";
         flush out;
         quit := true
       | Line line ->
         let line = String.trim line in
         if line <> "" then begin
           let cmd, rest = split_command line in
           (match cmd with
           | "ping" -> output_string out "pong\n"
           | "param" -> (
             match parse_param ~positional rest with
             | p ->
               params := p :: !params;
               output_string out "ok\n"
             | exception _ -> output_string out "err error: bad param\n")
           | "timeout" -> (
             match int_of_string_opt rest with
             | Some ms when ms > 0 ->
               timeout_ms := Some ms;
               output_string out "ok\n"
             | _ -> output_string out "err error: timeout wants a positive integer\n")
           | "run" ->
             handle_run sched cfg ~client ~params:(List.rev !params)
               ~timeout_ms:!timeout_ms rest out;
             params := [];
             positional := 0;
             timeout_ms := None
           | "stats" -> output_string out (stats_line sched ^ "\n")
           | "health" -> handle_health sched ~draining out
           | "quit" ->
             output_string out "bye\n";
             quit := true
           | _ -> Printf.fprintf out "err protocol: unknown command %s\n" cmd);
           flush out
         end
     done
   with Sys_error _ | Unix.Unix_error _ -> ())

(* [serve ?ready ?stop db cfg] blocks accepting connections until [stop]
   flips (checked every 200 ms). [ready] receives the bound port — pass
   [port = 0] to bind an ephemeral one (tests).

   Shutdown is a graceful drain: stop accepting, give queued + in-flight
   queries up to [cfg.drain_timeout_ms] to finish (stragglers are then
   cancelled through their cooperative tokens and flushed), unblock any
   connection parked on a read, and join every connection thread. Finished
   connections are reaped continuously by the accept loop, so a long-lived
   server does not accumulate dead thread handles. *)
let serve ?ready ?stop db cfg =
  (* a peer closing mid-write must surface as EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sched =
    Scheduler.create ~workers:cfg.workers ~max_queue:cfg.max_queue
      ~cache_capacity:cfg.cache_capacity db
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  Option.iter (fun f -> f port) ready;
  Logs.app (fun m -> m "proteus server listening on %s:%d" cfg.host port);
  let stopped () = match stop with Some s -> Atomic.get s | None -> false in
  let draining = Atomic.make false in
  (* live connections: id -> (fd, thread, finished). The connection thread
     flips [finished]; the owner (this loop) joins and closes. *)
  let conns : (int, Unix.file_descr * Thread.t * bool Atomic.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let conns_mu = Mutex.create () in
  let next_conn = ref 0 in
  let reap ~wait =
    let all =
      Mutex.lock conns_mu;
      let l = Hashtbl.fold (fun id c acc -> (id, c) :: acc) conns [] in
      Mutex.unlock conns_mu;
      l
    in
    List.iter
      (fun (id, (fd, th, finished)) ->
        if wait || Atomic.get finished then begin
          Thread.join th;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Mutex.lock conns_mu;
          Hashtbl.remove conns id;
          Mutex.unlock conns_mu
        end)
      all
  in
  while not (stopped ()) do
    (match Unix.select [ sock ] [] [] 0.2 with
    (* a signal (SIGTERM flipping [stop]) interrupts the select *)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept sock with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
      | fd, _addr ->
        incr next_conn;
        let id = !next_conn in
        let finished = Atomic.make false in
        let th =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () -> Atomic.set finished true)
                (fun () -> handle_connection sched cfg ~draining fd))
            ()
        in
        Mutex.lock conns_mu;
        Hashtbl.replace conns id (fd, th, finished);
        Mutex.unlock conns_mu));
    reap ~wait:false
  done;
  Atomic.set draining true;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (* let queued + in-flight queries finish (bounded); connections blocked
     in [await] resolve here *)
  Scheduler.shutdown ~drain_timeout_ms:cfg.drain_timeout_ms sched;
  (* unblock connections parked on reads; their threads exit on EOF *)
  Mutex.lock conns_mu;
  Hashtbl.iter
    (fun _ (fd, _, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  Mutex.unlock conns_mu;
  reap ~wait:true

(* Test/CLI client helper: run [f] over a connected (input, output) channel
   pair, then close. *)
let with_connection ?(host = "127.0.0.1") ~port f =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let inc = Unix.in_channel_of_descr sock in
  let out = Unix.out_channel_of_descr sock in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () -> f inc out)
