(* serve_prepared — prepared serving over the wire. [Server.serve] runs in
   this process on an ephemeral loopback port over a 20k-row items table
   (CSV and binary rows), with two scheduler workers and an engine cache of
   64 plans. Two client threads, one connection each, run closed loops:
   90% of requests use four hot parameterized shapes and 10% draw from 96
   cold ones, so the engine cache misses and evicts. Each request is its
   [param] lines plus [run SQL], written in one write as a shell client
   does. Per-query fixed costs dominate: protocol, scheduler hop, plan,
   fingerprint, rebind.

   The traced run splits its window in three: the same stream over the
   wire, then through an in-process [Scheduler.run] (the difference of the
   two medians is the protocol's share), then decomposed into the calls the
   scheduler chains, one span each. *)

module Value = Proteus_model.Value
module Ptype = Proteus_model.Ptype
module Server = Proteus_server.Server
module Scheduler = Proteus_server.Scheduler
module Engine_cache = Proteus_server.Engine_cache
module Executor = Proteus_engine.Executor

let rows (cfg : Common.config) = if cfg.smoke then 400 else 20_000

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float); ("name", Ptype.String) ]

let items rng n =
  List.init n (fun k ->
      Value.record
        [
          ("k", Value.Int k);
          ("grp", Value.Int (Random.State.int rng 100));
          ("price", Value.Float (float_of_int (Random.State.int rng 100_000) /. 100.));
          ("name", Value.String (Printf.sprintf "n%d" (Random.State.int rng 50)));
        ])

type inputs = { csv : string; records : Value.t list; n : int }

let register db i =
  Proteus.Db.register_csv db ~name:"items_csv" ~element:item_type ~contents:i.csv ();
  Proteus.Db.register_rows db ~name:"items_row" ~element:item_type i.records

(* --- the request mix ----------------------------------------------------- *)

type param = Key | Group | Price

let draw rng ~n = function
  | Key -> Value.Int (Random.State.int rng n)
  | Group -> Value.Int (Random.State.int rng 100)
  | Price -> Value.Float (float_of_int (Random.State.int rng 100_000) /. 100.)

let hot =
  [|
    ("SELECT COUNT(1), SUM(price) FROM items_csv WHERE k < ?", [ Key ]);
    ("SELECT grp, COUNT(1), MAX(price) FROM items_row WHERE k >= ? GROUP BY grp", [ Key ]);
    ("SELECT COUNT(1), MIN(price) FROM items_csv WHERE grp = ? AND price < ?", [ Group; Price ]);
    (* no literal: with two domains, a join whose comparison literal the
       engine cache lifts into a slot fails to stage (README.md, findings) *)
    ("SELECT COUNT(1), SUM(b.price) FROM items_row a JOIN items_csv b ON a.k = b.k", []);
  |]

(* 2 tables x 6 aggregate lists x 4 predicates x grouped or not: 96 shapes,
   none equal to a hot one. *)
let cold =
  let tables = [ "items_csv"; "items_row" ] in
  let aggs =
    [ "COUNT(1)"; "SUM(price)"; "MAX(price)"; "MIN(k)"; "AVG(price)"; "COUNT(1), MAX(k)" ]
  in
  let preds =
    [
      ("k < ?", [ Key ]);
      ("grp = ?", [ Group ]);
      ("price < ?", [ Price ]);
      ("k >= ? AND price >= ?", [ Key; Price ]);
    ]
  in
  Array.of_list
    (List.concat_map
       (fun t ->
         List.concat_map
           (fun a ->
             List.concat_map
               (fun (p, ps) ->
                 [
                   (Printf.sprintf "SELECT %s FROM %s WHERE %s" a t p, ps);
                   (Printf.sprintf "SELECT grp, %s FROM %s WHERE %s GROUP BY grp" a t p, ps);
                 ])
               preds)
           aggs)
       tables)

type request = { sql : string; params : Value.t list }

let next rng ~n =
  let sql, ps =
    if Random.State.int rng 10 = 0 then cold.(Random.State.int rng (Array.length cold))
    else hot.(Random.State.int rng (Array.length hot))
  in
  { sql; params = List.map (draw rng ~n) ps }

(* positional parameters are named "1", "2", ... *)
let named rq = List.mapi (fun i v -> (string_of_int (i + 1), v)) rq.params

(* --- the wire ------------------------------------------------------------ *)

let wire_value = function
  | Value.Float f -> Printf.sprintf "%.2f" f
  | Value.Int k -> string_of_int k
  | v -> invalid_arg ("wire_value " ^ Value.to_string v)

let send oc rq =
  let b = Buffer.create 256 in
  List.iter (fun v -> Buffer.add_string b ("param " ^ wire_value v ^ "\n")) rq.params;
  Buffer.add_string b ("run " ^ rq.sql ^ "\n");
  output_string oc (Buffer.contents b);
  flush oc

(* one [ok] per param line, then [ok N] and N result lines, or [err ...] *)
let receive ic rq =
  let param_errors =
    List.filter (fun _ -> input_line ic <> "ok") rq.params |> List.length
  in
  let line = input_line ic in
  match String.split_on_char ' ' line with
  | [ "ok"; n ] when param_errors = 0 -> Ok (List.init (int_of_string n) (fun _ -> input_line ic))
  | [ "ok"; n ] ->
    ignore (List.init (int_of_string n) (fun _ -> input_line ic));
    Error "a param line was refused"
  | _ -> Error line

let server_config =
  {
    Server.default_config with
    port = 0;
    workers = 2;
    cache_capacity = 64;
    domains = Common.domains;
  }

type server = { db : Proteus.Db.t; thread : Thread.t; stop : bool Atomic.t; port : int }

let start i =
  let db = Proteus.Db.create () in
  register db i;
  let stop = Atomic.make false and port = Atomic.make 0 in
  let thread =
    Thread.create (fun () -> Server.serve ~ready:(Atomic.set port) ~stop db server_config) ()
  in
  while Atomic.get port = 0 do
    Thread.delay 0.001
  done;
  { db; thread; stop; port = Atomic.get port }

let shutdown s =
  Atomic.set s.stop true;
  Thread.join s.thread

(* [rq] with its parameters spliced in as literals: the engine cache lifts
   comparison literals into slots, so this is the same plan shape. *)
let literal rq =
  let b = Buffer.create (String.length rq.sql + 16) in
  let params = ref rq.params in
  String.iter
    (function
      | '?' ->
        Buffer.add_string b (wire_value (List.hd !params));
        params := List.tl !params
      | c -> Buffer.add_char b c)
    rq.sql;
  { sql = Buffer.contents b; params = [] }

(* Set-up: registration, server start, and one request per shape, hot and
   cold, so the window starts with a full engine cache (64 of 100 shapes
   resident). The warm-up sends literal SQL: one reply line per request,
   which the server flushes at once. *)
let setup i ~seed =
  let s = start i in
  let rng = Random.State.make [| seed; 1 |] in
  Server.with_connection ~port:s.port (fun ic oc ->
      Array.iter
        (fun (sql, ps) ->
          let rq = literal { sql; params = List.map (draw rng ~n:i.n) ps } in
          send oc rq;
          match receive ic rq with Ok _ -> () | Error e -> failwith ("warm-up: " ^ e))
        (Array.append cold hot));
  s

let engine_stats port =
  Server.with_connection ~port (fun ic oc ->
      output_string oc "stats\n";
      flush oc;
      let line = input_line ic in
      let field name =
        List.find_map
          (fun w ->
            match String.split_on_char '=' w with
            | [ k; v ] when k = name -> int_of_string_opt v
            | _ -> None)
          (String.split_on_char ' ' line)
        |> Option.value ~default:0
      in
      (field "hits", field "misses", field "evictions", field "invalidations"))

(* [clients ~seed ~phase ~n ~until one] runs two client threads in closed
   loops until [until]; [one c rq] sends request [rq] as client [c] and
   returns what the caller keeps. Each thread collects its own list, so
   nothing is shared. *)
let clients ~seed ~phase ~n ~until one =
  let results = Array.make 2 [] in
  let threads =
    List.init 2 (fun c ->
        Thread.create
          (fun () ->
            let rng = Random.State.make [| seed; phase; c |] in
            while Common.now () < until do
              results.(c) <- one c (next rng ~n) :: results.(c)
            done)
          ())
  in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

type reply = {
  rq : request;
  answer : (string list, string) result;
  wall : float;
  ended : float;
  traced : bool;
}

(* Over the wire: each client keeps one connection for the phase. *)
let wire ~seed ~n ~port ~until ~trace =
  let conns =
    Array.init 2 (fun _ ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock))
  in
  let rid = Atomic.make 0 in
  let replies =
    clients ~seed ~phase:2 ~n ~until (fun c rq ->
        let _, ic, oc = conns.(c) in
        let id = Atomic.fetch_and_add rid 1 in
        let go () =
          try
            send oc rq;
            receive ic rq
          with e -> Error (Printexc.to_string e)
        in
        let traced = trace <> None && id mod 2 = 0 in
        let answer, wall =
          match trace with
          | Some tr when traced ->
            Common.timed (fun () -> Trace.span tr ~rid:id "server.request" (fun _ -> go ()))
          | _ -> Common.timed go
        in
        { rq; answer; wall; ended = Common.now (); traced })
  in
  Array.iter (fun (sock, _, _) -> Unix.close sock) conns;
  replies

(* In process, through the scheduler the server uses. *)
let scheduled ~seed ~n db ~until =
  let sched = Scheduler.create ~workers:2 ~cache_capacity:64 db in
  let run rq =
    Scheduler.run sched
      (Scheduler.request ~params:(named rq) ~domains:Common.domains rq.sql)
  in
  let warm = Random.State.make [| seed; 1 |] in
  Array.iter (fun (sql, ps) -> ignore (run { sql; params = List.map (draw warm ~n) ps })) hot;
  let done_ =
    clients ~seed ~phase:3 ~n ~until (fun _ rq -> Common.timed (fun () -> run rq))
  in
  Scheduler.shutdown sched;
  done_

(* In process, decomposed into the calls [Scheduler] chains for one query:
   parse, plan and bind, engine-cache lease (optimize, fingerprint, then
   rebind or stage), run, release — and the server's JSON encoding. *)
let decomposed ~seed ~n db (l : Layers.t) ~until =
  let cache = Engine_cache.create ~capacity:64 db in
  let reg = Proteus.Db.registry db in
  let tr = l.trace in
  let one ~rid rq =
    Trace.span tr ~rid "request" (fun root ->
        let span name f = Trace.span tr ~rid ~parent:root name (fun _ -> f ()) in
        let stmt = span "lang.parse" (fun () -> Proteus_lang.Sql.parse_statement rq.sql) in
        let plan =
          span "optimizer.plan" (fun () ->
              Proteus_algebra.Analysis.bind_params (named rq)
                (Proteus_optimizer.Optimizer.plan_of_calculus (Proteus.Db.catalog db)
                   stmt.Proteus_lang.Sql.body))
        in
        span "plugin.index" (fun () ->
            List.iter
              (fun d -> ignore (Proteus_plugin.Registry.source reg d))
              (Proteus_algebra.Plan.datasets plan));
        let lease =
          span "engine.stage" (fun () -> Engine_cache.acquire cache ~domains:Common.domains plan)
        in
        let v =
          span "engine.exec" (fun () ->
              match Engine_cache.run lease with
              | v ->
                Engine_cache.release lease ~clean:true;
                v
              | exception e ->
                Engine_cache.release lease ~clean:false;
                raise e)
        in
        span "proteus.encode" (fun () ->
            match v with
            | Value.Coll (_, rows) -> ignore (List.map Proteus.Output.to_json rows)
            | v -> ignore (Proteus.Output.to_json v)))
  in
  let warm = Random.State.make [| seed; 1 |] in
  Array.iter (fun (sql, ps) -> one ~rid:(-1) { sql; params = List.map (draw warm ~n) ps }) hot;
  let rid = Atomic.make 0 in
  let before = Layers.read db in
  let served =
    clients ~seed ~phase:4 ~n ~until (fun _ rq ->
        match one ~rid:(Atomic.fetch_and_add rid 1) rq with
        | () -> None
        | exception e -> Some (rq.sql, e))
  in
  Layers.add_counts l (Layers.combine ( - ) (Layers.read db) before);
  l.requests <- l.requests + List.length served;
  List.filter_map Fun.id served

let run (cfg : Common.config) : Common.result =
  let n = rows cfg in
  let records = items (Random.State.make [| cfg.seed; 0 |]) n in
  let i =
    {
      csv =
        Proteus_format.Csv.of_records Proteus_format.Csv.default_config
          (Proteus_model.Schema.of_type item_type) records;
      records;
      n;
    }
  in
  let s, setups = Common.set_up ~release:shutdown (fun () -> setup i ~seed:cfg.seed) in
  let tally = Common.tally () in
  let sampled = Common.sampler cfg in
  let t0 = Common.now () in
  (* untraced: the whole window on the wire; traced: a third of it *)
  let wire_s = match cfg.layers with None -> cfg.seconds | Some _ -> cfg.seconds /. 3. in
  let h0, m0, e0, i0 = engine_stats s.port in
  let replies =
    wire ~seed:cfg.seed ~n ~port:s.port ~until:(t0 +. wire_s)
      ~trace:(Option.map (fun (l : Layers.t) -> l.trace) cfg.layers)
  in
  let window = Common.now () -. t0 in
  let heap_live_mb = Common.heap_live_mb s.db in
  let h1, m1, e1, i1 = engine_stats s.port in
  let checks = ref [] in
  List.iter
    (fun r ->
      tally.attempted <- tally.attempted + 1;
      match r.answer with
      | Ok rows -> if sampled () then checks := (r.rq, rows) :: !checks
      | Error e -> Common.note_error tally r.rq.sql (Failure e))
    replies;
  let completed =
    List.filter_map
      (fun r -> if Result.is_ok r.answer then Some (r.ended -. t0, r.wall) else None)
      replies
  in
  Option.iter
    (fun (l : Layers.t) ->
      List.iter (fun r -> Layers.note l ~traced:r.traced r.wall) replies;
      let t1 = Common.now () in
      let sched = scheduled ~seed:cfg.seed ~n s.db ~until:(t1 +. wire_s) in
      let ok =
        List.filter_map
          (fun (c, wall) ->
            match c with
            | Ok ({ Scheduler.cp_outcome = Executor.Completed _; _ } as c) -> Some (c, wall)
            | Ok _ | Error _ ->
              tally.attempted <- tally.attempted + 1;
              Common.note_error tally "scheduler phase" (Failure "query did not complete");
              None)
          sched
      in
      let sum f = List.fold_left (fun acc (c, _) -> acc +. f c) 0. ok in
      List.iter
        (fun (what, e) ->
          tally.attempted <- tally.attempted + 1;
          Common.note_error tally what e)
        (decomposed ~seed:cfg.seed ~n s.db l ~until:(Common.now () +. wire_s));
      l.resident_bytes <-
        Proteus_cache.Manager.resident_bytes (Proteus.Db.cache_manager s.db);
      l.server <-
        Some
          {
            tcp_p50_s = Common.median (List.map snd completed);
            inproc_p50_s = Common.median (List.map snd ok);
            queue_wait_s = sum (fun c -> c.Scheduler.cp_wait_seconds);
            compile_s = sum (fun c -> c.Scheduler.cp_compile_seconds);
            run_s = sum (fun c -> c.Scheduler.cp_run_seconds);
            sched_wall_s = List.fold_left (fun acc (_, w) -> acc +. w) 0. ok;
            sched_requests = List.length ok;
            lookups = h1 - h0 + (m1 - m0);
            hits = h1 - h0;
            evictions = e1 - e0;
            invalidations = i1 - i0;
            wire_requests = List.length replies;
          })
    cfg.layers;
  shutdown s;
  let oracle = Oracle.session () in
  register oracle i;
  List.iter
    (fun (rq, rows) ->
      match Oracle.sql_answer ~params:(named rq) oracle rq.sql with
      | e -> Common.check tally rq.sql (Oracle.close (Oracle.of_wire rows) (Oracle.to_wire e))
      | exception e -> Common.note_error tally ("oracle " ^ rq.sql) e)
    (List.rev !checks);
  {
    attempted = tally.attempted;
    failed = tally.failed;
    wrong = tally.wrong;
    checked = tally.checked;
    window_s = window;
    rounds = Common.slices ~window completed;
    heap_live_mb;
    setups;
    tail = 95.;
    extra =
      [
        ("engine_hit_ratio", Layers.ratio (h1 - h0) (h1 - h0 + m1 - m0), "ratio");
        ("engine_evictions", float_of_int (e1 - e0), "count");
      ];
    inputs = [ ("rows", string_of_int n); ("clients", "2"); ("workers", "2") ];
  }
