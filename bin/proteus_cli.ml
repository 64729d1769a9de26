(* The Proteus command-line interface: register raw files, run one query,
   print the result.

     proteus_cli \
       --json 'sailors=people.json:id:int,children:[name:string,age:int]' \
       --csv  'orders=orders.csv:okey:int,total:float' \
       -q 'SELECT COUNT(1) FROM orders WHERE total < 10'

   Dataset arguments are NAME=PATH:TYPESPEC (see Proteus.Typespec). *)

open Cmdliner
open Proteus_model

let split_dataset_arg arg =
  match String.index_opt arg '=' with
  | None -> Error (`Msg "dataset argument must be NAME=PATH[:TYPESPEC]")
  | Some eq -> (
    let name = String.sub arg 0 eq in
    let rest = String.sub arg (eq + 1) (String.length arg - eq - 1) in
    match String.index_opt rest ':' with
    | None -> Ok (name, rest, None) (* no typespec: infer the schema *)
    | Some colon ->
      let path = String.sub rest 0 colon in
      let spec = String.sub rest (colon + 1) (String.length rest - colon - 1) in
      (match Proteus.Typespec.parse spec with
      | element -> Ok (name, path, Some element)
      | exception Perror.Parse_error { msg; _ } -> Error (`Msg ("bad typespec: " ^ msg))))

let dataset_conv =
  Arg.conv
    ( (fun s -> split_dataset_arg s),
      fun ppf (name, path, element) ->
        match element with
        | Some e -> Fmt.pf ppf "%s=%s:%s" name path (Proteus.Typespec.render e)
        | None -> Fmt.pf ppf "%s=%s" name path )

let json_args =
  Arg.(
    value
    & opt_all dataset_conv []
    & info [ "json" ] ~docv:"NAME=PATH[:SPEC]"
        ~doc:"Register a JSON dataset; without :SPEC the schema is inferred.")

let csv_args =
  Arg.(
    value
    & opt_all dataset_conv []
    & info [ "csv" ] ~docv:"NAME=PATH[:SPEC]"
        ~doc:"Register a CSV dataset; without :SPEC the schema is inferred \
              from a header row.")

let query =
  Arg.(
    required
    & opt (some string) None
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:"The query: SQL, or a 'for {...} yield ...' comprehension.")

let params_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "p"; "param" ] ~docv:"[NAME=]VALUE"
        ~doc:"Bind a query parameter. $(b,--param 42) binds the next \
              positional $(b,?) (named 1, 2, ... in appearance order); \
              $(b,--param name=42) binds $(b,\\$name). Values parse as \
              null, true/false, int, float or a 'quoted string'; anything \
              else is taken as a raw string. Repeatable.")

let parse_params raw =
  let positional = ref 0 in
  List.map (Proteus_server.Server.parse_param ~positional) raw

let engine =
  Arg.(
    value
    & opt (enum [ ("compiled", Proteus.Db.Engine_compiled); ("volcano", Proteus.Db.Engine_volcano) ])
        Proteus.Db.Engine_compiled
    & info [ "engine" ] ~doc:"Executor: the per-query compiled engine or the \
                              Volcano interpreter (for comparison).")

let domains =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:"Run the compiled engine's morsel-driven fleet over $(docv) \
              OCaml domains; 1 (the default) runs the same fleet with one \
              worker, and every width prints the same rows in the same \
              order. Composes with the default --engine only.")

let batch_size =
  Arg.(
    value
    & opt int Proteus_engine.Compiled.default_batch_size
    & info [ "batch-size" ] ~docv:"N"
        ~doc:"Rows per batch of the compiled engine's vectorized lane; 0 \
              disables it (pure tuple-at-a-time execution). Results are \
              identical either way.")

let shards_arg =
  Arg.(
    value
    & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:"Register each --csv/--json input as a shard set of $(docv) \
              contiguous pieces (split at record boundaries — one record per \
              line) instead of one dataset. Scans fan out over the shards \
              and prune pieces whose zone-map/Bloom digests cannot match a \
              pushed-down predicate (see shards-pruned under $(b,--stats)); \
              results are bit-identical to the unsharded registration.")

let on_error =
  Arg.(
    value
    & opt
        (enum
           [
             ("fail", Fault.Fail_fast);
             ("skip", Fault.Skip_row);
             ("null", Fault.Null_fill);
           ])
        Fault.Fail_fast
    & info [ "on-error" ] ~docv:"POLICY"
        ~doc:"What to do when a row of raw input fails to parse: $(b,fail) \
              aborts the query on the first error (the default), $(b,skip) \
              drops the offending rows, $(b,null) substitutes NULL for the \
              unreadable fields. Skipped/nulled rows are tallied in the \
              error report (see $(b,--stats)).")

let max_errors =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-errors" ] ~docv:"N"
        ~doc:"Abort the query once a degraded --on-error policy has absorbed \
              more than $(docv) recoverable errors. Unlimited by default.")

let timeout_ms =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout-ms" ] ~docv:"N"
        ~doc:"Cancel the query after $(docv) milliseconds. The deadline is \
              checked cooperatively at morsel/batch boundaries, so parallel \
              workers stop within one morsel of it expiring. Exit code 3.")

let retry_budget =
  Arg.(
    value
    & opt int Proteus_resilience.Policy.(attempts default)
    & info [ "retry-budget" ] ~docv:"N"
        ~doc:"Attempts per shard member build: a recoverable failure is \
              retried up to $(docv)-1 times with exponential backoff and \
              decorrelated jitter (never sleeping past the query deadline), \
              rebuilding the member from scratch each time. A member that \
              exhausts its budget repeatedly trips its circuit breaker and \
              is skipped outright until a cooldown probe heals it.")

let hedge_ms =
  Arg.(
    value
    & opt int 0
    & info [ "hedge-ms" ] ~docv:"N"
        ~doc:"Straggler hedging floor: once a shard member's build has run \
              longer than max($(docv) ms, 3x the fleet's smoothed member \
              latency), dispatch one speculative duplicate and take the \
              first finisher (the loser is cancelled cooperatively). 0 (the \
              default) disables hedging. Results are bit-identical either \
              way; see shards-hedged under $(b,--stats).")

(* --retry-budget / --hedge-ms land on the db's plug-in registry, where
   the shard scatter runs them. *)
let configure_resilience db ~retry_budget ~hedge_ms =
  let reg = Proteus.Db.registry db in
  Proteus_plugin.Registry.set_retry_policy reg
    (Proteus_resilience.Policy.of_attempts retry_budget);
  if hedge_ms > 0 then
    Proteus_plugin.Registry.set_hedge reg
      (Some (Proteus_resilience.Hedge.create ~floor_ms:(float_of_int hedge_ms) ()))

(* PROTEUS_FAULT_STALL="member=ms[:times][,member=ms[:times]...]" delays
   the first [times] (default 1) builds of the named members by [ms]
   milliseconds — the CI harness's slow-shard injection, wired through the
   registry interposer so it survives retry-path invalidations. *)
let install_env_stall db =
  match Sys.getenv_opt "PROTEUS_FAULT_STALL" with
  | None | Some "" -> ()
  | Some spec ->
    let parse_entry e =
      match String.index_opt e '=' with
      | None -> None
      | Some eq -> (
        let name = String.sub e 0 eq in
        let rest = String.sub e (eq + 1) (String.length e - eq - 1) in
        let ms, times =
          match String.index_opt rest ':' with
          | None -> (rest, "1")
          | Some c ->
            ( String.sub rest 0 c,
              String.sub rest (c + 1) (String.length rest - c - 1) )
        in
        match (float_of_string_opt ms, int_of_string_opt times) with
        | Some ms, Some times when ms >= 0. ->
          Some (name, (ms, Atomic.make times))
        | _ -> None)
    in
    let entries =
      List.filter_map parse_entry (String.split_on_char ',' spec)
    in
    if entries <> [] then
      Proteus_plugin.Registry.set_interposer (Proteus.Db.registry db)
        (Some
           (fun name genuine ->
             match List.assoc_opt name entries with
             | None -> genuine
             | Some (ms, budget) ->
               fun () ->
                 let rec claim () =
                   let n = Atomic.get budget in
                   if n <= 0 then false
                   else if Atomic.compare_and_set budget n (n - 1) then true
                   else claim ()
                 in
                 if claim () then Unix.sleepf (ms /. 1000.);
                 genuine ()))

let stats =
  Arg.(
    value
    & flag
    & info [ "stats" ]
        ~doc:"Print the proxy performance counters of the query (with \
              $(b,--repeat), of the last pass's query) \
              (tuples, branch points, batches, selection density, lane per \
              pipeline) plus per-phase wall-clock attribution \
              (scan/build/probe/merge, summed across domains) and, under a \
              degraded --on-error policy, the per-query error report.")

let no_cache =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable adaptive caching.")

let promote =
  Arg.(
    value
    & flag
    & info [ "promote" ]
        ~doc:"Enable workload-adaptive cache promotion: columns that keep \
              being read or filtered get zone maps (numeric: scans skip \
              whole morsels that cannot match a pushed-down comparison) or \
              dictionary encodings (strings: equality and LIKE run on codes, \
              and the column becomes cacheable at all). Range-filtered \
              columns additionally get sorted projections (morsel skipping \
              that works on unclustered data), and promoted JSON paths \
              materialize pre-parsed slot columns straight from the \
              structural index. Results are identical with or without \
              promotion.")

let no_projection =
  Arg.(
    value
    & flag
    & info [ "no-projection" ]
        ~doc:"With $(b,--promote): keep zone maps and dictionary promotion \
              but never build sorted projections (isolates their \
              contribution; used by the benchmark harness).")

let promote_threshold =
  Arg.(
    value
    & opt int 3
    & info [ "promote-threshold" ] ~docv:"N"
        ~doc:"Accesses (cache reads + selective-predicate compilations) \
              before a column promotes; only meaningful with $(b,--promote).")

let repeat =
  Arg.(
    value
    & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:"Run the query $(docv) times in one process (cold fill, then \
              warm cache, then — with $(b,--promote) — promoted layouts). \
              The result and $(b,--stats) counters reflect the final pass; \
              each pass's wall clock prints to stderr.")

let explain =
  Arg.(value & flag & info [ "explain" ] ~doc:"Print the optimized plan, not results.")

let verbose =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log index builds and cache activity.")

let format =
  Arg.(
    value
    & opt (enum [ ("values", `Values); ("json", `Json); ("csv", `Csv); ("table", `Table) ])
        `Values
    & info [ "format" ] ~doc:"Result rendering: values, json, csv or table.")

let is_comprehension q =
  let trimmed = String.trim q in
  String.length trimmed >= 3 && String.lowercase_ascii (String.sub trimmed 0 3) = "for"

(* --- error rendering ------------------------------------------------------

   Exit codes: 0 success; 1 plan/type error (the query is wrong); 2
   parse/data error (the data is wrong); 3 deadline exceeded; 4 I/O. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* --shards: split newline-delimited contents into n contiguous pieces
   (order preserved, sizes differing by at most one). *)
let split_lines_shards n text =
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> List.rev rest
    | all -> List.rev all
  in
  let len = List.length lines in
  let n = max 1 (min n (max 1 len)) in
  let base = len / n and extra = len mod n in
  let rec take k acc l =
    if k = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: r -> take (k - 1) (x :: acc) r
  in
  let rec go i l =
    if i = n then []
    else
      let sz = base + if i < extra then 1 else 0 in
      let part, rest = take sz [] l in
      (String.concat "\n" part ^ if part = [] then "" else "\n") :: go (i + 1) rest
  in
  go 0 lines

let register_inputs db ~shards ~verbose jsons csvs =
  let say name ty =
    if verbose then Fmt.epr "inferred %s: %s@." name (Proteus.Typespec.render ty)
  in
  List.iter
    (fun (name, path, element) ->
      if shards <= 1 then
        match element with
        | Some element -> Proteus.Db.register_json_file db ~name ~element ~path
        | None -> say name (Proteus.Db.register_json_inferred db ~name ~contents:(read_file path))
      else begin
        let contents = read_file path in
        let element =
          match element with
          | Some e -> e
          | None ->
            let ty = Proteus.Typeinfer.of_json contents in
            say name ty;
            ty
        in
        Proteus.Db.register_sharded_json db ~name ~element
          ~shards:(split_lines_shards shards contents)
      end)
    jsons;
  List.iter
    (fun (name, path, element) ->
      if shards <= 1 then
        match element with
        | Some element -> Proteus.Db.register_csv_file db ~name ~element ~path ()
        | None ->
          say name (Proteus.Db.register_csv_inferred db ~name ~contents:(read_file path) ())
      else begin
        let contents = read_file path in
        match element with
        | Some element ->
          (* an explicit typespec means a headerless file (matches the
             unsharded --csv NAME=PATH:SPEC path): plain row split *)
          Proteus.Db.register_sharded_csv db ~name ~element
            ~shards:(split_lines_shards shards contents) ()
        | None ->
          (* inferred CSV carries a header row: replicate it onto every
             shard so each member parses standalone *)
          let config =
            { Proteus_format.Csv.default_config with Proteus_format.Csv.has_header = true }
          in
          let element = Proteus.Typeinfer.of_csv ~config contents in
          say name element;
          let header, body =
            match String.index_opt contents '\n' with
            | Some i ->
              ( String.sub contents 0 (i + 1),
                String.sub contents (i + 1) (String.length contents - i - 1) )
            | None -> (contents, "")
          in
          Proteus.Db.register_sharded_csv db ~name ~config ~element
            ~shards:(List.map (fun s -> header ^ s) (split_lines_shards shards body))
            ()
      end)
    csvs

let line_col src pos =
  let pos = max 0 (min pos (String.length src)) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

(* Map a Parse_error's [what] to the offending file: index-build errors are
   wrapped as "format:dataset"; access-time errors carry the bare format
   name, which still identifies the file when a unique registered dataset
   has that format. Front-end inputs (sql, comprehension, typespec, date,
   number) name no file. *)
let locate_file files what =
  match String.index_opt what ':' with
  | Some i ->
    let ds = String.sub what (i + 1) (String.length what - i - 1) in
    List.find_opt (fun (name, _, _) -> name = ds) files
  | None -> (
    let fmt =
      match what with
      | "csv" | "csv-infer" -> Some "csv"
      | "json" | "json-index" -> Some "json"
      | _ -> None
    in
    match List.filter (fun (_, _, f) -> Some f = fmt) files with
    | [ one ] -> Some one
    | _ -> None)

let pp_error files ppf = function
  | Perror.Parse_error { what; pos; msg } as e -> (
    match locate_file files what with
    | Some (_, path, _) -> (
      match try Some (read_file path) with Sys_error _ -> None with
      | Some src ->
        let line, col = line_col src pos in
        Fmt.pf ppf "%s: byte %d (line %d, column %d): %s" path pos line col msg
      | None -> Fmt.pf ppf "%s: byte %d: %s" path pos msg)
    | None -> Perror.pp_exn ppf e)
  | Fault.Budget_exceeded n -> Fmt.pf ppf "error budget exceeded: %d data errors" n
  | e -> Perror.pp_exn ppf e

let classify = function
  | Perror.Plan_error _ | Perror.Type_error _ | Perror.Unsupported _ -> 1
  | Perror.Parse_error _ | Fault.Budget_exceeded _ -> 2
  | Fault.Timed_out -> 3
  | Sys_error _ -> 4
  | _ -> 2

let run jsons csvs q raw_params engine domains batch_size shards policy max_errors
    timeout_ms retry_budget hedge_ms stats no_cache promote promote_threshold
    no_projection repeat explain verbose format =
  let params = parse_params raw_params in
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Info)
  end;
  let caching =
    {
      Proteus_cache.Manager.default_config with
      promote;
      promote_threshold;
      promote_projections = not no_projection;
    }
  in
  let db = Proteus.Db.create ~caching () in
  if no_cache then Proteus.Db.set_caching db false;
  begin
    register_inputs db ~shards ~verbose jsons csvs;
    configure_resilience db ~retry_budget ~hedge_ms;
    install_env_stall db;
    let plan () =
      if is_comprehension q then Proteus.Db.plan_comprehension db q
      else Proteus.Db.plan_sql db q
    in
    if explain then begin
      print_string
        (Proteus_optimizer.Optimizer.explain (Proteus.Db.catalog db) (plan ()));
      0
    end
    else begin
      let files =
        List.map (fun (n, p, _) -> (n, p, "json")) jsons
        @ List.map (fun (n, p, _) -> (n, p, "csv")) csvs
      in
      let pp_report ppf (r : Fault.report) =
        if r.Fault.rp_errors > 0 || r.Fault.rp_policy <> Fault.Fail_fast then
          Fmt.pf ppf "%a@." Fault.pp_report r
      in
      let run_pass () =
        let deadline =
          Option.map
            (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
            timeout_ms
        in
        Proteus_engine.Executor.query ~policy ?max_errors ?deadline (fun () ->
            Proteus.Db.run_plan ~engine ~domains ~batch_size ~optimize:false ~params db
              (plan ()))
      in
      (* warm-up passes: cold fill first, then warm cache, then (with
         --promote) promoted layouts; the printed result and the --stats
         counters describe the final pass only *)
      let rec warm_up k =
        if k <= 1 then None
        else begin
          let t0 = Unix.gettimeofday () in
          match run_pass () with
          | Proteus.Db.Completed _ ->
            Fmt.epr "(pass %d: %d ms)@." (repeat - k + 1)
              (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
            warm_up (k - 1)
          | failed -> Some failed
        end
      in
      let early = warm_up repeat in
      let t0 = Unix.gettimeofday () in
      let outcome = match early with Some f -> f | None -> run_pass () in
      let elapsed = Unix.gettimeofday () -. t0 in
      match outcome with
      | Proteus.Db.Completed (result, report) ->
        (match format with
        | `Json -> print_string (Proteus.Output.to_json result)
        | `Csv -> print_string (Proteus.Output.to_csv result)
        | `Table -> print_string (Proteus.Output.to_table result)
        | `Values -> (
          match result with
          | Value.Coll (_, rows) -> List.iter (fun r -> Fmt.pr "%a@." Value.pp r) rows
          | v -> Fmt.pr "%a@." Value.pp v));
        Fmt.epr "(%d ms)@." (int_of_float (elapsed *. 1000.));
        if stats then begin
          Fmt.epr "%a@." Proteus_engine.Counters.pp report.Fault.rp_stats;
          let cs = Proteus.Db.cache_stats db in
          if cs.Proteus_cache.Manager.fill_commits > 0 || cs.quarantined > 0 then
            Fmt.epr
              "cache fills: commits=%d segments=%d rows=%d quarantined=%d@."
              cs.Proteus_cache.Manager.fill_commits cs.fill_segments cs.fill_rows
              cs.quarantined;
          if cs.Proteus_cache.Manager.promotions > 0 then
            Fmt.epr
              "cache promotion: promotions=%d zone-maps=%d dict-columns=%d \
               sorted-projections=%d slot-columns=%d@."
              cs.Proteus_cache.Manager.promotions cs.zone_maps cs.dict_columns
              cs.sorted_projections cs.slot_columns;
          (* how each raw file's structural index came to be: one full
             build, then rows indexed by extension over appends *)
          List.iter
            (fun (name, _, _) ->
              match Proteus_plugin.Registry.index_info (Proteus.Db.registry db) name with
              | Some i ->
                Fmt.epr "index %s: rows-built=%d rows-extended=%d fixed-layout=%b bytes=%d%s@."
                  name i.Proteus_plugin.Registry.built_rows i.extended_rows i.fixed_schema
                  i.size_bytes
                  (match i.layouts with Some n -> Fmt.str " layouts=%d" n | None -> "")
              | None -> ())
            files;
          if cs.Proteus_cache.Manager.tail_rows > 0 || cs.layouts_extended > 0
             || cs.layouts_dropped > 0
          then
            Fmt.epr "cache appends: tail-rows=%d layouts-extended=%d layouts-dropped=%d@."
              cs.Proteus_cache.Manager.tail_rows cs.layouts_extended cs.layouts_dropped;
          Fmt.epr "%a" pp_report report
        end;
        0
      | Proteus.Db.Failed (report, e) ->
        Fmt.epr "proteus_cli: %a@." (pp_error files) e;
        if stats then Fmt.epr "%a" pp_report report;
        classify e
      | Proteus.Db.Timed_out report ->
        Fmt.epr "proteus_cli: query exceeded its deadline@.";
        if stats then Fmt.epr "%a" pp_report report;
        3
      | Proteus.Db.Cancelled report ->
        Fmt.epr "proteus_cli: query cancelled@.";
        if stats then Fmt.epr "%a" pp_report report;
        2
    end
  end

let run jsons csvs q params engine domains batch_size shards policy max_errors
    timeout_ms retry_budget hedge_ms stats no_cache promote promote_threshold
    no_projection repeat explain verbose format =
  let files =
    List.map (fun (n, p, _) -> (n, p, "json")) jsons
    @ List.map (fun (n, p, _) -> (n, p, "csv")) csvs
  in
  try
    run jsons csvs q params engine domains batch_size shards policy max_errors
      timeout_ms retry_budget hedge_ms stats no_cache promote promote_threshold
      no_projection repeat explain verbose format
  with
  | (Perror.Parse_error _ | Perror.Plan_error _ | Perror.Type_error _
    | Perror.Unsupported _ | Sys_error _) as e ->
    Fmt.epr "proteus_cli: %a@." (pp_error files) e;
    classify e

(* --- serve ---------------------------------------------------------------- *)

let port_arg =
  Arg.(
    value
    & opt int Proteus_server.Server.default_config.Proteus_server.Server.port
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on; 0 binds an \
                                         ephemeral port (printed at startup).")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let workers_arg =
  Arg.(
    value
    & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:"Scheduler worker domains: at most $(docv) queries execute \
              concurrently; the rest wait in the admission queue.")

let queue_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission-control bound: submissions beyond $(docv) waiting \
              queries are rejected with 'err overloaded' instead of \
              queueing unbounded latency.")

let cache_arg =
  Arg.(
    value
    & opt int 64
    & info [ "engine-cache" ] ~docv:"N"
        ~doc:"Plan-shape engine cache capacity: compiled engines kept for \
              re-binding, LRU-evicted beyond $(docv).")

let drain_arg =
  Arg.(
    value
    & opt int
        Proteus_server.Server.default_config.Proteus_server.Server
        .drain_timeout_ms
    & info [ "drain-timeout-ms" ] ~docv:"N"
        ~doc:"Graceful-shutdown budget: on SIGTERM the server stops \
              accepting, lets queued and in-flight queries finish for up \
              to $(docv) milliseconds, then cancels the stragglers \
              cooperatively and exits.")

let serve jsons csvs host port workers queue cache domains batch_size shards
    timeout_ms retry_budget hedge_ms drain_timeout_ms no_cache promote
    promote_threshold verbose =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Info)
  end
  else begin
    (* the listening-port banner is load-bearing for scripted clients *)
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.App)
  end;
  let caching =
    { Proteus_cache.Manager.default_config with promote; promote_threshold }
  in
  let db = Proteus.Db.create ~caching () in
  if no_cache then Proteus.Db.set_caching db false;
  try
    register_inputs db ~shards ~verbose:false jsons csvs;
    configure_resilience db ~retry_budget ~hedge_ms;
    install_env_stall db;
    let cfg =
      {
        Proteus_server.Server.host;
        port;
        workers;
        max_queue = queue;
        cache_capacity = cache;
        domains;
        batch_size = (if batch_size = Proteus_engine.Compiled.default_batch_size then None else Some batch_size);
        timeout_ms;
        drain_timeout_ms;
      }
    in
    (* SIGTERM initiates the graceful drain: the accept loop notices the
       flag at its next select tick (EINTR wakes it immediately) *)
    let stop = Atomic.make false in
    (try
       Sys.set_signal Sys.sigterm
         (Sys.Signal_handle (fun _ -> Atomic.set stop true))
     with Invalid_argument _ -> ());
    Proteus_server.Server.serve ~stop db cfg;
    0
  with
  | (Perror.Parse_error _ | Perror.Plan_error _ | Perror.Type_error _
    | Perror.Unsupported _ | Sys_error _) as e ->
    Fmt.epr "proteus_cli: %a@." Perror.pp_exn e;
    classify e
  | Unix.Unix_error (err, fn, _) ->
    Fmt.epr "proteus_cli: %s: %s@." fn (Unix.error_message err);
    4

let exits =
  Cmd.Exit.info 1 ~doc:"on a plan or type error (the query is wrong)."
  :: Cmd.Exit.info 2 ~doc:"on a parse or data error (the data is wrong)."
  :: Cmd.Exit.info 3 ~doc:"when --timeout-ms expires."
  :: Cmd.Exit.info 4 ~doc:"on an I/O error."
  :: Cmd.Exit.defaults

let query_term =
  Term.(
    const run $ json_args $ csv_args $ query $ params_arg $ engine $ domains
    $ batch_size $ shards_arg $ on_error $ max_errors $ timeout_ms
    $ retry_budget $ hedge_ms $ stats $ no_cache $ promote $ promote_threshold
    $ no_projection $ repeat $ explain $ verbose $ format)

let serve_cmd =
  let doc = "serve concurrent queries over TCP (prepare-once/run-many)" in
  Cmd.v
    (Cmd.info "serve" ~doc ~exits
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Registers the given datasets once, then accepts line-protocol \
              clients: $(b,run SQL) executes a query, $(b,param [NAME=]VALUE) \
              binds parameters for the next run, $(b,timeout MS) sets its \
              deadline, $(b,stats) prints engine-cache, scheduler and \
              resilience counters, $(b,health) reports drain state, queue \
              depth and circuit-breaker states, $(b,ping)/$(b,quit) do what \
              they say. Compiled engines are cached by plan shape: queries \
              differing only in comparison constants re-bind parameter slots \
              instead of re-compiling. SIGTERM drains gracefully (see \
              $(b,--drain-timeout-ms)).";
         ])
    Term.(
      const serve $ json_args $ csv_args $ host_arg $ port_arg $ workers_arg
      $ queue_arg $ cache_arg $ domains $ batch_size $ shards_arg $ timeout_ms
      $ retry_budget $ hedge_ms $ drain_arg $ no_cache $ promote
      $ promote_threshold $ verbose)

let cmd =
  let doc = "query heterogeneous raw data files with one engine" in
  let info = Cmd.info "proteus_cli" ~doc ~exits in
  Cmd.group ~default:query_term info [ serve_cmd ]

let () = exit (Cmd.eval' cmd)
