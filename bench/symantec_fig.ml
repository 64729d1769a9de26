(* Figure 14 and Table 3: the Symantec spam-analysis workload of Section 7.2.

   Three approaches over the same three datasets:
   - PostgreSQL-like: one generic row store extended with jsonb (loads both
     raw files up front);
   - DBMS-C & MongoDB: a federation with a mediating middleware;
   - Proteus: queries the raw files in place, caching adaptively.

   As in the paper: the binary table is pre-loaded everywhere ("the OS cache
   contains the binary table"), neither CSV nor JSON has been touched when
   the 50-query sequence starts, and Proteus' caching is enabled. *)

module Symantec = Proteus_symantec.Symantec
module B = Proteus_baselines
module Json = Proteus_format.Json

let params =
  {
    Symantec.default_params with
    json_objects =
      (try int_of_string (Sys.getenv "PROTEUS_BENCH_SPAM_JSON") with Not_found -> 1500);
    csv_rows =
      (try int_of_string (Sys.getenv "PROTEUS_BENCH_SPAM_CSV") with Not_found -> 12_000);
    bin_rows =
      (try int_of_string (Sys.getenv "PROTEUS_BENCH_SPAM_BIN") with Not_found -> 20_000);
  }

let run_all () =
  let s = Symantec.generate ~params () in
  Fmt.pr
    "@.[setup] Symantec workload: %d JSON objects (%d KB), %d CSV rows (%d KB), %d \
     binary rows@."
    params.Symantec.json_objects
    (String.length s.Symantec.json_text / 1024)
    params.Symantec.csv_rows
    (String.length s.Symantec.csv_text / 1024)
    params.Symantec.bin_rows;
  (* approach I: generic row store; loads CSV and JSON before querying *)
  let pg = B.Rowstore.create ~json_encoding:B.Rowstore.Jsonb () in
  B.Rowstore.load_relational pg ~name:Symantec.bin_name ~element:Symantec.bin_type
    s.Symantec.bin_records;
  let _, pg_load_csv =
    Util.time_once (fun () ->
        B.Rowstore.load_csv pg ~name:Symantec.csv_name ~element:Symantec.csv_type
          s.Symantec.csv_text)
  in
  let _, pg_load_json =
    Util.time_once (fun () ->
        B.Rowstore.load_json pg ~name:Symantec.json_name ~element:Symantec.json_type
          s.Symantec.json_text)
  in
  (* approach II: DBMS-C + MongoDB federation *)
  let fed = B.Federation.create () in
  B.Federation.load_relational fed ~name:Symantec.bin_name ~sort_key:"day"
    ~element:Symantec.bin_type s.Symantec.bin_records;
  let _, fed_load_csv =
    Util.time_once (fun () ->
        B.Federation.load_csv fed ~name:Symantec.csv_name ~sort_key:"day"
          ~element:Symantec.csv_type s.Symantec.csv_text)
  in
  let _, fed_load_json =
    Util.time_once (fun () ->
        B.Federation.load_json fed ~name:Symantec.json_name ~element:Symantec.json_type
          s.Symantec.json_text)
  in
  (* approach III: Proteus over the raw files, adaptive caching on *)
  let db = Proteus.Db.create () in
  Proteus.Db.register_json db ~name:Symantec.json_name ~element:Symantec.json_type
    ~contents:s.Symantec.json_text;
  Proteus.Db.register_csv db ~name:Symantec.csv_name ~element:Symantec.csv_type
    ~contents:s.Symantec.csv_text ();
  Proteus.Db.register_rows db ~name:Symantec.bin_name ~element:Symantec.bin_type
    s.Symantec.bin_records;

  (* run the 50 queries once each, in sequence (the workload is adaptive:
     caches built by early queries serve later ones) *)
  Fmt.pr "@.== Figure 14: spam workload, per query (ms) ==@.";
  let systems = [ "PostgreSQL"; "DBMSC+Mongo"; "Proteus" ] in
  Fmt.pr "%-6s%-12s%14s%14s%14s@." "query" "datasets" "PostgreSQL" "DBMSC+Mongo"
    "Proteus";
  let totals = Array.make 3 0.0 in
  let q39 = Array.make 3 0.0 in
  let fig14 =
    List.concat_map
      (fun (name, plan) ->
        let plan = Util.tune plan in
        let _, t_pg = Util.time_once (fun () -> ignore (B.Rowstore.run pg plan)) in
        let _, t_fed = Util.time_once (fun () -> ignore (B.Federation.run fed plan)) in
        let _, t_pr = Util.time_once (fun () -> ignore (Proteus.Db.run_plan db plan)) in
        let ts = [| t_pg; t_fed; t_pr |] in
        Array.iteri (fun i t -> totals.(i) <- totals.(i) +. t) ts;
        if name = "Q39" then Array.blit ts 0 q39 0 3;
        Fmt.pr "%-6s%-12s%11.2fms %11.2fms %11.2fms@." name (Symantec.group_of name)
          (Util.ms t_pg) (Util.ms t_fed) (Util.ms t_pr);
        List.mapi
          (fun i system ->
            Util.record ~figure:"fig14"
              ~params:
                [ ("system", Json.Str system);
                  ("datasets", Json.Str (Symantec.group_of name)) ]
              name (Util.once ts.(i)))
          systems)
      (Symantec.queries s)
  in

  (* Table 3: accumulated time per workload phase *)
  let middleware = B.Federation.middleware_seconds fed in
  Fmt.pr "@.== Table 3: accumulated execution time per phase (ms) ==@.";
  Fmt.pr "%-16s%12s%12s%12s%12s%12s%12s@." "" "LoadCSV" "LoadJSON" "Middleware" "Q39"
    "Rest" "Total";
  let row name load_csv load_json mid q39 total =
    let rest = total -. q39 in
    Fmt.pr "%-16s%10.0fms %10.0fms %10.0fms %10.0fms %10.0fms %10.0fms@." name
      (Util.ms load_csv) (Util.ms load_json) (Util.ms mid) (Util.ms q39) (Util.ms rest)
      (Util.ms (load_csv +. load_json +. mid +. total))
  in
  row "PostgreSQL" pg_load_csv pg_load_json 0.0 q39.(0) totals.(0);
  row "DBMSC+MongoDB" fed_load_csv fed_load_json middleware q39.(1) totals.(1);
  row "Proteus" 0.0 0.0 0.0 q39.(2) totals.(2);
  let total i extra = extra +. totals.(i) in
  let pg_total = total 0 (pg_load_csv +. pg_load_json) in
  let fed_total = total 1 (fed_load_csv +. fed_load_json +. middleware) in
  let pr_total = total 2 0.0 in
  Fmt.pr
    "@.   Proteus is %.1fx faster than the extended RDBMS and %.1fx faster than the \
     federation (the paper reports 9.1x and 2.9x)@."
    (pg_total /. pr_total) (fed_total /. pr_total);
  (* cache-size ratios, as reported at the end of Section 7.2 *)
  let mgr = Proteus.Db.cache_manager db in
  let ratio bytes file = 100. *. float_of_int bytes /. float_of_int (String.length file) in
  Fmt.pr
    "   Proteus field caches: %.1f%% of the CSV file, %.1f%% of the JSON file (the \
     paper reports ~30%% and ~2.5%%); materialized join sides add %d bytes@."
    (ratio (Proteus_cache.Manager.field_bytes_for mgr ~dataset:Symantec.csv_name)
       s.Symantec.csv_text)
    (ratio (Proteus_cache.Manager.field_bytes_for mgr ~dataset:Symantec.json_name)
       s.Symantec.json_text)
    (Proteus_cache.Manager.resident_bytes mgr
    - Proteus_cache.Manager.field_bytes_for mgr ~dataset:Symantec.csv_name
    - Proteus_cache.Manager.field_bytes_for mgr ~dataset:Symantec.json_name);
  (* the load and middleware phases; Q39 and the rest are the fig14 cells *)
  let phase system cell t =
    Util.record ~figure:"table3" ~params:[ ("system", Json.Str system) ] cell (Util.once t)
  in
  fig14
  @ [
      phase "PostgreSQL" "LoadCSV" pg_load_csv;
      phase "PostgreSQL" "LoadJSON" pg_load_json;
      phase "DBMSC+Mongo" "LoadCSV" fed_load_csv;
      phase "DBMSC+Mongo" "LoadJSON" fed_load_json;
      phase "DBMSC+Mongo" "Middleware" middleware;
    ]
