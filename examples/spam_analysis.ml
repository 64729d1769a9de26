(* A miniature of the Section 7.2 scenario: spam telemetry arriving as JSON
   batches, classifier output as CSV, history as a binary table — analyzed
   together in one session, with the adaptive caches doing their work across
   the query sequence.

   Run with: dune exec examples/spam_analysis.exe *)

open Proteus_model
module Symantec = Proteus_symantec.Symantec
module Manager = Proteus_cache.Manager

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let params =
    { Symantec.default_params with json_objects = 1_000; csv_rows = 8_000; bin_rows = 12_000 }
  in
  let s = Symantec.generate ~params () in
  let db = Proteus.Db.create () in
  Proteus.Db.register_json db ~name:Symantec.json_name ~element:Symantec.json_type
    ~contents:s.Symantec.json_text;
  Proteus.Db.register_csv db ~name:Symantec.csv_name ~element:Symantec.csv_type
    ~contents:s.Symantec.csv_text ();
  Proteus.Db.register_rows db ~name:Symantec.bin_name ~element:Symantec.bin_type
    s.Symantec.bin_records;

  (* ad-hoc SQL over the heterogeneous session *)
  let busiest =
    Proteus.Db.sql db
      "SELECT src, COUNT(*) AS mails FROM spam_bin WHERE day < 25 GROUP BY src"
  in
  Fmt.pr "mails per source (first 25 days):@.";
  List.iter (fun r -> Fmt.pr "  %a@." Value.pp r) (Value.elements busiest);

  (* JSON + unnest: which advertised hosts get clicked *)
  let hot_urls =
    Proteus.Db.run_plan ~optimize:false db
      (Proteus.Db.plan_comprehension db
         "for { j <- spam_json, u <- j.urls, u.clicks > 10 } group by u.host as host \
          yield count(*) as hits, sum(u.clicks) as clicks")
  in
  Fmt.pr "@.hot advertised hosts:@.";
  List.iter (fun r -> Fmt.pr "  %a@." Value.pp r) (Value.elements hot_urls);

  (* cross-format 3-way join *)
  let cross =
    Proteus.Db.run_plan ~optimize:false db
      (Proteus.Db.plan_comprehension db
         "for { b <- spam_bin, c <- spam_csv, j <- spam_json, b.mid = c.mid, \
          b.mid = j.mid, j.score >= 0.8 } yield count(*) as hits, max(b.weight) as w")
  in
  Fmt.pr "@.high-score mails across all three datasets: %a@." Value.pp cross;

  (* the adaptive caching effect: re-running a JSON-heavy query hits the
     binary caches built as a side effect of the first run *)
  let q = "SELECT SUM(size), MAX(score) FROM spam_json WHERE day < 50" in
  let _, first = time (fun () -> Proteus.Db.sql db q) in
  let _, second = time (fun () -> Proteus.Db.sql db q) in
  let stats = Manager.stats (Proteus.Db.cache_manager db) in
  Fmt.pr "@.adaptive caching on %S:@." q;
  Fmt.pr "  first run  %6.2f ms (parses raw JSON, fills caches)@." (first *. 1000.);
  Fmt.pr "  second run %6.2f ms (reads binary cache columns)@." (second *. 1000.);
  Fmt.pr "  cache columns stored: %d, hits so far: %d@." stats.Manager.field_stores
    stats.Manager.field_hits;
  Fmt.pr "  resident cache bytes: %d (JSON file: %d bytes)@."
    (Manager.resident_bytes (Proteus.Db.cache_manager db))
    (String.length s.Symantec.json_text)
