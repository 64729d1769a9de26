(* spam_cold — the paper's headline workload. The Symantec Figure 14
   sequence Q1–Q50 runs over raw JSON, CSV and binary rows, each
   repetition on a fresh session whose raw files are untouched, with
   default caching. Every query is distinct and most join across formats,
   so structural-index builds, cache fills and per-query planning and
   staging dominate; the engine cache and promotion are never used. *)

module Symantec = Proteus_symantec.Symantec

(* 3x the generator's defaults: a sequence takes about half a second on a
   two-core host, so a ten-second window holds ~20 repetitions, ~1000
   query samples. *)
let scale (cfg : Common.config) = if cfg.smoke then 0.05 else 3.

let register db (s : Symantec.t) =
  Proteus.Db.register_json db ~name:Symantec.json_name ~element:Symantec.json_type
    ~contents:s.json_text;
  Proteus.Db.register_csv db ~name:Symantec.csv_name ~element:Symantec.csv_type
    ~contents:s.csv_text ();
  Proteus.Db.register_rows db ~name:Symantec.bin_name ~element:Symantec.bin_type
    s.bin_records

let run (cfg : Common.config) : Common.result =
  let k = scale cfg in
  let d = Symantec.default_params in
  let times n = max 10 (int_of_float (k *. float_of_int n)) in
  let params =
    {
      d with
      json_objects = times d.json_objects;
      csv_rows = times d.csv_rows;
      bin_rows = times d.bin_rows;
      seed = cfg.seed;
    }
  in
  let s = Symantec.generate ~params () in
  let queries = Symantec.queries s in
  let tally = Common.tally () in
  let sampled = Common.sampler cfg in
  let checks = ref [] and rounds = ref [] and setups = ref [] and seqs = ref [] in
  let busy = ref 0. and rep = ref 0 and rid = ref 0 and last = ref None in
  (* the window is the summed sequence time; set-ups sit between sequences *)
  while !rep < 2 || !busy < cfg.seconds do
    (* the previous session is garbage from here; [last] keeps the final
       one for the heap reading *)
    last := None;
    Gc.full_major ();
    let db = Proteus.Db.create () in
    let (), setup = Common.timed (fun () -> register db s) in
    setups := setup :: !setups;
    (* a traced run alternates traced and untraced repetitions *)
    let trace_this = !rep mod 2 = 1 in
    let t0 = Common.now () in
    let lats = ref [] in
    List.iter
      (fun (qid, plan) ->
        incr rid;
        tally.attempted <- tally.attempted + 1;
        match Pipeline.request cfg db ~rid:!rid ~trace_this (Pipeline.Plan plan) with
        | v, dt ->
          lats := dt :: !lats;
          (* all 50 answers of the first repetition, a sample after it *)
          if !rep = 0 || sampled () then checks := (qid, plan, v) :: !checks
        | exception e -> Common.note_error tally qid e)
      queries;
    let seq = Common.now () -. t0 in
    seqs := seq :: !seqs;
    rounds := { Common.lats = !lats; secs = seq } :: !rounds;
    busy := !busy +. seq;
    last := Some db;
    incr rep;
    Option.iter
      (fun (l : Layers.t) ->
        l.resident_bytes <-
          Proteus_cache.Manager.resident_bytes (Proteus.Db.cache_manager db))
      cfg.layers
  done;
  let heap_live_mb = Common.heap_live_mb (Option.get !last) in
  let oracle = Oracle.session () in
  register oracle s;
  let expected = Hashtbl.create 64 in
  List.iter
    (fun (qid, plan, v) ->
      match
        match Hashtbl.find_opt expected qid with
        | Some e -> e
        | None ->
          let e = Oracle.plan_answer oracle plan in
          Hashtbl.replace expected qid e;
          e
      with
      | e -> Common.check tally qid (Oracle.close v e)
      | exception e -> Common.note_error tally ("oracle " ^ qid) e)
    (List.rev !checks);
  {
    attempted = tally.attempted;
    failed = tally.failed;
    wrong = tally.wrong;
    checked = tally.checked;
    window_s = !busy;
    rounds = !rounds;
    setups = !setups;
    heap_live_mb;
    tail = 99.;
    extra = [ ("seq_s", Common.median !seqs, "s"); ("repetitions", float_of_int !rep, "count") ];
    inputs =
      [
        ("scale", Printf.sprintf "%gx Symantec defaults" k);
        ("json_bytes", string_of_int (String.length s.json_text));
        ("csv_bytes", string_of_int (String.length s.csv_text));
        ("bin_rows", string_of_int params.bin_rows);
      ];
  }
