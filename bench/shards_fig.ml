(* Sharded scatter-gather execution: shard-count scaling against the
   single-file engine, and pre-dispatch zone-map/Bloom pruning at two
   predicate selectivities (DESIGN.md section 14).

   Two questions, each with an honest baseline in the emitted JSON:
   - what does splitting one file into N shards cost on a non-selective
     scan (fan-out/fan-in overhead vs the same rows in one file)?
   - what does pruning buy on a selective scan over clustered keys, where
     most shards are provably empty — vs the same query unsharded, and vs
     the 50%-selectivity case where half the shards must still run? *)

module Plan = Proteus_algebra.Plan
module Expr = Proteus_model.Expr
module Ptype = Proteus_model.Ptype
module Monoid = Proteus_model.Monoid
module Counters = Proteus_engine.Counters

let max_domains =
  try int_of_string (String.trim (Sys.getenv "PROTEUS_BENCH_DOMAINS")) with _ -> 4

let rows = 200_000
let shard_counts = [ 2; 4; 8 ]

let ev_type =
  Ptype.Record [ ("k", Ptype.Int); ("grp", Ptype.Int); ("price", Ptype.Float) ]

(* one CSV text for the single file, split into contiguous chunks for the
   shard sets — identical bytes overall, so the cells isolate the shard
   machinery, not the data *)
let csv_lines =
  lazy
    (Array.init rows (fun i ->
         Fmt.str "%d,%d,%d.25" i (i mod 7) (i mod 100)))

let csv_range lo hi =
  let lines = Lazy.force csv_lines in
  let buf = Buffer.create ((hi - lo) * 16) in
  for i = lo to hi - 1 do
    Buffer.add_string buf lines.(i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let make_db ~shards =
  let db = Proteus.Db.create () in
  (if shards <= 1 then
     Proteus.Db.register_csv db ~name:"events" ~element:ev_type
       ~contents:(csv_range 0 rows) ()
   else
     let per = rows / shards in
     let chunks =
       List.init shards (fun s ->
           csv_range (s * per) (if s = shards - 1 then rows else (s + 1) * per))
     in
     Proteus.Db.register_sharded_csv db ~name:"events" ~element:ev_type
       ~shards:chunks ());
  db

let tune plan =
  Proteus_optimizer.Rewrite.extract_join_keys
    (Proteus_optimizer.Rewrite.pushdown_selections plan)

let scan_query frac =
  tune
    (Plan.reduce
       ~pred:Expr.(Field (var "x", "k") <. int (rows * frac / 100))
       [ Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1);
         Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum)
           (Expr.Field (Expr.var "x", "price")) ]
       (Plan.scan ~dataset:"events" ~binding:"x" ()))

(* (cell, shards, domains, median seconds); shards = 1 is the single-file
   baseline *)
let scaling_records : (string * int * int * float) list ref = ref []

(* (cell, shards, median seconds, shards pruned, shards total) *)
let pruning_records : (string * int * float * int * int) list ref = ref []

(* One warming run first: a statement prepared before its inputs are cached
   keeps the raw path on every run, so without it whichever width a cell
   measures first would time a cold-staged engine. *)
let measure_at db ~domains plan =
  ignore (Proteus.Db.run_plan ~domains db plan);
  let prepared = Proteus.Db.prepare_plan ~domains db plan in
  Util.measure_n 9 (fun () -> ignore (prepared.Proteus.Db.run ()))

(* Non-selective scan, warm caches: every shard runs, so the cell is pure
   fan-out/fan-in overhead against the single file. *)
let scaling_cells () =
  let plan = scan_query 100 in
  List.iter
    (fun shards ->
      let db = make_db ~shards in
      Fmt.pr "   full scan, %s:"
        (if shards <= 1 then "single file" else Fmt.str "%d shards" shards);
      List.iter
        (fun domains ->
          let t = measure_at db ~domains plan in
          scaling_records := ("full scan", shards, domains, t) :: !scaling_records;
          Fmt.pr " %dd=%.2fms" domains (Util.ms t))
        (List.sort_uniq compare [ 1; max_domains ]);
      Fmt.pr "@.")
    (1 :: shard_counts)

(* Selective scans over clustered keys, raw files (caching off so pruning
   arms — a cold cache fill deliberately stands down): at 1% selectivity
   7 of 8 shards are provably empty and never dispatched; at 50% half the
   shards must run regardless. The single-file rows are the
   baseline_single_file curve. *)
let pruning_cells () =
  List.iter
    (fun frac ->
      let name = Fmt.str "selective %d%%" frac in
      let plan = scan_query frac in
      List.iter
        (fun shards ->
          let db = make_db ~shards in
          Proteus.Db.set_caching db false;
          let t = measure_at db ~domains:max_domains plan in
          let _, s =
            Proteus_engine.Executor.measure (fun () ->
                Proteus.Db.run_plan ~domains:max_domains db plan)
          in
          let pruned = s.Counters.shards_pruned in
          pruning_records := (name, shards, t, pruned, shards) :: !pruning_records;
          Fmt.pr "   pruning, %s, %s: %.2fms (pruned %d/%d)@." name
            (if shards <= 1 then "single file" else Fmt.str "%d shards" shards)
            (Util.ms t) pruned shards)
        [ 1; 8 ])
    [ 1; 50 ]

let run_all () =
  Fmt.pr "@.== Sharded scatter-gather: scaling + zone-map/Bloom pruning ==@.";
  scaling_cells ();
  pruning_cells ();
  Util.print_note
    "full-scan cells measure fan-out/fan-in overhead (all shards run); \
     pruning cells run over raw files where provably-empty shards are \
     never dispatched"

let splice_json path =
  let contents =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let cut = String.rindex contents '}' in
  let buf = Buffer.create (String.length contents + 1024) in
  Buffer.add_string buf (String.sub contents 0 cut);
  Buffer.add_string buf ",\n  \"shard_scaling\": [\n";
  let scaling = List.rev !scaling_records in
  List.iteri
    (fun i (cell, shards, domains, t) ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"cell\": %S, \"shards\": %d, \"domains\": %d, \"median_ms\": \
            %.4f}%s\n"
           cell shards domains (Util.ms t)
           (if i = List.length scaling - 1 then "" else ",")))
    scaling;
  Buffer.add_string buf "  ],\n  \"shard_pruning\": [\n";
  let pruning =
    List.filter (fun (_, shards, _, _, _) -> shards > 1) (List.rev !pruning_records)
  in
  List.iteri
    (fun i (cell, shards, t, pruned, total) ->
      Buffer.add_string buf
        (Fmt.str
           "    {\"cell\": %S, \"shards\": %d, \"median_ms\": %.4f, \
            \"shards_pruned\": %d, \"pruned_share\": %.3f}%s\n"
           cell shards (Util.ms t) pruned
           (float_of_int pruned /. float_of_int total)
           (if i = List.length pruning - 1 then "" else ",")))
    pruning;
  (* the unsharded rows of the same queries: what the engine did before
     shard sets existed, same key the other before/after curves use *)
  let base =
    List.filter (fun (_, shards, _, _, _) -> shards = 1) (List.rev !pruning_records)
  in
  Buffer.add_string buf "  ],\n  \"baseline_single_file\": [\n";
  List.iteri
    (fun i (cell, _, t, _, _) ->
      Buffer.add_string buf
        (Fmt.str "    {\"cell\": %S, \"shards\": 1, \"median_ms\": %.4f}%s\n" cell
           (Util.ms t)
           (if i = List.length base - 1 then "" else ",")))
    base;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Fmt.pr "   spliced shard cells into %s@." path
