(* append_mix — writes beside reads. TPC-H lineitem starts 80% loaded as CSV
   and as JSON (orders as binary columns), promotion on. Each cycle appends
   the next 200 held-out rows to both files with [Db.append], reads both
   row counts back (the freshness probe: the count must include the new
   rows), then runs 25 selective reads (0.1%–2%) of the tpch_mixed
   templates. It uses the plug-in, cache and promotion layers tpch_mixed
   uses, but every append drops the file's indexes, cached columns and
   promoted layouts, so each cycle's first reads pay a rebuild: a warm-path
   gain that costs rebuilds shows here. *)

module Tpch = Proteus_tpch.Tpch
module Value = Proteus_model.Value

let sf (cfg : Common.config) = if cfg.smoke then 0.001 else 0.02
let chunk_rows (cfg : Common.config) = if cfg.smoke then 20 else 200
let reads_per_cycle = 25
let files = [ "lineitem_csv"; "lineitem_json" ]

type inputs = {
  order_count : int;
  base_rows : int;
  base : string * string;  (* CSV, JSON *)
  chunks : (string * string) array;  (* the held-out rows, 200 per append *)
  ord_cols : (string * Proteus_storage.Column.t) list;
}

let render (cfg : Common.config) (t : Tpch.t) =
  let n = List.length t.lineitems in
  let base_rows = n * 8 / 10 in
  let texts lineitems =
    let t = { t with lineitems } in
    (Tpch.lineitem_csv t, Tpch.lineitem_json ~shuffle_fields:true t)
  in
  let base = List.filteri (fun i _ -> i < base_rows) t.lineitems in
  let rest = Array.of_list (List.filteri (fun i _ -> i >= base_rows) t.lineitems) in
  let k = chunk_rows cfg in
  {
    order_count = t.order_count;
    base_rows;
    base = texts base;
    chunks =
      Array.init (Array.length rest / k) (fun c -> texts (Array.to_list (Array.sub rest (c * k) k)));
    ord_cols = Tpch.orders_columns t;
  }

let register db i =
  let csv, json = i.base in
  Proteus.Db.register_csv db ~name:"lineitem_csv" ~element:Tpch.lineitem_type ~contents:csv ();
  Proteus.Db.register_json db ~name:"lineitem_json" ~element:Tpch.lineitem_type ~contents:json;
  Proteus.Db.register_columns db ~name:"orders_bin" ~element:Tpch.order_type i.ord_cols

let append db i c =
  let csv, json = i.chunks.(c) in
  Proteus.Db.append db ~name:"lineitem_csv" csv;
  Proteus.Db.append db ~name:"lineitem_json" json

(* The selective reads: every (template, file, quarter of the band), 32
   kinds streamed in shuffled blocks so each run has the same mix. *)
let kinds =
  List.concat_map
    (fun t ->
      List.concat_map
        (fun f -> List.map (fun q -> (t, f, q)) Tpch_mixed.quarters)
        files)
    [ 0; 1; 2; 3 ]

let reads rng i =
  let kind = Common.shuffled_blocks rng kinds in
  fun () ->
    let template, li, q = kind () in
    Tpch_mixed.sql template ~li ~o:"orders_bin"
      ~x:(Tpch_mixed.bound ~order_count:i.order_count ~selective:true (Tpch_mixed.at_quarter rng q))

let count_sql file = "SELECT COUNT(*) FROM " ^ file

(* Set-up: registration plus one block of selective reads: every
   (template, file) four times, past the promotion threshold of three. *)
let setup i ~seed =
  let db = Proteus.Db.create ~caching:Tpch_mixed.caching () in
  register db i;
  let next = reads (Random.State.make [| seed; 1 |]) i in
  List.iter (fun _ -> ignore (Proteus.Db.sql ~domains:Common.domains db (next ()))) kinds;
  db

let run (cfg : Common.config) : Common.result =
  let i = render cfg (Tpch.generate ~seed:cfg.seed ~sf:(sf cfg) ()) in
  let db, setups = Common.set_up (fun () -> setup i ~seed:cfg.seed) in
  let tally = Common.tally () in
  let sampled = Common.sampler cfg in
  let next = reads (Random.State.make [| cfg.seed; 2 |]) i in
  let fresh = ref [] and probes = ref [] and checks = ref [] and rounds = ref [] in
  let rid = ref 0 and cycle = ref 0 and lats = ref [] in
  let one ~trace_this q =
    incr rid;
    tally.attempted <- tally.attempted + 1;
    match Pipeline.request cfg db ~rid:!rid ~trace_this (Pipeline.Sql q) with
    | v, dt ->
      lats := dt :: !lats;
      Some v
    | exception e ->
      Common.note_error tally q e;
      None
  in
  let t0 = Common.now () in
  while
    !cycle < Array.length i.chunks && (!cycle < 2 || Common.now () -. t0 < cfg.seconds)
  do
    let c = !cycle in
    (* a traced run alternates traced and untraced cycles *)
    let trace_this = c mod 2 = 1 in
    let ta = Common.now () in
    lats := [];
    tally.attempted <- tally.attempted + 1;
    (match
       match cfg.layers with
       | Some l when trace_this ->
         Trace.span l.trace ~rid:!rid "proteus.append" (fun _ -> append db i c)
       | _ -> append db i c
     with
    | () ->
      List.iter
        (fun file ->
          Option.iter
            (fun v -> probes := (c, file, v) :: !probes)
            (one ~trace_this (count_sql file)))
        files;
      fresh := (Common.now () -. ta) :: !fresh;
      for _ = 1 to reads_per_cycle do
        let q = next () in
        Option.iter (fun v -> if sampled () then checks := (c, q, v) :: !checks) (one ~trace_this q)
      done
    | exception e -> Common.note_error tally "append" e);
    rounds := { Common.lats = !lats; secs = Common.now () -. ta } :: !rounds;
    incr cycle
  done;
  let window = Common.now () -. t0 in
  let heap_live_mb = Common.heap_live_mb db in
  Option.iter
    (fun (l : Layers.t) ->
      l.resident_bytes <-
        Proteus_cache.Manager.resident_bytes (Proteus.Db.cache_manager db))
    cfg.layers;
  (* every probe must count the base plus every chunk appended so far *)
  List.iter
    (fun (c, file, v) ->
      let expected = i.base_rows + ((c + 1) * chunk_rows cfg) in
      Common.check tally (count_sql file) (Oracle.close v (Value.Int expected)))
    !probes;
  (* the sampled reads, against an oracle session replaying the appends *)
  let oracle = Oracle.session () in
  register oracle i;
  let checks = List.rev !checks in
  for c = 0 to !cycle - 1 do
    append oracle i c;
    List.iter
      (fun (c', q, v) ->
        if c' = c then
          match Oracle.sql_answer oracle q with
          | e -> Common.check tally q (Oracle.close v e)
          | exception e -> Common.note_error tally ("oracle " ^ q) e)
      checks
  done;
  {
    attempted = tally.attempted;
    failed = tally.failed;
    wrong = tally.wrong;
    checked = tally.checked;
    window_s = window;
    rounds = !rounds;
    heap_live_mb;
    setups;
    tail = 97.;
    extra =
      [
        ("fresh_ms", 1000. *. Common.median !fresh, "ms");
        ("cycles", float_of_int !cycle, "count");
      ];
    inputs =
      [
        ("sf", Printf.sprintf "%g" (sf cfg));
        ("base_rows", string_of_int i.base_rows);
        ("rows_per_append", string_of_int (chunk_rows cfg));
        ("reads_per_cycle", string_of_int reads_per_cycle);
      ];
  }
