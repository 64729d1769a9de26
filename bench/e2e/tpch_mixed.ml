(* tpch_mixed — warm analytics. TPC-H lineitem as CSV, field-shuffled JSON
   and binary columns, orders as CSV and binary columns, promotion on.
   After a warm-up that builds every index, fills the caches and promotes
   the hot columns, one client streams the Section 7.1 templates
   (projection, three-predicate selection, group-by, orders⋈lineitem) with
   literals drawn half from [0.1%, 2%] and half from [10%, 100%]
   selectivity. Execution dominates — scan, build and probe, format
   decoding, zone and projection skips — while parse and stage take a small
   share; index builds and cache fills should be absent. *)

module Tpch = Proteus_tpch.Tpch
module Manager = Proteus_cache.Manager

(* SF 0.02: 120k lineitems, 3.4 MB of CSV and 13 MB of JSON. *)
let sf (cfg : Common.config) = if cfg.smoke then 0.001 else 0.02

let caching = { Manager.default_config with promote = true }

(* The rendered inputs; the generator's boxed records are dropped once
   rendered, so they do not sit in the measured heap. *)
type inputs = {
  order_count : int;
  lineitem_count : int;
  li_csv : string;
  li_json : string;
  ord_csv : string;
  li_cols : (string * Proteus_storage.Column.t) list;
  ord_cols : (string * Proteus_storage.Column.t) list;
}

let render (tpch : Tpch.t) =
  {
    order_count = tpch.order_count;
    lineitem_count = List.length tpch.lineitems;
    li_csv = Tpch.lineitem_csv tpch;
    li_json = Tpch.lineitem_json ~shuffle_fields:true tpch;
    ord_csv = Tpch.orders_csv tpch;
    li_cols = Tpch.lineitem_columns tpch;
    ord_cols = Tpch.orders_columns tpch;
  }

let register db i =
  let open Proteus.Db in
  register_csv db ~name:"lineitem_csv" ~element:Tpch.lineitem_type ~contents:i.li_csv ();
  register_json db ~name:"lineitem_json" ~element:Tpch.lineitem_type ~contents:i.li_json;
  register_columns db ~name:"lineitem_bin" ~element:Tpch.lineitem_type i.li_cols;
  register_csv db ~name:"orders_csv" ~element:Tpch.order_type ~contents:i.ord_csv ();
  register_columns db ~name:"orders_bin" ~element:Tpch.order_type i.ord_cols

let lineitems = [ "lineitem_csv"; "lineitem_json"; "lineitem_bin" ]
let orders = [ "orders_csv"; "orders_bin" ]

(* One Section 7.1 template over [li] (and [o] for the join) with the
   selectivity-controlling bound [x] on l_orderkey. *)
let sql template ~li ~o ~x =
  match template with
  | 0 ->
    Printf.sprintf
      "SELECT COUNT(*), MAX(l_quantity), SUM(l_extendedprice), MAX(l_discount) FROM %s \
       WHERE l_orderkey < %d"
      li x
  | 1 ->
    Printf.sprintf
      "SELECT COUNT(*) FROM %s WHERE l_orderkey < %d AND l_quantity < 51 AND l_discount < 0.11"
      li x
  | 2 ->
    Printf.sprintf
      "SELECT l_linenumber, COUNT(*), SUM(l_quantity), MAX(l_extendedprice) FROM %s WHERE \
       l_orderkey < %d GROUP BY l_linenumber"
      li x
  | _ ->
    Printf.sprintf
      "SELECT COUNT(*), MAX(o.o_totalprice) FROM %s l JOIN %s o ON o.o_orderkey = \
       l.l_orderkey WHERE l.l_orderkey < %d"
      li o x

(* The bound on l_orderkey at position [u] in [0, 1) of a selectivity
   band: [0.1%, 2%] when [selective], else [10%, 100%]. *)
let bound ~order_count ~selective u =
  let lo, hi = if selective then (0.001, 0.02) else (0.1, 1.0) in
  max 1 (int_of_float ((lo +. ((hi -. lo) *. u)) *. float_of_int order_count))

(* Each band splits into quarters; a request lands at a random point of
   its quarter. *)
let quarters = [ 0; 1; 2; 3 ]
let at_quarter rng q = (float_of_int q +. Random.State.float rng 1.0) /. 4.

(* Every (template, lineitem input, orders input, band, quarter): 192
   request kinds — the orders input only matters to the join — streamed in
   shuffled blocks, so each run sends the same mix and only the order and
   the exact bounds vary with the seed. *)
let kinds =
  List.concat_map
    (fun template ->
      List.concat_map
        (fun li ->
          List.concat_map
            (fun o ->
              List.concat_map
                (fun selective -> List.map (fun q -> (template, li, o, selective, q)) quarters)
                [ true; false ])
            orders)
        lineitems)
    [ 0; 1; 2; 3 ]

let stream rng ~order_count =
  let kind = Common.shuffled_blocks rng kinds in
  fun () ->
    let template, li, o, selective, q = kind () in
    sql template ~li ~o ~x:(bound ~order_count ~selective (at_quarter rng q))

(* Set-up: registration plus one block of the stream as warm-up: every
   (template, inputs, band) at least four times, past the promotion
   threshold of three. *)
let setup i ~seed =
  let db = Proteus.Db.create ~caching () in
  register db i;
  let next = stream (Random.State.make [| seed; 1 |]) ~order_count:i.order_count in
  List.iter (fun _ -> ignore (Proteus.Db.sql ~domains:Common.domains db (next ()))) kinds;
  db

let run (cfg : Common.config) : Common.result =
  let i = render (Tpch.generate ~seed:cfg.seed ~sf:(sf cfg) ()) in
  let db, setup_times = Common.set_up (fun () -> setup i ~seed:cfg.seed) in
  let tally = Common.tally () in
  let sampled = Common.sampler cfg in
  let next = stream (Random.State.make [| cfg.seed; 2 |]) ~order_count:i.order_count in
  let checks = ref [] and completed = ref [] and rid = ref 0 in
  let t0 = Common.now () in
  while Common.now () -. t0 < cfg.seconds do
    let q = next () in
    incr rid;
    tally.attempted <- tally.attempted + 1;
    match
      Pipeline.request cfg db ~rid:!rid ~trace_this:(!rid mod 2 = 0) (Pipeline.Sql q)
    with
    | v, dt ->
      completed := (Common.now () -. t0, dt) :: !completed;
      if sampled () then checks := (q, v) :: !checks
    | exception e -> Common.note_error tally q e
  done;
  let window = Common.now () -. t0 in
  let heap_live_mb = Common.heap_live_mb db in
  Option.iter
    (fun (l : Layers.t) ->
      l.resident_bytes <- Manager.resident_bytes (Proteus.Db.cache_manager db))
    cfg.layers;
  let promotions = (Proteus.Db.cache_stats db).promotions in
  let oracle = Oracle.session () in
  register oracle i;
  List.iter
    (fun (q, v) ->
      match Oracle.sql_answer oracle q with
      | e -> Common.check tally q (Oracle.close v e)
      | exception e -> Common.note_error tally ("oracle " ^ q) e)
    (List.rev !checks);
  {
    attempted = tally.attempted;
    failed = tally.failed;
    wrong = tally.wrong;
    checked = tally.checked;
    window_s = window;
    rounds = Common.slices ~window !completed;
    heap_live_mb;
    setups = setup_times;
    tail = 99.;
    extra = [ ("promotions_total", float_of_int promotions, "count") ];
    inputs =
      [
        ("sf", Printf.sprintf "%g" (sf cfg));
        ("lineitems", string_of_int i.lineitem_count);
        ("lineitem_csv_bytes", string_of_int (String.length i.li_csv));
        ("lineitem_json_bytes", string_of_int (String.length i.li_json));
      ];
  }
