(* Differential tests for adaptive storage 2.0: sorted projections, pre-parsed
   JSON slot columns and join-side Bloom pruning must be invisible in results —
   any domain count, any batch size, any format — while observably skipping
   morsels/batches where plain zone maps cannot.

   The data shape is adversarial for zone maps: [u] follows the OID order
   except that every zone gets a planted 0 and a planted (n-1), so every
   per-zone [min,max] spans the whole domain and min/max pruning is powerless,
   while a BETWEEN predicate's qualifying rows still cluster into one or two
   zones that only the value-ordered projection can isolate. *)

open Proteus_model
open Proteus_catalog
open Proteus_plugin
open Proteus_cache
open Proteus_storage
module Plan = Proteus_algebra.Plan
module Executor = Proteus_engine.Executor
module Counters = Proteus_engine.Counters

let check_value = Alcotest.testable Value.pp Value.equal

let n_rows = 4000

let item_type =
  Ptype.Record
    [ ("k", Ptype.Int); ("u", Ptype.Int); ("v", Ptype.Float); ("s", Ptype.String) ]

let item_schema = Schema.of_type item_type

(* u = i, except every 50th row is an outlier pinned to the domain edge: with
   a 62-row zone granule every zone sees both 0 and n-1. s is clustered in
   runs of 400 (the dictionary zone-map lane). *)
let u_of i = if i mod 50 = 0 then 0 else if i mod 50 = 25 then n_rows - 1 else i

let items =
  List.init n_rows (fun i ->
      Value.record
        [ ("k", Value.Int i);
          ("u", Value.Int (u_of i));
          ("v", Value.Float (float_of_int i *. 0.5));
          ("s", Value.String (Fmt.str "g%d" (i / 400))) ])

(* Mixed nulls: every third m is Null, every fifth t is Null; the survivors
   stay clustered so Nullmask projections and Nullmask(Dicts) zone maps can
   still prune. *)
let mix_type =
  Ptype.Record
    [ ("k", Ptype.Int);
      ("m", Ptype.Option Ptype.Int);
      ("t", Ptype.Option Ptype.String) ]

let n_mix = 1000

let mixes =
  List.init n_mix (fun i ->
      Value.record
        [ ("k", Value.Int i);
          ("m", (if i mod 3 = 0 then Value.Null else Value.Int i));
          ( "t",
            if i mod 5 = 0 then Value.Null
            else Value.String (Fmt.str "h%d" (i / 100)) ) ])

(* Narrow dimension: 41 keys [2000,2040] — a selective join build. *)
let dim_lo = 2000
let dim_n = 41

let dims =
  List.init dim_n (fun i ->
      Value.record
        [ ("gid", Value.Int (dim_lo + i)); ("w", Value.Int (2 * (dim_lo + i))) ])

let dim_type = Ptype.Record [ ("gid", Ptype.Int); ("w", Ptype.Int) ]

let to_json records =
  String.concat "\n"
    (List.map
       (fun r -> Proteus_format.Json.to_string (Proteus_format.Json.of_value r))
       records)

let formats = [ "pcsv"; "pjson"; "prow"; "pcol" ]

let make_session ?cache_budget ?config () =
  let cat = Catalog.create ?cache_budget () in
  let mem = Catalog.memory cat in
  Memory.register_blob mem ~name:"p.csv"
    (Proteus_format.Csv.of_records Proteus_format.Csv.default_config item_schema
       items);
  Catalog.register cat
    (Dataset.make ~name:"pcsv"
       ~format:(Dataset.Csv Proteus_format.Csv.default_config)
       ~location:(Dataset.Blob "p.csv") ~element:item_type);
  Memory.register_blob mem ~name:"p.json" (to_json items);
  Catalog.register cat
    (Dataset.make ~name:"pjson" ~format:Dataset.Json
       ~location:(Dataset.Blob "p.json") ~element:item_type);
  Catalog.register cat
    (Dataset.make ~name:"prow" ~format:Dataset.Binary_row
       ~location:(Dataset.Rows (Rowpage.of_records item_schema items))
       ~element:item_type);
  let col recs name ty =
    (name, Column.of_values ty (List.map (fun r -> Value.field r name) recs))
  in
  Catalog.register cat
    (Dataset.make ~name:"pcol" ~format:Dataset.Binary_column
       ~location:
         (Dataset.Columns
            [ col items "k" Ptype.Int; col items "u" Ptype.Int;
              col items "v" Ptype.Float; col items "s" Ptype.String ])
       ~element:item_type);
  Memory.register_blob mem ~name:"pmix.json" (to_json mixes);
  Catalog.register cat
    (Dataset.make ~name:"pmix" ~format:Dataset.Json
       ~location:(Dataset.Blob "pmix.json") ~element:mix_type);
  Catalog.register cat
    (Dataset.make ~name:"pdim" ~format:Dataset.Binary_column
       ~location:
         (Dataset.Columns [ col dims "gid" Ptype.Int; col dims "w" Ptype.Int ])
       ~element:dim_type);
  let mgr = Manager.create ?config cat in
  let reg = Registry.create ~cache:(Manager.iface mgr) cat in
  (* the db layer's promotion hook: materialize pre-parsed slot columns *)
  Manager.set_on_promote mgr (fun dataset path ->
      Registry.materialize_field reg ~dataset ~path);
  (mgr, reg)

let promote_config =
  { Manager.default_config with promote = true; promote_threshold = 2 }

(* promotion on the very first compile — before the cold cache fill — so slot
   columns deterministically materialize from format-index spans *)
let slot_config = { promote_config with promote_threshold = 1 }

let noproj_config = { promote_config with promote_projections = false }

let agg_count = Plan.agg ~name:"c" (Monoid.Primitive Monoid.Count) (Expr.int 1)

let count ~pred ds =
  Plan.reduce ~pred [ agg_count ] (Plan.scan ~dataset:ds ~binding:"x" ())

let x field = Expr.(Field (var "x", field))

let between lo hi = Expr.((x "u" >=. int lo) &&& (x "u" <. int hi))

(* 2000..2099 minus the four planted outliers in that OID range *)
let between_plan ds = count ~pred:(between 2000 2100) ds

let join_plan ?(key = "k") ?(dim = Plan.scan ~dataset:"pdim" ~binding:"d" ()) ds
    =
  Plan.reduce
    [ agg_count;
      Plan.agg ~name:"w" (Monoid.Primitive Monoid.Sum)
        Expr.(Field (var "d", "w")) ]
    (Plan.join
       ~pred:Expr.(x key ==. Field (var "d", "gid"))
       (Plan.scan ~dataset:ds ~binding:"x" ())
       dim)

(* The query mix: the zone-map-proof BETWEEN, a sum under the same band, the
   clustered dictionary equality, a planted-outlier range that qualifies in
   every zone (skipping must stand down), and the selective join. *)
let plans ds =
  [ ("u between", between_plan ds);
    ( "sum v | u between",
      Plan.reduce ~pred:(between 2000 2100)
        [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "v") ]
        (Plan.scan ~dataset:ds ~binding:"x" ()) );
    ("s=g7", count ~pred:Expr.(x "s" ==. str "g7") ds);
    ("u>=3900", count ~pred:Expr.(x "u" >=. int 3900) ds);
    ("join k=gid", join_plan ds) ]

(* --- bit-identity: layouts x domains x batch sizes x formats -------------- *)

let test_differential () =
  let _, reg_ref = make_session ~config:Manager.config_disabled () in
  let reference ds =
    List.map
      (fun (name, p) ->
        (name, Executor.run ~batch_size:0 reg_ref ~engine:Executor.Engine_compiled p))
      (plans ds)
  in
  let engines = [ ("d1", 1); ("d2", 2); ("d4", 4) ] in
  let batches = [ 0; 256; 1024 ] in
  List.iter
    (fun ds ->
      let expected = reference ds in
      List.iter
        (fun (cfg_name, config) ->
          let _, reg = make_session ~config () in
          (* several passes so caches fill, columns promote, and projections /
             slot columns / join summaries engage mid-matrix *)
          for pass = 1 to 4 do
            List.iter
              (fun (ename, domains) ->
                List.iter
                  (fun bs ->
                    List.iter2
                      (fun (pname, p) (_, want) ->
                        let got =
                          Executor.run ~batch_size:bs reg
                            ~domains ~engine:Executor.Engine_compiled p
                        in
                        Alcotest.check check_value
                          (Fmt.str "%s/%s pass%d %s bs=%d %s" ds cfg_name pass
                             ename bs pname)
                          want got)
                      (plans ds) expected)
                  batches)
              engines
          done)
        [ ("proj", promote_config); ("slot", slot_config) ])
    formats

(* --- sorted projections: skip where zone maps are powerless --------------- *)

let warm_then_measure ?domains reg ~runs plan ~engine ~batch_size =
  for _ = 1 to runs do
    ignore (Executor.run ~batch_size reg ~engine:Executor.Engine_compiled plan)
  done;
  Executor.measure (fun () -> Executor.run ~batch_size ?domains reg ~engine plan)

let expected_between =
  Value.Int
    (List.length
       (List.filter (fun i -> u_of i >= 2000 && u_of i < 2100)
          (List.init n_rows Fun.id)))

let test_sorted_skip_parallel () =
  let mgr, reg = make_session ~config:promote_config () in
  let plan = between_plan "pcsv" in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~domains:4 ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  Alcotest.check check_value "between count" expected_between r;
  Alcotest.(check bool) "projection built" true
    (Manager.lookup_projection mgr ~dataset:"pcsv" ~path:"u" <> None);
  Alcotest.(check bool) "projection recorded" true
    ((Manager.stats mgr).Manager.sorted_projections >= 1);
  Alcotest.(check bool) "binary-search seeks ran" true
    (s.Counters.sorted_seeks > 0);
  let total = s.Counters.morsels + s.Counters.morsels_skipped in
  Alcotest.(check bool)
    (Fmt.str "skips >=90%% of morsels (skipped=%d dispensed=%d)"
       s.Counters.morsels_skipped s.Counters.morsels)
    true
    (total > 0 && 10 * s.Counters.morsels_skipped >= 9 * total);
  (* the control: zone maps alone are nearly powerless here — every full
     zone's [min,max] spans the whole domain thanks to the planted outliers
     (only the ragged 32-row tail zone misses its planted 0 and may skip) *)
  let _, reg0 = make_session ~config:noproj_config () in
  let r0, s0 =
    warm_then_measure reg0 ~runs:4 plan ~domains:4 ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  Alcotest.check check_value "zone-only same result" expected_between r0;
  Alcotest.(check bool)
    (Fmt.str "zone-only barely skips (skipped=%d)" s0.Counters.morsels_skipped)
    true
    (s0.Counters.morsels_skipped <= 1)

let test_sorted_skip_serial_batches () =
  let _, reg = make_session ~config:promote_config () in
  let plan = between_plan "pjson" in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~engine:Executor.Engine_compiled
      ~batch_size:256
  in
  Alcotest.check check_value "serial between count" expected_between r;
  (* 4000 rows / 256 per batch = 16 batches; the band lands in two *)
  Alcotest.(check bool)
    (Fmt.str "batch-granularity projection skip (skipped=%d)"
       s.Counters.morsels_skipped)
    true
    (s.Counters.morsels_skipped >= 12);
  Alcotest.(check bool) "seeks ticked on the serial lane" true
    (s.Counters.sorted_seeks > 0)

let test_sorted_skip_nullmask () =
  let mgr, reg = make_session ~config:promote_config () in
  let pred = Expr.((x "m" >=. int 300) &&& (x "m" <. int 400)) in
  let plan = count ~pred "pmix" in
  let expected =
    Value.Int
      (List.length
         (List.filter (fun i -> i mod 3 <> 0)
            (List.init 100 (fun j -> 300 + j))))
  in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~domains:2 ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  Alcotest.check check_value "nullmask band count" expected r;
  Alcotest.(check bool) "optional column projected" true
    (Manager.lookup_projection mgr ~dataset:"pmix" ~path:"m" <> None);
  Alcotest.(check bool)
    (Fmt.str "nullmask projection skips (skipped=%d)" s.Counters.morsels_skipped)
    true
    (s.Counters.morsels_skipped > 0)

(* --- degraded policies: skipping stands down, results stay exact ---------- *)

let test_policy_stand_down () =
  let _, reg = make_session ~config:promote_config () in
  let plan = between_plan "pcsv" in
  for _ = 1 to 4 do
    ignore (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan)
  done;
  List.iter
    (fun policy ->
      match
        Executor.run_guarded ~batch_size:1024 ~policy reg
          ~engine:Executor.Engine_compiled plan
      with
      | Executor.Completed (r, report) ->
          let s = report.Fault.rp_stats in
          Alcotest.check check_value
            (Fmt.str "%s result" (Fault.policy_name policy))
            expected_between r;
          (* Skip_row / Null_fill rewrite per-row outcomes, so wholesale
             morsel elimination must not fire *)
          Alcotest.(check int)
            (Fmt.str "%s skips stand down" (Fault.policy_name policy))
            0 s.Counters.morsels_skipped
      | _ -> Alcotest.fail "guarded run did not complete")
    [ Fault.Skip_row; Fault.Null_fill ]

(* --- pre-parsed JSON slot columns ----------------------------------------- *)

let test_slot_column () =
  let mgr, reg = make_session ~config:slot_config () in
  let plan =
    Plan.reduce
      ~pred:Expr.(x "v" >=. float 1000.)
      [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "v") ]
      (Plan.scan ~dataset:"pjson" ~binding:"x" ())
  in
  let _, reg_ref = make_session ~config:Manager.config_disabled () in
  let want = Executor.run ~batch_size:0 reg_ref ~engine:Executor.Engine_compiled plan in
  let r, s =
    warm_then_measure reg ~runs:3 plan ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  Alcotest.check check_value "slot-served sum" want r;
  Alcotest.(check bool) "slot column materialized" true
    ((Manager.stats mgr).Manager.slot_columns >= 1);
  Alcotest.(check bool)
    (Fmt.str "reads served from the slot column (slot-reads=%d)"
       s.Counters.slot_reads)
    true
    (s.Counters.slot_reads > 0);
  (* parallel parity on the promoted layout *)
  Alcotest.check check_value "slot parallel parity" want
    (Executor.run ~batch_size:256 reg ~domains:4 ~engine:Executor.Engine_compiled plan)

(* Slot-read provenance lives on the cached column: once the arena evicts
   the slot column, the cold refill is an ordinary fill and its reads are
   no slot reads. *)
let test_slot_mark_dies_with_column () =
  let mgr, reg = make_session ~config:slot_config () in
  let plan =
    Plan.reduce
      ~pred:Expr.(x "v" >=. float 1000.)
      [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "v") ]
      (Plan.scan ~dataset:"pjson" ~binding:"x" ())
  in
  let run () =
    Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan
  in
  let want, s =
    warm_then_measure reg ~runs:3 plan ~engine:Executor.Engine_compiled
      ~batch_size:1024
  in
  Alcotest.(check bool) "slot column serves reads first" true (s.Counters.slot_reads > 0);
  let arena = Memory.Arena.of_mgr (Catalog.memory (Registry.catalog reg)) in
  Memory.Arena.put arena ~id:"ballast" ~size:(Memory.Arena.budget arena)
    ~bias:Memory.Arena.Bias_binary ~on_evict:ignore;
  Memory.Arena.remove arena "ballast";
  Alcotest.(check bool) "slot column evicted" false
    (Registry.slot_column reg ~dataset:"pjson" ~path:"v");
  ignore (run ());
  Alcotest.(check bool) "refilled cold" true
    ((Manager.iface mgr).Cache_iface.lookup_field ~dataset:"pjson" ~path:"v" <> None);
  let r, s = Executor.measure run in
  Alcotest.check check_value "refilled sum" want r;
  Alcotest.(check int) "no slot reads from the refill" 0 s.Counters.slot_reads

(* --- join-side pruning: min/max + Bloom summaries from the build ---------- *)

let expected_join =
  let matched = List.filter (fun i -> i >= dim_lo && i < dim_lo + dim_n)
      (List.init n_rows Fun.id) in
  Value.record
    [ ("c", Value.Int (List.length matched));
      ("w", Value.Int (List.fold_left (fun a i -> a + (2 * i)) 0 matched)) ]

let test_join_prune () =
  let _, reg = make_session ~config:promote_config () in
  (* promote the probe key first (range workload -> zone map + projection) *)
  let warmk = count ~pred:Expr.(x "k" <. int 40) "pcsv" in
  for _ = 1 to 4 do
    ignore (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled warmk)
  done;
  let plan = join_plan "pcsv" in
  ignore (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan);
  (* serial lane: batches skipped out of the probe drive *)
  let r, s =
    Executor.measure (fun () ->
        Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan)
  in
  Alcotest.check check_value "serial join result" expected_join r;
  Alcotest.(check bool)
    (Fmt.str "serial probe skips (probe-skipped=%d)"
       s.Counters.probe_morsels_skipped)
    true
    (s.Counters.probe_morsels_skipped > 0);
  (* parallel lane: the dispenser skip armed after the build barrier *)
  let rp, sp =
    Executor.measure (fun () ->
        Executor.run ~batch_size:1024 reg ~domains:4 ~engine:Executor.Engine_compiled plan)
  in
  Alcotest.check check_value "parallel join result" expected_join rp;
  Alcotest.(check bool)
    (Fmt.str "parallel probe skips (probe-skipped=%d)"
       sp.Counters.probe_morsels_skipped)
    true
    (sp.Counters.probe_morsels_skipped > 0)

let test_join_prune_projection_keys () =
  (* probe on the outlier-planted u: zone maps span the domain everywhere, so
     only the sorted projection (union of per-key zones for the 41 build
     keys) can prune the probe *)
  let _, reg = make_session ~config:promote_config () in
  for _ = 1 to 4 do
    ignore
      (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled
         (between_plan "pcsv"))
  done;
  let plan = join_plan ~key:"u" "pcsv" in
  let _, reg_ref = make_session ~config:Manager.config_disabled () in
  let want = Executor.run ~batch_size:0 reg_ref ~engine:Executor.Engine_compiled plan in
  ignore (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan);
  let r, s =
    Executor.measure (fun () ->
        Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan)
  in
  Alcotest.check check_value "projection-pruned join result" want r;
  Alcotest.(check bool)
    (Fmt.str "projection prunes the probe (probe-skipped=%d)"
       s.Counters.probe_morsels_skipped)
    true
    (s.Counters.probe_morsels_skipped > 0)

let test_join_empty_build_skips_all () =
  let _, reg = make_session ~config:promote_config () in
  let empty_dim =
    Plan.select
      Expr.(Field (var "d", "gid") <. int 0)
      (Plan.scan ~dataset:"pdim" ~binding:"d" ())
  in
  let plan = join_plan ~dim:empty_dim "pcsv" in
  (* no promotion warm-up needed: an empty build prunes unconditionally *)
  ignore (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan);
  let r, s =
    Executor.measure (fun () ->
        Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan)
  in
  Alcotest.check check_value "empty build -> empty result"
    (Value.record [ ("c", Value.Int 0); ("w", Value.Int 0) ])
    r;
  Alcotest.(check bool)
    (Fmt.str "empty build skips the whole probe (probe-skipped=%d)"
       s.Counters.probe_morsels_skipped)
    true
    (s.Counters.probe_morsels_skipped >= 4)

let test_left_outer_join_never_prunes () =
  let _, reg = make_session ~config:promote_config () in
  let warmk = count ~pred:Expr.(x "k" <. int 40) "pcsv" in
  for _ = 1 to 4 do
    ignore (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled warmk)
  done;
  let plan =
    Plan.reduce [ agg_count ]
      (Plan.join ~kind:Plan.Left_outer
         ~pred:Expr.(x "k" ==. Field (var "d", "gid"))
         (Plan.scan ~dataset:"pcsv" ~binding:"x" ())
         (Plan.scan ~dataset:"pdim" ~binding:"d" ()))
  in
  ignore (Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan);
  let r, s =
    Executor.measure (fun () ->
        Executor.run ~batch_size:1024 reg ~engine:Executor.Engine_compiled plan)
  in
  (* every probe row survives an outer join: pruning must not arm *)
  Alcotest.check check_value "outer join keeps all rows" (Value.Int n_rows) r;
  Alcotest.(check int) "outer join never prunes" 0
    s.Counters.probe_morsels_skipped

(* --- dictionary zone maps (Dicts / Nullmask(Dicts) segments) -------------- *)

let test_dict_zone_skip () =
  let mgr, reg = make_session ~config:promote_config () in
  let plan = count ~pred:Expr.(x "s" ==. str "g7") "pcsv" in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~engine:Executor.Engine_compiled
      ~batch_size:256
  in
  (* s = "g7" on rows 2800..3199 *)
  Alcotest.check check_value "dict equality count" (Value.Int 400) r;
  Alcotest.(check bool) "string column promoted to dictionary" true
    ((Manager.stats mgr).Manager.dict_columns >= 1);
  Alcotest.(check bool)
    (Fmt.str "dict zone map skips clustered batches (skipped=%d)"
       s.Counters.morsels_skipped)
    true
    (s.Counters.morsels_skipped >= 8)

let test_dict_zone_skip_nullmask () =
  let _, reg = make_session ~config:promote_config () in
  let plan = count ~pred:Expr.(x "t" ==. str "h3") "pmix" in
  let expected =
    Value.Int
      (List.length
         (List.filter
            (fun r -> Value.equal (Value.field r "t") (Value.String "h3"))
            mixes))
  in
  let r, s =
    warm_then_measure reg ~runs:4 plan ~engine:Executor.Engine_compiled
      ~batch_size:256
  in
  Alcotest.check check_value "nullable dict equality count" expected r;
  Alcotest.(check bool)
    (Fmt.str "nullmask-dict zone map skips (skipped=%d)"
       s.Counters.morsels_skipped)
    true
    (s.Counters.morsels_skipped >= 2)

(* --- eviction / invalidation falls back cleanly --------------------------- *)

let test_eviction_falls_back () =
  let mgr, reg = make_session ~cache_budget:40_000 ~config:promote_config () in
  let qa = between_plan "pjson" in
  let qb =
    Plan.reduce ~pred:(between 2000 2100)
      [ Plan.agg ~name:"s" (Monoid.Primitive Monoid.Sum) (x "v") ]
      (Plan.scan ~dataset:"pjson" ~binding:"x" ())
  in
  let qc = count ~pred:Expr.(x "s" ==. str "g7") "pjson" in
  let want_b = Executor.run reg ~engine:Executor.Engine_compiled qb in
  for _ = 1 to 5 do
    Alcotest.check check_value "band stable under churn" expected_between
      (Executor.run reg ~engine:Executor.Engine_compiled qa);
    Alcotest.check check_value "sum stable under churn" want_b
      (Executor.run reg ~engine:Executor.Engine_compiled qb);
    ignore (Executor.run reg ~engine:Executor.Engine_compiled qc)
  done;
  Manager.invalidate_dataset mgr ~dataset:"pjson";
  Alcotest.(check bool) "projection dropped with blocks" true
    (Manager.lookup_projection mgr ~dataset:"pjson" ~path:"u" = None);
  Alcotest.check check_value "requery after invalidate" expected_between
    (Executor.run reg ~engine:Executor.Engine_compiled qa)

(* --- soundness of the one refutation test --------------------------------- *)

(* Property: whenever [Prune.may_match] refutes a range, no row in it
   satisfies the conjunct (or join-key membership) under [Expr] comparison
   semantics — for every summary kind (zone map, sorted projection, shard
   digest) over adversarial columns (nulls, NaN, -0.0, infinities, extreme
   ints, int/float mixed comparisons, dictionary strings), random
   conjuncts (five ops, constant or bound parameter, either operand
   order), random join-key sets and random unaligned ranges. The
   summaries may cover only a prefix of the rows, as after an append:
   then no range reaching past the prefix is ever refuted (short of an
   empty join build, which no row can match). *)

module Prune = Proteus_engine.Prune

type col_kind = C_int | C_float | C_str

type case = {
  kind : col_kind;
  values : Value.t array;
  covered : int;  (* the summaries describe rows [0, covered) *)
  zone : int;
  conjs : (Expr.binop * Value.t * bool * bool) list;
      (* op, operand, operand-is-parameter, operand-first *)
  keys : int array;
  ranges : (int * int) list;
}

let gen_case =
  let open QCheck2.Gen in
  let null_or g = frequency [ (1, pure Value.Null); (6, g) ] in
  (* past 2^53 distinct ints share a float image *)
  let wide_int =
    frequency
      [ (1, int);
        (2, oneofl [ max_int; max_int - 1; min_int; min_int + 1; 1 lsl 53; (1 lsl 53) + 1;
                     -(1 lsl 53); -(1 lsl 53) - 1 ]) ]
  in
  let gen_float =
    frequency
      [ (6, map (fun i -> float_of_int i /. 4.) (int_range (-200) 200));
        (1, oneofl [ Float.nan; -0.0; 0.0; Float.infinity; Float.neg_infinity ]) ]
  in
  let gen_value = function
    | C_int -> null_or (map (fun i -> Value.Int i) (frequency [ (4, int_range (-60) 60); (1, wide_int) ]))
    | C_float -> null_or (map (fun f -> Value.Float f) gen_float)
    | C_str -> null_or (map (fun s -> Value.String s) (oneofl [ ""; "a"; "b"; "bb"; "c"; "zz" ]))
  in
  let gen_operand =
    oneof
      [ map (fun i -> Value.Int i) (frequency [ (3, int_range (-60) 60); (1, wide_int) ]);
        map (fun f -> Value.Float f) gen_float;
        map (fun s -> Value.String s) (oneofl [ ""; "a"; "b"; "bb"; "c"; "zz" ]) ]
  in
  let gen_keys =
    oneof
      [ pure [||];
        array_size (int_range 1 200) (int_range (-60) 60);
        array_size (int_range 65 300) wide_int ]
  in
  oneofl [ C_int; C_float; C_str ] >>= fun kind ->
  int_range 1 120 >>= fun n ->
  array_size (pure n) (gen_value kind) >>= fun values ->
  frequency [ (1, pure n); (1, int_range 1 n) ] >>= fun covered ->
  int_range 1 9 >>= fun zone ->
  list_size (int_range 1 3)
    (quad (oneofl Expr.[ Eq; Lt; Le; Gt; Ge ]) gen_operand bool bool)
  >>= fun conjs ->
  gen_keys >>= fun keys ->
  list_size (int_range 1 8)
    (map (fun (a, b) -> if a <= b then (a, b + 1) else (b, a + 1)) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))))
  >>= fun ranges -> pure { kind; values; covered; zone; conjs; keys; ranges }

let print_case c =
  Fmt.str "kind=%s covered=%d zone=%d values=[%a] conjs=[%a] keys=[%a] ranges=[%a]"
    (match c.kind with C_int -> "int" | C_float -> "float" | C_str -> "str")
    c.covered c.zone
    Fmt.(array ~sep:(any ";") Value.pp) c.values
    Fmt.(list ~sep:(any "; ") (fun ppf (op, v, param, first) ->
         let arg = Fmt.str "%s%a" (if param then "?=" else "") Value.pp v in
         let op =
           match (op : Expr.binop) with
           | Eq -> "=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | _ -> ">="
         in
         if first then pf ppf "%s %s x" arg op else pf ppf "x %s %s" op arg))
    c.conjs
    Fmt.(array ~sep:(any ";") int) c.keys
    Fmt.(list ~sep:(any ";") (pair ~sep:(any ",") int int)) c.ranges

let refutation_sound c =
  let n = Array.length c.values in
  let ty =
    match c.kind with C_int -> Ptype.Int | C_float -> Ptype.Float | C_str -> Ptype.String
  in
  let prefix = Array.sub c.values 0 c.covered in
  let col =
    let col = Column.of_values (Ptype.Option ty) (Array.to_list prefix) in
    match c.kind with C_str -> Option.get (Column.promote_strings col) | _ -> col
  in
  let digest =
    let db = Proteus.Db.create () in
    Proteus.Db.register_rows db ~name:"m"
      ~element:(Ptype.Record [ ("x", Ptype.Option ty) ])
      (Array.to_list (Array.map (fun v -> Value.record [ ("x", v) ]) prefix));
    Registry.shard_digest (Proteus.Db.registry db) ~member:"m" ~path:"x"
  in
  let zones = Zonemap.of_column ~zone:c.zone col in
  let projection = Projection.of_column col in
  (* one Expr conjunct per generated shape; parameters bound by name *)
  let x = Expr.(Field (var "r", "x")) in
  let env = ref [] in
  let conjuncts =
    List.mapi
      (fun i (op, v, param, first) ->
        let arg =
          if param then begin
            let p = Fmt.str "p%d" i in
            env := (p, v) :: !env;
            Expr.Param p
          end
          else Expr.Const v
        in
        if first then Expr.Binop (op, arg, x) else Expr.Binop (op, x, arg))
      c.conjs
  in
  let holds e i =
    Expr.eval_pred [ ("r", Value.record [ ("x", c.values.(i)) ]) ] (Expr.bind_params !env e)
  in
  let cmp_of e =
    List.filter_map
      (fun (path, op, arg) ->
        let v =
          match (arg : Expr.t) with
          | Expr.Param p -> List.assoc p !env
          | Expr.Const v -> v
          | _ -> Value.Null
        in
        if path = "x" then Prune.cmp_test op v else None)
      (Prune.conjuncts ~binding:"r" e)
  in
  (* (test, row predicate) pairs: each conjunct alone, their conjunction,
     and the join-key membership *)
  let checks =
    List.map (fun e -> (Prune.Cmp (cmp_of e), holds e)) conjuncts
    @ [ (Prune.Cmp (List.concat_map cmp_of conjuncts),
         fun i -> List.for_all (fun e -> holds e i) conjuncts);
        (Prune.keys c.keys,
         fun i ->
           Array.exists
             (fun k -> Expr.apply_binop Expr.Eq c.values.(i) (Value.Int k) = Value.Bool true)
             c.keys) ]
    |> List.filter (function Prune.Cmp [], _ -> false | _ -> true)
  in
  let sound summary ~lo ~hi truth =
    let may = Prune.may_match summary (fst truth) ~lo ~hi in
    (may || not (List.exists (snd truth) (List.init (hi - lo) (fun j -> lo + j))))
    && (may || hi <= c.covered || match fst truth with Prune.Nothing -> true | _ -> false)
  in
  let all_ranges = (0, n) :: c.ranges in
  List.for_all
    (fun ((test, _) as truth) ->
      (match zones with
       | Some zm ->
         List.for_all (fun (lo, hi) -> sound (Prune.Zones zm) ~lo ~hi truth) all_ranges
       | None -> true)
      && (match Option.bind projection (fun pr -> Prune.seek pr test) with
          | Some band -> List.for_all (fun (lo, hi) -> sound band ~lo ~hi truth) all_ranges
          | None -> true)
      && match digest with
         | Some dg ->
           List.for_all (fun (lo, hi) -> sound (Prune.Digest dg) ~lo ~hi truth) all_ranges
         | None -> true)
    checks

let refutation_prop =
  QCheck2.Test.make ~name:"refutation is sound" ~count:1000 ~print:print_case gen_case
    refutation_sound

let () =
  Alcotest.run "projection"
    [
      ( "differential",
        [ Alcotest.test_case "layouts x domains x batch x format" `Slow
            test_differential ] );
      ( "sorted",
        [
          Alcotest.test_case "parallel skips >=90%" `Quick
            test_sorted_skip_parallel;
          Alcotest.test_case "serial batch skips" `Quick
            test_sorted_skip_serial_batches;
          Alcotest.test_case "nullmask band skips" `Quick
            test_sorted_skip_nullmask;
          Alcotest.test_case "degraded policies stand down" `Quick
            test_policy_stand_down;
        ] );
      ( "slot",
        [ Alcotest.test_case "span-built column serves reads" `Quick
            test_slot_column;
          Alcotest.test_case "slot mark dies with its column" `Quick
            test_slot_mark_dies_with_column ] );
      ( "join",
        [
          Alcotest.test_case "both lanes prune the probe" `Quick
            test_join_prune;
          Alcotest.test_case "projection prunes scrambled keys" `Quick
            test_join_prune_projection_keys;
          Alcotest.test_case "empty build skips everything" `Quick
            test_join_empty_build_skips_all;
          Alcotest.test_case "outer join never prunes" `Quick
            test_left_outer_join_never_prunes;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "dict zones skip" `Quick test_dict_zone_skip;
          Alcotest.test_case "nullmask dict zones skip" `Quick
            test_dict_zone_skip_nullmask;
        ] );
      ( "fallback",
        [ Alcotest.test_case "eviction falls back" `Quick
            test_eviction_falls_back ] );
      ("soundness", [ QCheck_alcotest.to_alcotest refutation_prop ]);
    ]
