(* The plug-in runtime's dataset lifecycle (DESIGN.md "Plug-in runtime").

   A session's datasets are registered, appended to, dropped and registered
   again, grouped into a shard set that grows, read with caching switched
   on and off and through factory interposers. Whatever sequence ran, every
   query answers as a fresh session over the same bytes does, and a
   structural index's built and extended rows add up to the dataset's rows.
   A race test touches cold datasets from four domains at once: every view
   answers alike, and the cold statistics are a serial session's. *)

open Proteus_model
module Db = Proteus.Db
module Registry = Proteus_plugin.Registry
module Source = Proteus_plugin.Source
module Manager = Proteus_cache.Manager
module Catalog = Proteus_catalog.Catalog
module Stats = Proteus_catalog.Stats

let element =
  Ptype.Record
    [ ("k", Ptype.Int); ("g", Ptype.Int); ("v", Ptype.Option Ptype.Float); ("s", Ptype.String) ]

type row = { k : int; g : int; v : int option (* quarters *); s : string }

type fmt = Csv | Json

let render fmt rows =
  String.concat ""
    (List.map
       (fun r ->
         let v = Option.map (fun q -> Printf.sprintf "%g" (float_of_int q /. 4.)) r.v in
         match fmt with
         | Csv -> Printf.sprintf "%d,%d,%s,%s\n" r.k r.g (Option.value v ~default:"") r.s
         | Json ->
           Printf.sprintf {|{"k":%d,"g":%d,"v":%s,"s":%S}|} r.k r.g
             (Option.value v ~default:"null") r.s
           ^ "\n")
       rows)

let gen_row =
  let open QCheck2.Gen in
  let* k = int_range 0 99 in
  let* g = int_range 0 3 in
  let* v = frequency [ (1, pure None); (4, map Option.some (int_range (-80) 80)) ] in
  let+ s = oneofl [ "a"; "b"; "cc" ] in
  { k; g; v; s }

let gen_rows lo = QCheck2.Gen.list_size (QCheck2.Gen.int_range lo 8) gen_row

(* --- the model: each dataset's bytes, and the shard set's members ----------- *)

(* [c] and [j] stand alone; [s0] and [s1] start the shard set [s], which
   [Add_shard] grows by [c]. *)
let datasets = [ ("c", Csv); ("j", Json); ("s0", Csv); ("s1", Csv) ]

type model = { bytes : (string * string) list; rows : (string * int) list; members : string list }

type op =
  | Register of string  (* again, over the same bytes *)
  | Append of string * row list
  | Drop_reregister of string
  | Add_shard
  | Caching of bool
  | Stall of string  (* a 1 ms interposer stall on the next view *)

let pp_op = function
  | Register n -> "register " ^ n
  | Append (n, rows) -> Printf.sprintf "append %s %S" n (render (List.assoc n datasets) rows)
  | Drop_reregister n -> "drop+register " ^ n
  | Add_shard -> "add_shard c"
  | Caching b -> Printf.sprintf "caching %b" b
  | Stall n -> "stall " ^ n

let gen_op =
  let open QCheck2.Gen in
  let name = oneofl (List.map fst datasets) in
  frequency
    [ (2, map (fun n -> Register n) name);
      (4, map2 (fun n rows -> Append (n, rows)) name (gen_rows 0));
      (2, map (fun n -> Drop_reregister n) name);
      (1, pure Add_shard);
      (2, map (fun b -> Caching b) bool);
      (1, map (fun n -> Stall n) name) ]

let gen_case =
  let open QCheck2.Gen in
  let* base = flatten_l (List.map (fun _ -> gen_rows 1) datasets) in
  let+ ops = list_size (int_range 1 8) gen_op in
  (base, ops)

let print_case (base, ops) =
  String.concat "\n"
    (List.map2 (fun (n, fmt) rows -> Printf.sprintf "%s = %S" n (render fmt rows)) datasets base
    @ List.map pp_op ops)

let register db name contents =
  match List.assoc name datasets with
  | Csv -> Db.register_csv db ~name ~element ~contents ()
  | Json -> Db.register_json db ~name ~element ~contents

let promote_caching = { Manager.default_config with promote = true; promote_threshold = 1 }

let session ?caching m =
  let db = Db.create ?caching () in
  List.iter (fun (n, _) -> register db n (List.assoc n m.bytes)) datasets;
  Db.register_shard_set db ~name:"s" ~members:m.members;
  db

let queries =
  [ "SELECT COUNT(*), SUM(k) FROM c WHERE k < 50";
    "SELECT g, COUNT(*), SUM(v) FROM c GROUP BY g";
    "SELECT COUNT(*), SUM(v) FROM j WHERE g = 1";
    "SELECT COUNT(*) FROM j WHERE s = 'a'";
    (* selective enough that shard digests prune members *)
    "SELECT COUNT(*), SUM(k) FROM s WHERE k >= 85";
    "SELECT COUNT(*) FROM s WHERE s = 'cc'";
    "SELECT g, SUM(k), SUM(v) FROM s GROUP BY g" ]

let sort_bag = function
  | Value.Coll (Ptype.Bag, es) -> Value.Coll (Ptype.Bag, List.sort Value.compare es)
  | v -> v

let apply db m = function
  | Register n ->
    register db n (List.assoc n m.bytes);
    m
  | Append (n, rows) ->
    let text = render (List.assoc n datasets) rows in
    Db.append db ~name:n text;
    let update l f = List.map (fun (k, x) -> if k = n then (k, f x) else (k, x)) l in
    { m with bytes = update m.bytes (fun b -> b ^ text);
             rows = update m.rows (fun r -> r + List.length rows) }
  | Drop_reregister n ->
    Db.drop db n;
    register db n (List.assoc n m.bytes);
    m
  | Add_shard ->
    Db.add_shard db ~name:"s" ~member:"c";
    { m with members = m.members @ [ "c" ] }
  | Caching b ->
    Db.set_caching db b;
    m
  | Stall n ->
    ignore (Faultgen.stall (Db.registry db) ~dataset:n ~ms:1 ());
    m

let lifecycle_holds (base, ops) =
  let m =
    {
      bytes = List.map2 (fun (n, fmt) rows -> (n, render fmt rows)) datasets base;
      rows = List.map2 (fun (n, _) rows -> (n, List.length rows)) datasets base;
      members = [ "s0"; "s1" ];
    }
  in
  let db = session ~caching:promote_caching m in
  let check m after =
    let fresh = session m in
    List.iter
      (fun q ->
        let got = sort_bag (Db.sql ~domains:2 db q) and expected = sort_bag (Db.sql fresh q) in
        if not (Value.equal got expected) then
          QCheck2.Test.fail_reportf "after %s: %s\n  session: %a\n  fresh:   %a" after q Value.pp
            got Value.pp expected)
      queries;
    List.iter
      (fun (n, rows) ->
        match Registry.index_info (Db.registry db) n with
        | None -> QCheck2.Test.fail_reportf "after %s: %s has no index" after n
        | Some i ->
          if i.Registry.built_rows + i.Registry.extended_rows <> rows then
            QCheck2.Test.fail_reportf "after %s: %s indexes %d + %d rows, holds %d" after n
              i.Registry.built_rows i.Registry.extended_rows rows)
      m.rows
  in
  check m "registration";
  ignore
    (List.fold_left
       (fun m op ->
         let m = apply db m op in
         check m (pp_op op);
         m)
       m ops);
  true

let lifecycle_prop =
  QCheck2.Test.make ~name:"any lifecycle answers as a fresh session" ~count:150 ~print:print_case
    gen_case lifecycle_holds

(* --- first touch from four domains at once ----------------------------------- *)

let race_rows =
  List.init 3000 (fun i ->
      { k = (i * 37) mod 1000; g = i mod 4; v = (if i mod 9 = 0 then None else Some (i mod 160 - 80));
        s = (if i mod 3 = 0 then "a" else "b") })

let race_session () =
  let db = Db.create () in
  Db.register_csv db ~name:"c" ~element ~contents:(render Csv race_rows) ();
  Db.register_json db ~name:"j" ~element ~contents:(render Json race_rows);
  db

let read_all (src : Source.t) =
  List.init src.Source.count (fun i ->
      src.Source.seek i;
      src.Source.whole ())

let test_cold_race () =
  let serial = race_session () in
  let expected = List.map (fun n -> (n, read_all (Registry.fresh_source (Db.registry serial) n))) [ "c"; "j" ] in
  for _round = 1 to 5 do
    let db = race_session () in
    let reg = Db.registry db in
    let ready = Atomic.make 0 in
    let views =
      List.init 4 (fun w ->
          Domain.spawn (fun () ->
              Atomic.incr ready;
              while Atomic.get ready < 4 do
                Domain.cpu_relax ()
              done;
              (* half the domains touch the JSON dataset first *)
              let names = if w mod 2 = 0 then [ "c"; "j" ] else [ "j"; "c" ] in
              List.map (fun n -> (n, Registry.fresh_source reg n)) names))
      |> List.concat_map Domain.join
    in
    List.iter
      (fun (n, src) ->
        Alcotest.(check bool) (n ^ ": the view answers as a serial one") true
          (List.equal Value.equal (read_all src) (List.assoc n expected)))
      views;
    List.iter
      (fun n ->
        Alcotest.(check bool) (n ^ ": index_info present") true
          (Registry.index_info reg n <> None);
        let stats cat = Catalog.stats cat n in
        let mine = stats (Db.catalog db) and theirs = stats (Db.catalog serial) in
        Alcotest.(check (option int)) (n ^ ": cardinality") (Stats.cardinality theirs)
          (Stats.cardinality mine);
        List.iter
          (fun path ->
            Alcotest.(check bool) (n ^ "." ^ path ^ ": field statistics") true
              (Stats.field mine path = Stats.field theirs path))
          [ "k"; "g"; "v" ])
      [ "c"; "j" ]
  done

let () =
  Alcotest.run "registry"
    [
      ("lifecycle", [ QCheck_alcotest.to_alcotest lifecycle_prop ]);
      ("race", [ Alcotest.test_case "cold first touch from four domains" `Quick test_cold_race ]);
    ]
