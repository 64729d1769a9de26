open Proteus_model
open Proteus_storage
open Proteus_catalog
module Cache_iface = Proteus_plugin.Cache_iface

let src_log = Logs.Src.create "proteus.cache" ~doc:"Proteus caching manager"

module Log = (val Logs.src_log src_log : Logs.LOG)

type config = {
  cache_csv_fields : bool;
  cache_json_fields : bool;
  cache_join_sides : bool;
  promote : bool;
  promote_threshold : int;
  promote_projections : bool;
      (* build sorted projections for promoted numeric columns that saw
         range predicates (off = zone maps only, the PR-6 behaviour) *)
}

let default_config =
  {
    cache_csv_fields = true;
    cache_json_fields = true;
    cache_join_sides = true;
    promote = false;
    promote_threshold = 3;
    promote_projections = true;
  }

let config_disabled =
  {
    cache_csv_fields = false;
    cache_json_fields = false;
    cache_join_sides = false;
    promote = false;
    promote_threshold = 3;
    promote_projections = false;
  }

type stats = {
  field_hits : int;
  field_misses : int;
  field_stores : int;
  packed_hits : int;
  packed_misses : int;
  packed_stores : int;
  quarantined : int;      (* fills discarded: producing run saw errors/abort *)
  fill_commits : int;     (* committed segmented fills (one per dataset scan) *)
  fill_segments : int;    (* per-(worker,morsel) segments blit-assembled *)
  fill_rows : int;        (* rows materialized across committed fills *)
  promotions : int;       (* columns promoted past the workload threshold *)
  zone_maps : int;        (* zone-map side structures built *)
  dict_columns : int;     (* string columns re-encoded as dictionaries *)
  sorted_projections : int;  (* value-order OID permutations *)
  slot_columns : int;     (* columns pre-parsed straight from format indexes *)
  tail_rows : int;        (* appended rows filled into kept cached columns *)
  layouts_extended : int; (* columns, zone maps, projections extended by appends *)
  layouts_dropped : int;  (* of those, dropped: the appended rows broke them *)
}

type t = {
  config : config;
  catalog : Catalog.t;
  arena : Memory.Arena.t;
  mu : Mutex.t;
      (* one lock over all manager state: lookups, stores, promotion
         accounting and eviction callbacks — concurrent sessions share one
         manager, and the arena's LRU mutates on every touch *)
  mutable on_promote : (string -> string -> unit) list;
      (* promotion hooks (dataset, path), fired OUTSIDE the lock in
         registration order: the db layer materializes pre-parsed slot
         columns for promoted JSON paths and moves the registry
         generation, which retires staged engines that baked in the
         pre-promotion layout (no zone skip, undictionarized probes) *)
  mutable promo_fired : (string * string) list;  (* pending hook calls *)
  fields : (string * string, field) Hashtbl.t;    (* (dataset, path) *)
  packed : (string, Cache_iface.packed * string list) Hashtbl.t;  (* key -> (cols, datasets) *)
  (* workload-adaptive promotion (adaptive storage 2.0): per-column access
     accounting, promoted-column set, and zone-map side structures *)
  access : (string * string, access_acc) Hashtbl.t;
  promoted : (string * string, unit) Hashtbl.t;
  zones : (string * string, Zonemap.t) Hashtbl.t;
  projections : (string * string, Projection.t) Hashtbl.t;
  mutable field_hits : int;
  mutable field_misses : int;
  mutable field_stores : int;
  mutable packed_hits : int;
  mutable packed_misses : int;
  mutable packed_stores : int;
  mutable quarantined : int;
  mutable fill_commits : int;
  mutable fill_segments : int;
  mutable fill_rows : int;
  mutable promotions : int;
  mutable zone_maps : int;
  mutable dict_columns : int;
  mutable sorted_projections : int;
  mutable slot_columns : int;
  mutable tail_rows : int;
  mutable layouts_extended : int;
  mutable layouts_dropped : int;
}

(* A cached column and where it came from: [slot] marks one the registry
   materialized straight from format-index spans, so its hits are slot
   reads. The mark lives and dies with the entry — a drop or an eviction
   takes it away, so a later refill starts unmarked; an append extending
   the column keeps it. *)
and field = { col : Column.t; slot : bool }

and access_acc = {
  mutable reads : int;      (* cache-lookup hits for the column *)
  mutable selective : int;  (* queries that compiled a comparison over it *)
  mutable ranged : int;     (* of those, range (not equality) comparisons *)
}

let create ?(config = default_config) catalog =
  {
    config;
    catalog;
    arena = Memory.Arena.of_mgr (Catalog.memory catalog);
    mu = Mutex.create ();
    on_promote = [];
    promo_fired = [];
    fields = Hashtbl.create 32;
    packed = Hashtbl.create 16;
    access = Hashtbl.create 32;
    promoted = Hashtbl.create 8;
    zones = Hashtbl.create 8;
    projections = Hashtbl.create 8;
    field_hits = 0;
    field_misses = 0;
    field_stores = 0;
    packed_hits = 0;
    packed_misses = 0;
    packed_stores = 0;
    quarantined = 0;
    fill_commits = 0;
    fill_segments = 0;
    fill_rows = 0;
    promotions = 0;
    zone_maps = 0;
    dict_columns = 0;
    sorted_projections = 0;
    slot_columns = 0;
    tail_rows = 0;
    layouts_extended = 0;
    layouts_dropped = 0;
  }

(* Serialize every entry point; deliver promotion-hook notifications after
   the lock drops so the hook may call back into the manager. *)
let with_mu t f =
  Mutex.lock t.mu;
  match f () with
  | v ->
    let fired = List.rev t.promo_fired in
    t.promo_fired <- [];
    let hooks = t.on_promote in
    Mutex.unlock t.mu;
    List.iter (fun (ds, p) -> List.iter (fun h -> h ds p) hooks) fired;
    v
  | exception e ->
    t.promo_fired <- [];
    Mutex.unlock t.mu;
    raise e

let set_on_promote t h =
  with_mu t (fun () -> t.on_promote <- t.on_promote @ [ h ])

let field_id dataset path = Fmt.str "field:%s:%s" dataset path

let packed_id key = "packed:" ^ key

let packed_size (p : Cache_iface.packed) =
  List.fold_left (fun acc (_, c) -> acc + Column.byte_size c) 0 p.Cache_iface.cols

(* --- workload-adaptive promotion (adaptive storage 2.0) ------------------ *)

let access_acc t key =
  match Hashtbl.find_opt t.access key with
  | Some a -> a
  | None ->
    let a = { reads = 0; selective = 0; ranged = 0 } in
    Hashtbl.replace t.access key a;
    a

let is_promoted t ~dataset ~path = Hashtbl.mem t.promoted (dataset, path)

let build_zones t (dataset, path) col =
  if not (Hashtbl.mem t.zones (dataset, path)) then
    match Zonemap.of_column col with
    | Some zm ->
      Hashtbl.replace t.zones (dataset, path) zm;
      t.zone_maps <- t.zone_maps + 1;
      Log.info (fun m ->
          m "zone map for %s.%s: %d zones x %d rows" dataset path (Zonemap.zones zm)
            zm.Zonemap.zone)
    | None -> ()

(* Sorted projections are the second promotion tier: only columns whose
   workload showed RANGE predicates earn the sort + permutation — equality
   probes and plain reads are already served by zone maps/dictionaries, and
   on unclustered data only the value order can prove morsels empty. *)
let build_projection t (dataset, path) col =
  if
    t.config.promote_projections
    && (not (Hashtbl.mem t.projections (dataset, path)))
    && (access_acc t (dataset, path)).ranged > 0
  then
    match Projection.of_column col with
    | Some pr ->
      Hashtbl.replace t.projections (dataset, path) pr;
      t.sorted_projections <- t.sorted_projections + 1;
      Stats.note_rich_layout (Catalog.stats t.catalog dataset) path;
      Log.info (fun m ->
          m "sorted projection for %s.%s: %d rows (%d bytes)" dataset path
            (Projection.rows pr) (Projection.byte_size pr))
    | None -> ()

(* Past-threshold promotion: columns gain a zone map (numeric or
   lexicographic; built in one pass when the column is already filled,
   otherwise at the next fill commit) and — when the workload showed range
   predicates — a sorted projection; string columns re-encode as
   dictionaries in place. Costing learns about it through the catalog
   statistics. *)
let promote_now t dataset path =
  Hashtbl.replace t.promoted (dataset, path) ();
  t.promotions <- t.promotions + 1;
  t.promo_fired <- (dataset, path) :: t.promo_fired;
  Stats.note_promoted (Catalog.stats t.catalog dataset) path;
  (match Hashtbl.find_opt t.fields (dataset, path) with
  | Some ({ col; _ } as f) -> (
    build_zones t (dataset, path) col;
    build_projection t (dataset, path) col;
    match Column.promote_strings col with
    | Some dcol when dcol != col ->
      Hashtbl.replace t.fields (dataset, path) { f with col = dcol };
      t.dict_columns <- t.dict_columns + 1
    | Some _ | None -> ())
  | None -> ());
  Log.info (fun m -> m "promoted %s.%s" dataset path)

let maybe_promote t dataset path =
  if t.config.promote && not (is_promoted t ~dataset ~path) then begin
    let acc = access_acc t (dataset, path) in
    if acc.reads + acc.selective >= t.config.promote_threshold then
      promote_now t dataset path
  end

let note_selective t ~dataset ~path ~ranged =
  if t.config.promote then begin
    let acc = access_acc t (dataset, path) in
    acc.selective <- acc.selective + 1;
    if ranged then begin
      acc.ranged <- acc.ranged + 1;
      (* range evidence arriving after promotion still upgrades the layout:
         the column is in hand, so the projection builds right here *)
      if is_promoted t ~dataset ~path then
        match Hashtbl.find_opt t.fields (dataset, path) with
        | Some { col; _ } -> build_projection t (dataset, path) col
        | None -> ()
    end;
    maybe_promote t dataset path
  end

let lookup_zones t ~dataset ~path =
  if is_promoted t ~dataset ~path then Hashtbl.find_opt t.zones (dataset, path)
  else None

let lookup_projection t ~dataset ~path =
  if is_promoted t ~dataset ~path then
    Hashtbl.find_opt t.projections (dataset, path)
  else None

(* The registry reports a promotion-time materialization straight from a
   format index (pre-parsed slot column) — provenance on the installed
   entry, bookkeeping and a costing signal. A block the arena refused has
   no entry, and no slot column. *)
let note_slot_column t ~dataset ~path =
  match Hashtbl.find_opt t.fields (dataset, path) with
  | Some f ->
    Hashtbl.replace t.fields (dataset, path) { f with slot = true };
    t.slot_columns <- t.slot_columns + 1;
    Stats.note_rich_layout (Catalog.stats t.catalog dataset) path;
    Log.info (fun m -> m "slot column materialized for %s.%s" dataset path)
  | None -> ()

let slot_column t ~dataset ~path =
  match Hashtbl.find_opt t.fields (dataset, path) with
  | Some f -> f.slot
  | None -> false

let lookup_field t ~dataset ~path =
  match Hashtbl.find_opt t.fields (dataset, path) with
  | Some _ ->
    t.field_hits <- t.field_hits + 1;
    ignore (Memory.Arena.touch t.arena (field_id dataset path));
    if t.config.promote then begin
      let acc = access_acc t (dataset, path) in
      acc.reads <- acc.reads + 1;
      maybe_promote t dataset path
    end;
    (* the promotion may just have swapped the layout in place *)
    Option.map (fun f -> f.col) (Hashtbl.find_opt t.fields (dataset, path))
  | None ->
    t.field_misses <- t.field_misses + 1;
    None

(* A field block's eviction takes its side structures with it. *)
let evict_field t key () =
  Hashtbl.remove t.fields key;
  Hashtbl.remove t.zones key;
  Hashtbl.remove t.projections key

let store_field t ~dataset ~path ~bias col =
  (* An already-promoted string column installs directly in its dictionary
     layout (e.g. a re-fill after eviction, or the first fill after the
     selective-conjunct feedback crossed the threshold). *)
  let col =
    if is_promoted t ~dataset ~path then (
      match Column.promote_strings col with
      | Some dcol when dcol != col ->
        t.dict_columns <- t.dict_columns + 1;
        dcol
      | Some dcol -> dcol
      | None -> col)
    else col
  in
  let id = field_id dataset path in
  let size = Column.byte_size col in
  (* a fill landing on a resident slot column (its query elected the fill
     before the promotion hook materialized the column) stores the same
     rows: the entry stays a slot column *)
  let slot =
    match Hashtbl.find_opt t.fields (dataset, path) with
    | Some f -> f.slot
    | None -> false
  in
  (match Memory.Arena.put t.arena ~id ~size ~bias ~on_evict:(evict_field t (dataset, path)) with
  | () ->
    Hashtbl.replace t.fields (dataset, path) { col; slot };
    t.field_stores <- t.field_stores + 1;
    (* fill-session commit lands here: record the zone-map (and, for
       promoted range-hot columns, the sorted-projection) side structures
       alongside the block while the column is in hand (one pass) *)
    if t.config.promote then begin
      build_zones t (dataset, path) col;
      if is_promoted t ~dataset ~path then build_projection t (dataset, path) col
    end;
    Log.info (fun m -> m "cached %s.%s (%d bytes)" dataset path size);
    true
  | exception Invalid_argument _ ->
    (* larger than the whole arena: skip caching rather than fail the query *)
    Log.warn (fun m -> m "cache column %s.%s larger than arena; skipped" dataset path);
    false)

(* The fewest bytes a column of [rows] values of [ty] can take
   ([Column.byte_size]): a byte per bool, a word per other value (a code,
   at least, for a dictionary string). *)
let min_column_bytes ty ~rows =
  match Ptype.unwrap_option ty with Ptype.Bool -> rows | _ -> 8 * rows

let should_cache_field t ~dataset ~path ~ty ~rows =
  let format_ok =
    match (Catalog.find t.catalog dataset).Dataset.format with
    | Dataset.Csv _ -> t.config.cache_csv_fields
    | Dataset.Json -> t.config.cache_json_fields
    | Dataset.Binary_row | Dataset.Binary_column -> false
  in
  let type_ok =
    match Ptype.unwrap_option ty with
    | Ptype.String ->
      (* the paper never caches strings; promotion flips that to "cache as
         dictionary": a hot, repeatedly-filtered string column is worth its
         arena bytes once it stores as codes + dictionary *)
      t.config.promote && is_promoted t ~dataset ~path
    | Ptype.Int | Ptype.Float | Ptype.Bool | Ptype.Date -> true
    | Ptype.Record _ | Ptype.Collection _ | Ptype.Option _ -> false
  in
  format_ok && type_ok && min_column_bytes ty ~rows <= Memory.Arena.budget t.arena

let lookup_packed t ~key =
  match Hashtbl.find_opt t.packed key with
  | Some (p, _) ->
    t.packed_hits <- t.packed_hits + 1;
    ignore (Memory.Arena.touch t.arena (packed_id key));
    Some p
  | None ->
    t.packed_misses <- t.packed_misses + 1;
    None

let store_packed t ~key ~datasets ~bias p =
  if t.config.cache_join_sides then begin
    let id = packed_id key in
    match
      Memory.Arena.put t.arena ~id ~size:(packed_size p) ~bias ~on_evict:(fun () ->
          Hashtbl.remove t.packed key)
    with
    | () ->
      Hashtbl.replace t.packed key (p, datasets);
      t.packed_stores <- t.packed_stores + 1;
      Log.info (fun m ->
          m "cached materialized side %s (%d rows, %d bytes)" key p.Cache_iface.length
            (packed_size p))
    | exception Invalid_argument _ ->
      Log.warn (fun m -> m "packed cache %s larger than arena; skipped" key)
  end

(* Install-on-commit accounting: the fill was computed but its producing
   run recorded errors (or aborted), so nothing was stored. *)
let quarantine t ~id =
  t.quarantined <- t.quarantined + 1;
  Log.debug (fun m -> m "quarantined fill %s (producing run saw errors)" id)

let note_fill t ~dataset ~segments ~rows =
  t.fill_commits <- t.fill_commits + 1;
  t.fill_segments <- t.fill_segments + segments;
  t.fill_rows <- t.fill_rows + rows;
  Log.debug (fun m ->
      m "committed segmented fill for %s: %d segments, %d rows" dataset segments rows)

let iface t : Cache_iface.t =
  {
    Cache_iface.lookup_field =
      (fun ~dataset ~path -> with_mu t (fun () -> lookup_field t ~dataset ~path));
    store_field =
      (fun ~dataset ~path ~bias col ->
        with_mu t (fun () -> store_field t ~dataset ~path ~bias col));
    should_cache_field =
      (fun ~dataset ~path ~ty ~rows ->
        with_mu t (fun () -> should_cache_field t ~dataset ~path ~ty ~rows));
    lookup_packed = (fun ~key -> with_mu t (fun () -> lookup_packed t ~key));
    store_packed =
      (fun ~key ~datasets ~bias p ->
        with_mu t (fun () -> store_packed t ~key ~datasets ~bias p));
    quarantine = (fun ~id -> with_mu t (fun () -> quarantine t ~id));
    note_fill =
      (fun ~dataset ~segments ~rows ->
        with_mu t (fun () -> note_fill t ~dataset ~segments ~rows));
    note_selective =
      (fun ~dataset ~path ~ranged ->
        with_mu t (fun () -> note_selective t ~dataset ~path ~ranged));
    lookup_zones =
      (fun ~dataset ~path -> with_mu t (fun () -> lookup_zones t ~dataset ~path));
    lookup_projection =
      (fun ~dataset ~path ->
        with_mu t (fun () -> lookup_projection t ~dataset ~path));
    note_slot_column =
      (fun ~dataset ~path ->
        with_mu t (fun () -> note_slot_column t ~dataset ~path));
    slot_column =
      (fun ~dataset ~path -> with_mu t (fun () -> slot_column t ~dataset ~path));
  }

let is_promoted t ~dataset ~path = with_mu t (fun () -> is_promoted t ~dataset ~path)

let lookup_zones t ~dataset ~path = with_mu t (fun () -> lookup_zones t ~dataset ~path)

let lookup_projection t ~dataset ~path =
  with_mu t (fun () -> lookup_projection t ~dataset ~path)

let stats t = with_mu t @@ fun () ->
  {
    field_hits = t.field_hits;
    field_misses = t.field_misses;
    field_stores = t.field_stores;
    packed_hits = t.packed_hits;
    packed_misses = t.packed_misses;
    packed_stores = t.packed_stores;
    quarantined = t.quarantined;
    fill_commits = t.fill_commits;
    fill_segments = t.fill_segments;
    fill_rows = t.fill_rows;
    promotions = t.promotions;
    zone_maps = t.zone_maps;
    dict_columns = t.dict_columns;
    sorted_projections = t.sorted_projections;
    slot_columns = t.slot_columns;
    tail_rows = t.tail_rows;
    layouts_extended = t.layouts_extended;
    layouts_dropped = t.layouts_dropped;
  }

let field_bytes_for t ~dataset = with_mu t @@ fun () ->
  Hashtbl.fold
    (fun (ds, _) { col; _ } acc ->
      if String.equal ds dataset then acc + Column.byte_size col else acc)
    t.fields 0

let bytes_for t ~dataset = with_mu t @@ fun () ->
  let fields =
    Hashtbl.fold
      (fun (ds, _) { col; _ } acc ->
        if String.equal ds dataset then acc + Column.byte_size col else acc)
      t.fields 0
  in
  let packed =
    Hashtbl.fold
      (fun _ (p, datasets) acc ->
        if List.mem dataset datasets then acc + packed_size p else acc)
      t.packed 0
  in
  fields + packed

let resident_bytes t = with_mu t @@ fun () ->
  Hashtbl.fold (fun _ { col; _ } acc -> acc + Column.byte_size col) t.fields 0
  + Hashtbl.fold (fun _ (p, _) acc -> acc + packed_size p) t.packed 0

(* Plan-derived results over [dataset]: materialized join sides. *)
let drop_plan_results t ~dataset =
  let packed_keys =
    Hashtbl.fold
      (fun key (_, datasets) acc -> if List.mem dataset datasets then key :: acc else acc)
      t.packed []
  in
  List.iter
    (fun key ->
      Hashtbl.remove t.packed key;
      Memory.Arena.remove t.arena (packed_id key))
    packed_keys

let keys_of tbl dataset =
  Hashtbl.fold
    (fun (ds, path) _ acc -> if String.equal ds dataset then (ds, path) :: acc else acc)
    tbl []

let drop_field t (ds, path) =
  Hashtbl.remove t.fields (ds, path);
  Memory.Arena.remove t.arena (field_id ds path)

let invalidate_dataset t ~dataset = with_mu t @@ fun () ->
  List.iter (drop_field t) (keys_of t.fields dataset);
  drop_plan_results t ~dataset;
  (* the dataset changed: access history, promotions and zone maps derived
     from its old contents are stale *)
  List.iter (Hashtbl.remove t.access) (keys_of t.access dataset);
  List.iter (Hashtbl.remove t.zones) (keys_of t.zones dataset);
  List.iter (Hashtbl.remove t.projections) (keys_of t.projections dataset);
  List.iter
    (fun (ds, path) ->
      Hashtbl.remove t.promoted (ds, path);
      Stats.drop_promoted (Catalog.stats t.catalog ds) path)
    (keys_of t.promoted dataset)

(* The appended rows [from, count) of one cached path, read through the
   grown source; [None] when a row does not read cleanly — a fill over the
   grown dataset would not have committed either. *)
let tail_column (src : Proteus_plugin.Source.t) ~from path =
  match
    Proteus_plugin.Registry.read_column src path ~lo:from
      ~hi:src.Proteus_plugin.Source.count
  with
  | col -> Some col
  | exception (Perror.Parse_error _ | Perror.Type_error _ | Perror.Plan_error _) -> None

(* An append grew [dataset] from [from] rows to [src]'s count. Rows
   [0, from) did not change, so everything derived from them stays:
   cached columns keep their rows and gain the appended ones, zone maps and
   sorted projections extend over them, and access history and promotions
   carry on. What a tail breaks is dropped (a row that does not parse
   drops its column, a NaN drops a projection). Join sides are
   plan-derived and dropped. *)
let extend_dataset t ~dataset ~source ~from =
  let d = Catalog.find t.catalog dataset in
  let paths = with_mu t (fun () -> keys_of t.fields dataset) in
  (* the parsing happens outside the lock *)
  let tails = List.map (fun key -> (key, tail_column source ~from (snd key))) paths in
  with_mu t @@ fun () ->
  drop_plan_results t ~dataset;
  let extended () = t.layouts_extended <- t.layouts_extended + 1 in
  let dropped () = t.layouts_dropped <- t.layouts_dropped + 1 in
  List.iter
    (fun (key, tail) ->
      match Hashtbl.find_opt t.fields key, tail with
      | Some ({ col; _ } as f), Some tail when Column.length col = from -> (
        let grown =
          match Column.append col tail with
          | col -> (
            match
              Memory.Arena.put t.arena ~id:(field_id (fst key) (snd key))
                ~size:(Column.byte_size col) ~bias:(Dataset.bias d.Dataset.format)
                ~on_evict:(evict_field t key)
            with
            | () -> Some col
            | exception Invalid_argument _ -> None (* larger than the whole arena *))
          | exception Invalid_argument _ -> None (* mismatched layouts *)
        in
        match grown with
        | Some col ->
          Hashtbl.replace t.fields key { f with col };
          t.tail_rows <- t.tail_rows + Column.length tail;
          extended ();
          let grow tbl f =
            match Hashtbl.find_opt tbl key with
            | None -> ()
            | Some s -> (
              match f s col with
              | Some s ->
                Hashtbl.replace tbl key s;
                extended ()
              | None ->
                Hashtbl.remove tbl key;
                dropped ())
          in
          grow t.zones Zonemap.extend;
          grow t.projections Projection.extend
        | None ->
          drop_field t key;
          dropped ())
      | Some _, _ ->
        drop_field t key;
        dropped ()
      | None, _ -> ())
    tails;
  (* side structures never outlive their column *)
  List.iter
    (fun key ->
      if not (Hashtbl.mem t.fields key) then begin
        Hashtbl.remove t.zones key;
        Hashtbl.remove t.projections key
      end)
    (keys_of t.zones dataset @ keys_of t.projections dataset)

let clear t = with_mu t @@ fun () ->
  Hashtbl.iter (fun (ds, path) _ -> Memory.Arena.remove t.arena (field_id ds path)) t.fields;
  Hashtbl.iter (fun key _ -> Memory.Arena.remove t.arena (packed_id key)) t.packed;
  Hashtbl.iter
    (fun (ds, path) () -> Stats.drop_promoted (Catalog.stats t.catalog ds) path)
    t.promoted;
  Hashtbl.reset t.fields;
  Hashtbl.reset t.packed;
  Hashtbl.reset t.access;
  Hashtbl.reset t.promoted;
  Hashtbl.reset t.zones;
  Hashtbl.reset t.projections
