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
  columns : (string, (string, column) Hashtbl.t) Hashtbl.t;  (* dataset -> path *)
  packed : (string, Cache_iface.packed * string list) Hashtbl.t;  (* key -> (cols, datasets) *)
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

(* Everything the manager knows of one (dataset, path). The resident part
   is the arena block and what was derived from its rows; an eviction or a
   drop takes it as a unit. The access counts and the promotion flag are
   the workload's evidence: they outlive eviction (a refill installs in the
   promoted layout) and go only when the dataset changes. *)
and column = {
  id : string;  (* the arena block id *)
  mutable resident : resident option;
  mutable reads : int;      (* cache-lookup hits *)
  mutable selective : int;  (* queries that compiled a comparison over it *)
  mutable ranged : int;     (* of those, range (not equality) comparisons *)
  mutable promoted : bool;
}

(* [slot] marks a column the registry materialized straight from
   format-index spans, so its hits are slot reads; a refill after eviction
   starts unmarked, an append extending the column keeps the mark. *)
and resident = {
  mutable col : Column.t;
  mutable slot : bool;
  mutable zones : Zonemap.t option;
  mutable projection : Projection.t option;
}

let create ?(config = default_config) catalog =
  {
    config;
    catalog;
    arena = Memory.Arena.of_mgr (Catalog.memory catalog);
    mu = Mutex.create ();
    on_promote = [];
    promo_fired = [];
    columns = Hashtbl.create 16;
    packed = Hashtbl.create 16;
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

let packed_id key = "packed:" ^ key

let packed_size (p : Cache_iface.packed) =
  List.fold_left (fun acc (_, c) -> acc + Column.byte_size c) 0 p.Cache_iface.cols

(* --- the per-column records ---------------------------------------------- *)

let find t ~dataset ~path =
  match Hashtbl.find_opt t.columns dataset with
  | Some paths -> Hashtbl.find_opt paths path
  | None -> None

(* The record of [dataset.path], made on first use. *)
let column t ~dataset ~path =
  let paths =
    match Hashtbl.find_opt t.columns dataset with
    | Some paths -> paths
    | None ->
      let paths = Hashtbl.create 8 in
      Hashtbl.replace t.columns dataset paths;
      paths
  in
  match Hashtbl.find_opt paths path with
  | Some c -> c
  | None ->
    let c =
      { id = Fmt.str "field:%s:%s" dataset path; resident = None; reads = 0; selective = 0;
        ranged = 0; promoted = false }
    in
    Hashtbl.replace paths path c;
    c

let resident t ~dataset ~path =
  match find t ~dataset ~path with Some { resident; _ } -> resident | None -> None

let resident_bytes_of paths =
  Hashtbl.fold
    (fun _ c acc ->
      match c.resident with Some r -> acc + Column.byte_size r.col | None -> acc)
    paths 0

(* Drop a column's block: the resident part goes as a unit, as on an
   eviction (the block's [on_evict]); the evidence stays. *)
let drop_resident t c =
  if Option.is_some c.resident then begin
    c.resident <- None;
    Memory.Arena.remove t.arena c.id
  end

(* --- workload-adaptive promotion (adaptive storage 2.0) ------------------ *)

let is_promoted t ~dataset ~path =
  match find t ~dataset ~path with Some c -> c.promoted | None -> false

let build_zones t ~dataset ~path r =
  if Option.is_none r.zones then
    match Zonemap.of_column r.col with
    | Some zm ->
      r.zones <- Some zm;
      t.zone_maps <- t.zone_maps + 1;
      Log.info (fun m ->
          m "zone map for %s.%s: %d zones x %d rows" dataset path (Zonemap.zones zm)
            zm.Zonemap.zone)
    | None -> ()

(* Sorted projections are the second promotion tier: only columns whose
   workload showed RANGE predicates earn the sort + permutation — equality
   probes and plain reads are already served by zone maps/dictionaries, and
   on unclustered data only the value order can prove morsels empty. *)
let build_projection t ~dataset ~path c r =
  if t.config.promote_projections && Option.is_none r.projection && c.ranged > 0 then
    match Projection.of_column r.col with
    | Some pr ->
      r.projection <- Some pr;
      t.sorted_projections <- t.sorted_projections + 1;
      Log.info (fun m ->
          m "sorted projection for %s.%s: %d rows (%d bytes)" dataset path
            (Projection.rows pr) (Projection.byte_size pr))
    | None -> ()

(* Past-threshold promotion: columns gain a zone map (numeric or
   lexicographic; built in one pass when the column is already filled,
   otherwise at the next fill commit) and — when the workload showed range
   predicates — a sorted projection; string columns re-encode as
   dictionaries in place. *)
let promote_now t ~dataset ~path c =
  c.promoted <- true;
  t.promotions <- t.promotions + 1;
  t.promo_fired <- (dataset, path) :: t.promo_fired;
  (match c.resident with
  | Some r -> (
    build_zones t ~dataset ~path r;
    build_projection t ~dataset ~path c r;
    match Column.promote_strings r.col with
    | Some dcol when dcol != r.col ->
      r.col <- dcol;
      t.dict_columns <- t.dict_columns + 1
    | Some _ | None -> ())
  | None -> ());
  Log.info (fun m -> m "promoted %s.%s" dataset path)

let maybe_promote t ~dataset ~path c =
  if t.config.promote && (not c.promoted) && c.reads + c.selective >= t.config.promote_threshold
  then promote_now t ~dataset ~path c

let note_selective t ~dataset ~path ~ranged =
  if t.config.promote then begin
    let c = column t ~dataset ~path in
    c.selective <- c.selective + 1;
    if ranged then begin
      c.ranged <- c.ranged + 1;
      (* range evidence arriving after promotion still upgrades the layout:
         the column is in hand, so the projection builds right here *)
      match c.resident with
      | Some r when c.promoted -> build_projection t ~dataset ~path c r
      | Some _ | None -> ()
    end;
    maybe_promote t ~dataset ~path c
  end

let lookup_zones t ~dataset ~path =
  match find t ~dataset ~path with
  | Some { promoted = true; resident = Some r; _ } -> r.zones
  | Some _ | None -> None

let lookup_projection t ~dataset ~path =
  match find t ~dataset ~path with
  | Some { promoted = true; resident = Some r; _ } -> r.projection
  | Some _ | None -> None

(* The registry reports a promotion-time materialization straight from a
   format index (pre-parsed slot column): provenance on the installed
   entry, and bookkeeping. A block the arena refused has no entry, and no
   slot column. *)
let note_slot_column t ~dataset ~path =
  match resident t ~dataset ~path with
  | Some r ->
    r.slot <- true;
    t.slot_columns <- t.slot_columns + 1;
    Log.info (fun m -> m "slot column materialized for %s.%s" dataset path)
  | None -> ()

let slot_column t ~dataset ~path =
  match resident t ~dataset ~path with Some r -> r.slot | None -> false

let lookup_field t ~dataset ~path =
  match find t ~dataset ~path with
  | Some ({ resident = Some r; _ } as c) ->
    t.field_hits <- t.field_hits + 1;
    ignore (Memory.Arena.touch t.arena c.id);
    if t.config.promote then begin
      c.reads <- c.reads + 1;
      maybe_promote t ~dataset ~path c
    end;
    (* the promotion may just have swapped the layout in place *)
    Some r.col
  | Some _ | None ->
    t.field_misses <- t.field_misses + 1;
    None

let store_field t ~dataset ~path ~bias col =
  let c = column t ~dataset ~path in
  (* An already-promoted string column installs directly in its dictionary
     layout (e.g. a re-fill after eviction, or the first fill after the
     selective-conjunct feedback crossed the threshold). *)
  let col =
    if c.promoted then (
      match Column.promote_strings col with
      | Some dcol when dcol != col ->
        t.dict_columns <- t.dict_columns + 1;
        dcol
      | Some dcol -> dcol
      | None -> col)
    else col
  in
  let size = Column.byte_size col in
  match
    Memory.Arena.put t.arena ~id:c.id ~size ~bias ~on_evict:(fun () -> c.resident <- None)
  with
  | () ->
    (* a fill landing on a resident column (its query elected the fill
       before the promotion hook materialized a slot column) stores the
       same rows: the mark and the side structures stay *)
    let r =
      match c.resident with
      | Some r ->
        r.col <- col;
        r
      | None ->
        let r = { col; slot = false; zones = None; projection = None } in
        c.resident <- Some r;
        r
    in
    t.field_stores <- t.field_stores + 1;
    (* fill-session commit lands here: record the zone-map (and, for
       promoted range-hot columns, the sorted-projection) side structures
       alongside the block while the column is in hand (one pass) *)
    if t.config.promote then begin
      build_zones t ~dataset ~path r;
      if c.promoted then build_projection t ~dataset ~path c r
    end;
    Log.info (fun m -> m "cached %s.%s (%d bytes)" dataset path size);
    true
  | exception Invalid_argument _ ->
    (* larger than the whole arena: skip caching rather than fail the query *)
    Log.warn (fun m -> m "cache column %s.%s larger than arena; skipped" dataset path);
    false

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

let field_bytes t ~dataset =
  match Hashtbl.find_opt t.columns dataset with
  | Some paths -> resident_bytes_of paths
  | None -> 0

let field_bytes_for t ~dataset = with_mu t (fun () -> field_bytes t ~dataset)

let bytes_for t ~dataset = with_mu t @@ fun () ->
  field_bytes t ~dataset
  + Hashtbl.fold
      (fun _ (p, datasets) acc -> if List.mem dataset datasets then acc + packed_size p else acc)
      t.packed 0

let resident_bytes t = with_mu t @@ fun () ->
  Hashtbl.fold (fun _ paths acc -> acc + resident_bytes_of paths) t.columns 0
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

(* The dataset changed: its columns' records go whole — the resident parts
   and the access history and promotions derived from its old contents. *)
let invalidate_dataset t ~dataset = with_mu t @@ fun () ->
  (match Hashtbl.find_opt t.columns dataset with
  | Some paths ->
    Hashtbl.iter (fun _ c -> drop_resident t c) paths;
    Hashtbl.remove t.columns dataset
  | None -> ());
  drop_plan_results t ~dataset

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

(* Grow one resident column by [tail]; [false] when the rows do not join
   (mismatched layouts) or the grown block outgrows the whole arena. *)
let grow_resident t ~bias c r tail =
  match Column.append r.col tail with
  | col -> (
    match
      Memory.Arena.put t.arena ~id:c.id ~size:(Column.byte_size col) ~bias
        ~on_evict:(fun () -> c.resident <- None)
    with
    | () ->
      r.col <- col;
      true
    | exception Invalid_argument _ -> false)
  | exception Invalid_argument _ -> false

(* An append grew [dataset] from [from] rows to [src]'s count. Rows
   [0, from) did not change, so everything derived from them stays:
   cached columns keep their rows and gain the appended ones, zone maps and
   sorted projections extend over them, and access history and promotions
   carry on. What a tail breaks is dropped (a row that does not parse
   drops its column, a NaN drops a projection). Join sides are
   plan-derived and dropped. *)
let extend_dataset t ~dataset ~source ~from =
  let bias = Dataset.bias (Catalog.find t.catalog dataset).Dataset.format in
  let cached =
    with_mu t (fun () ->
        match Hashtbl.find_opt t.columns dataset with
        | Some paths ->
          Hashtbl.fold
            (fun path c acc -> match c.resident with Some _ -> (path, c) :: acc | None -> acc)
            paths []
        | None -> [])
  in
  (* the parsing happens outside the lock *)
  let tails = List.map (fun (path, c) -> (c, tail_column source ~from path)) cached in
  with_mu t @@ fun () ->
  drop_plan_results t ~dataset;
  let extended () = t.layouts_extended <- t.layouts_extended + 1 in
  let dropped () = t.layouts_dropped <- t.layouts_dropped + 1 in
  (* a side structure that the tail broke goes; its column stays *)
  let grow side extend col =
    match side with
    | None -> None
    | Some s -> (
      match extend s col with
      | Some _ as s ->
        extended ();
        s
      | None ->
        dropped ();
        None)
  in
  List.iter
    (fun (c, tail) ->
      match c.resident, tail with
      | Some r, Some tail when Column.length r.col = from && grow_resident t ~bias c r tail ->
        t.tail_rows <- t.tail_rows + Column.length tail;
        extended ();
        r.zones <- grow r.zones Zonemap.extend r.col;
        r.projection <- grow r.projection Projection.extend r.col
      | Some _, _ ->
        (* the side structures go with the column *)
        drop_resident t c;
        dropped ()
      | None, _ -> ())
    tails

let clear t = with_mu t @@ fun () ->
  Hashtbl.iter (fun _ paths -> Hashtbl.iter (fun _ c -> drop_resident t c) paths) t.columns;
  Hashtbl.iter (fun key _ -> Memory.Arena.remove t.arena (packed_id key)) t.packed;
  Hashtbl.reset t.columns;
  Hashtbl.reset t.packed
