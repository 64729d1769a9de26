(* The source catalog: one entry per dataset holding what its first touch
   built — the structural index, the views over it, the index_info and
   the shared view the cold statistics observed. [touch] is the one step
   that builds entries; invalidating a dataset removes its entry, an
   append installs a grown one. A shard parent is an entry like any
   other, except that the shard module registered its builder and the
   members it derives from. *)

open Proteus_model
open Proteus_catalog
module Csv_index = Proteus_format.Csv_index
module Json_index = Proteus_format.Json_index

let src_log = Logs.Src.create "proteus.plugin" ~doc:"Proteus input plug-ins"

module Log = (val Logs.src_log src_log : Logs.LOG)

type index_info = {
  size_bytes : int;
  input_bytes : int;
  build_seconds : float;
  stats_seconds : float;
  fixed_schema : bool;
  layouts : int option;
  built_rows : int;
  extended_rows : int;
}

(* The structural index behind a CSV or JSON entry, kept so an append
   can extend it. *)
type index = Csv_ix of Csv_index.t | Json_ix of Json_index.t

(* Wraps every entry's views as the entry is built (or the interposer
   changes), so injected latency or flakiness survives the retry path's
   invalidations. *)
type interposer = string -> (unit -> Source.t) -> unit -> Source.t

(* The mutable fields change under the catalog's lock. *)
type entry = {
  index : index option;
  genuine : unit -> Source.t;  (* a fresh view over the shared read-only artifacts *)
  mutable views : unit -> Source.t;
      (* what readers get: [genuine] through the interposer, or an
         installed factory *)
  mutable info : index_info option;
  mutable shared : Source.t option;
      (* the view the cold statistics observed; [Some] once claimed *)
  mutable corrupt : bool;  (* the statistics met a corrupt numeric field *)
}

type 'shards t = {
  catalog : Catalog.t;
  mutable cache : Cache_iface.t;
  entries : (string, entry) Hashtbl.t;
  derived : (string, string list * (unit -> Source.t)) Hashtbl.t;
      (* a name whose views a registered builder makes from its inputs'
         (a shard parent): dropping an input drops its entry *)
  mu : Mutex.t;
      (* guards [entries], [derived] and the entries' mutable fields.
         Heavy work (index builds, statistics, view builds) runs outside
         it: concurrent first touches race, and the first entry installed
         wins. *)
  generation : int Atomic.t;
      (* bumped on every [invalidate], [extend], shard change, promotion,
         [set_cache] and [set_interposer]: the layout staged engines baked
         in is gone (a prepared handle re-stages, the engine cache drops it) *)
  fills : int Atomic.t;
      (* the fill stamp: bumped when a fill commit installs a column, so
         handles staged to read it raw re-stage in place *)
  mutable interposer : interposer option;
  shards : 'shards;  (* the shard module's state *)
}

let create ?(cache = Cache_iface.disabled) ~shards catalog =
  {
    catalog;
    cache;
    entries = Hashtbl.create 16;
    derived = Hashtbl.create 4;
    mu = Mutex.create ();
    generation = Atomic.make 0;
    fills = Atomic.make 0;
    interposer = None;
    shards;
  }

let catalog t = t.catalog
let cache t = t.cache
let generation t = Atomic.get t.generation
let fill_stamp t = Atomic.get t.fills

let set_cache t c =
  t.cache <- c;
  Atomic.incr t.generation

let locked t f = Mutex.protect t.mu f

(* --- cold statistics ---------------------------------------------------- *)

(* Cold-access statistics: cardinality plus min/max/distinct of the
   numeric top-level fields, observed through the freshly built source in
   one pass of 1024-row batches, aligned to multiples of 1024 (the cadence
   of [Fault.check_cancel]). Per batch, every field first reads its values
   into an unboxed buffer — through its lane's fill or, for a nullable
   field, seek-then-get with a null test that also collects the non-null
   lanes — and only when every read
   succeeded are the buffers folded into the fields' accumulators
   (resolved once per pass). A batch in which any read raised is re-read
   row by row through the boxed getters instead, which reproduces the
   row-major first error, the [corrupt] mark and, under a degraded policy,
   the set of values observed. After an append only the rows from [from]
   on are observed: cardinality and min/max only grow. *)
let stats_batch = 1024

let iota = Array.init stats_batch Fun.id

(* One field of the pass: [read ~base ~len] buffers a batch (or raises),
   [fold ()] folds the buffered batch, [get_val] is the row-by-row read. *)
type stats_lane = {
  acc : Stats.acc;
  get_val : unit -> Value.t;
  read : base:int -> len:int -> unit;
  fold : unit -> unit;
}

let stats_lane seek acc (a : Access.t) =
  let typed (r : _ Access.reader) buf observe =
    let n = ref 0 in
    let sel, read =
      match a.Access.null with
      | None ->
        let fill = Option.get r.Access.fill in
        ( iota,
          fun ~base ~len ->
            fill base buf ~sel:iota ~n:len;
            n := len )
      | Some is_null ->
        let sel = Array.make stats_batch 0 in
        ( sel,
          fun ~base ~len ->
            n := 0;
            for j = 0 to len - 1 do
              seek (base + j);
              if not (is_null ()) then begin
                buf.(j) <- r.Access.get ();
                sel.(!n) <- j;
                incr n
              end
            done )
    in
    { acc; get_val = a.Access.get_val; read; fold = (fun () -> observe buf ~sel ~n:!n) }
  in
  (* a non-nullable lane reads through its fill, a nullable one at the
     cursor; a reader that cannot do either reads boxed *)
  let typed_ok (r : _ Access.reader) = a.Access.null <> None || r.Access.fill <> None in
  match a.Access.lane with
  | Access.Int r when typed_ok r ->
    typed r (Array.make stats_batch 0) (Stats.observe_ints acc ~date:false)
  | Access.Date r when typed_ok r ->
    typed r (Array.make stats_batch 0) (Stats.observe_ints acc ~date:true)
  | Access.Float r when typed_ok r ->
    typed r (Array.make stats_batch 0.) (Stats.observe_floats acc)
  | _ ->
    (* no typed lane: buffer the boxed values *)
    let vals = Array.make stats_batch Value.Null and n = ref 0 in
    {
      acc;
      get_val = a.Access.get_val;
      read =
        (fun ~base ~len ->
          for j = 0 to len - 1 do
            seek (base + j);
            vals.(j) <- a.Access.get_val ()
          done;
          n := len);
      fold =
        (fun () ->
          for j = 0 to !n - 1 do
            Stats.observe_value acc vals.(j)
          done);
    }

let collect_stats t owner ~from (d : Dataset.t) (src : Source.t) =
  let stats = Catalog.stats t.catalog d.name in
  Stats.set_cardinality stats src.Source.count;
  let numeric_paths =
    match d.element with
    | Ptype.Record fields ->
      List.filter_map
        (fun (name, ty) ->
          match Ptype.unwrap_option ty with
          | Ptype.Int | Ptype.Float | Ptype.Date -> Some name
          | _ -> None)
        fields
    | _ -> []
  in
  let seek = src.Source.seek in
  let lanes =
    List.filter_map
      (fun path ->
        match src.Source.field path with
        | access -> Some (stats_lane seek (Stats.acc stats path) access)
        | exception Perror.Plan_error _ -> None)
      numeric_paths
  in
  let row_by_row ~base ~len =
    for i = base to base + len - 1 do
      seek i;
      List.iter
        (fun l ->
          match l.get_val () with
          | v -> Stats.observe_value l.acc v
          | exception Perror.Type_error _ -> ()
          | exception (Perror.Parse_error _ as e) ->
            locked t (fun () -> owner.corrupt <- true);
            (* statistics are advisory: under a degraded error policy a
               corrupt field must not abort the query from the stats pass
               (the scan's own accounting owns error reporting) *)
            if not (Fault.skipping () || Fault.null_filling ()) then raise e)
        lanes
    done
  in
  if lanes <> [] then begin
    let base = ref from in
    while !base < src.Source.count do
      if !base land (stats_batch - 1) = 0 then Fault.check_cancel ();
      let len =
        Int.min (stats_batch - (!base land (stats_batch - 1))) (src.Source.count - !base)
      in
      (match List.iter (fun l -> l.read ~base:!base ~len) lanes with
      | () -> List.iter (fun l -> l.fold ()) lanes
      | exception _ -> row_by_row ~base:!base ~len);
      base := !base + len
    done
  end

(* --- entries ------------------------------------------------------------ *)

(* Index-build failures name the dataset: the byte offset alone is useless
   to a user when a query touches several files. *)
let with_dataset_context name f =
  try f () with
  | Perror.Parse_error { what; pos; msg } ->
    raise (Perror.Parse_error { what = what ^ ":" ^ name; pos; msg })
  | Perror.Unsupported m -> Perror.unsupported "%s (dataset %s)" m name

let find t name = locked t (fun () -> Hashtbl.find_opt t.entries name)

let interpose t name f = match t.interposer with Some ip -> ip name f | None -> f

let entry t name ?index ?info genuine =
  { index; genuine; views = interpose t name genuine; info; shared = None; corrupt = false }

let row_count (i : index_info) = i.built_rows + i.extended_rows

(* The entry over the structural index [make] returns from the dataset's
   bytes: a fresh build or, after [prev]'s rows, an extension of [prev]'s
   index. *)
let indexed t (d : Dataset.t) ?prev make =
  let bytes = Catalog.contents t.catalog d in
  let t0 = Unix.gettimeofday () in
  let index = with_dataset_context d.name (fun () -> make bytes) in
  let genuine, rows, size_bytes, fixed_schema, layouts =
    match index with
    | Csv_ix ix ->
      let config = Csv_index.config ix and schema = Dataset.schema d in
      let src = Csv_index.source ix in
      ( (fun () -> Csv_plugin.make ~config ~schema ~index:ix ~src),
        Csv_index.row_count ix, Csv_index.byte_size ix, Csv_index.is_fixed_width ix, None )
    | Json_ix ix ->
      let element = d.element in
      ( (fun () -> Json_plugin.make ~element ~index:ix),
        Json_index.object_count ix, Json_index.byte_size ix, Json_index.is_fixed_schema ix,
        Some (Json_index.layout_count ix) )
  in
  let input_bytes = String.length bytes and format = Dataset.format_name d.format in
  let info =
    match prev with
    | Some (i : index_info) ->
      Log.info (fun m ->
          m "extended %s index for %s: %d + %d rows" format d.name (row_count i)
            (rows - row_count i));
      { i with size_bytes; input_bytes; fixed_schema; layouts; extended_rows = rows - i.built_rows }
    | None ->
      Log.info (fun m ->
          m "built %s index for %s: %d rows, %.1f%% of input%s" format d.name rows
            (100. *. float_of_int size_bytes /. float_of_int (max 1 input_bytes))
            (if fixed_schema then " (fixed layout)" else ""));
      {
        size_bytes;
        input_bytes;
        build_seconds = Unix.gettimeofday () -. t0;
        stats_seconds = 0.;
        fixed_schema;
        layouts;
        built_rows = rows;
        extended_rows = 0;
      }
  in
  entry t d.name ~index ~info genuine

(* [index] extended over the appended tail of [bytes]; [None] when the
   tail breaks a specialization or continues the last old row. *)
let extend_index index bytes =
  match index with
  | Csv_ix ix -> Option.map (fun ix -> Csv_ix ix) (Csv_index.extend ix bytes)
  | Json_ix ix -> Option.map (fun ix -> Json_ix ix) (Json_index.extend ix bytes)

(* The heavy artifacts behind a dataset's views (structural index, parsed
   row pages), or the views a builder registered for a derived name. *)
let build t name =
  match locked t (fun () -> Hashtbl.find_opt t.derived name) with
  | Some (_, views) -> entry t name views
  | None -> (
    let d = Catalog.find t.catalog name in
    match d.format, d.location with
    | Dataset.Binary_row, Dataset.Rows page -> entry t name (fun () -> Binary_plugin.of_rowpage page)
    | Dataset.Binary_column, Dataset.Columns cols ->
      entry t name (fun () -> Binary_plugin.of_columns ~element:d.element cols)
    | Dataset.Binary_row, (Dataset.File _ | Dataset.Blob _) ->
      let bytes = Catalog.contents t.catalog d in
      let page = Proteus_storage.Rowpage.of_bytes (Dataset.schema d) (Bytes.of_string bytes) in
      entry t name (fun () -> Binary_plugin.of_rowpage page)
    | Dataset.Csv config, (Dataset.File _ | Dataset.Blob _) ->
      indexed t d (fun bytes -> Csv_ix (Csv_index.build config bytes))
    | Dataset.Json, (Dataset.File _ | Dataset.Blob _) ->
      indexed t d (fun bytes -> Json_ix (Json_index.build bytes))
    | (Dataset.Csv _ | Dataset.Json), (Dataset.Rows _ | Dataset.Columns _)
    | Dataset.Binary_row, Dataset.Columns _
    | Dataset.Binary_column, (Dataset.File _ | Dataset.Blob _ | Dataset.Rows _) ->
      Perror.plan_error "dataset %s: location does not match format %s" name
        (Dataset.format_name d.format))

(* The one first-touch step. [touch t name] is [name]'s entry, built and
   installed by the first call (a racing double build keeps the first
   entry installed). With [~stats] the first such call also claims the
   shared view and observes the cold statistics over it, once per entry.

   [~grown:(prev, index)] instead makes, without installing it, the entry
   of an append: [index] is [prev]'s index extended over the appended
   bytes. When [prev] had statistics, its own observe the appended rows
   only. Their pass is where a first access meets a corrupt numeric
   field, so the caller refuses an entry left [corrupt] and takes the
   rebuild: the next access then fails (or, under a degraded error
   policy, skips) exactly as a fresh session's first does. *)
let touch ?(stats = false) ?grown t name =
  match grown with
  | Some (prev, index) ->
    let d = Catalog.find t.catalog name and info = Option.get prev.info in
    let e = indexed t d ~prev:info (fun _ -> index) in
    if Option.is_some prev.shared then begin
      let shared = e.genuine () in
      e.shared <- Some shared;
      e.corrupt <- prev.corrupt;
      if not e.corrupt then
        try collect_stats t e ~from:(row_count info) d shared with Perror.Parse_error _ -> ()
    end;
    e
  | None ->
    let e =
      match find t name with
      | Some e -> e
      | None ->
        let e = build t name in
        locked t (fun () ->
            match Hashtbl.find_opt t.entries name with
            | Some first -> first
            | None ->
              Hashtbl.replace t.entries name e;
              e)
    in
    if stats && locked t (fun () -> Option.is_none e.shared) then begin
      let s = e.views () in
      if locked t (fun () -> Option.is_none e.shared && (e.shared <- Some s; true)) then begin
        let t0 = Unix.gettimeofday () in
        collect_stats t e ~from:0 (Catalog.find t.catalog name) s;
        let stats_seconds = Unix.gettimeofday () -. t0 in
        locked t (fun () -> e.info <- Option.map (fun i -> { i with stats_seconds }) e.info)
      end
    end;
    e

let factory t name = (touch t name).views

let source t name = Option.get (touch ~stats:true t name).shared

let fresh_source t name = (touch ~stats:true t name).views ()

let index_info t name = Option.bind (find t name) (fun e -> e.info)

(* --- derived names, invalidation, appends, installed views --------------- *)

(* Register [name]'s views as [views ()], made from the entries of
   [inputs]: an update of an input drops [name]'s entry. *)
let derive t name ~inputs views = locked t (fun () -> Hashtbl.replace t.derived name (inputs, views))

let inputs t name = locked t (fun () -> Option.map fst (Hashtbl.find_opt t.derived name))

let derived_from t name =
  locked t (fun () ->
      Hashtbl.fold
        (fun parent (inputs, _) acc -> if List.mem name inputs then parent :: acc else acc)
        t.derived [])

(* What an update of [name] stales beyond its own entry: the entries of
   the names derived from it. Bumps the generation, so prepared engines
   re-stage. *)
let drop_dependents t name =
  let parents = derived_from t name in
  locked t (fun () -> List.iter (Hashtbl.remove t.entries) parents);
  Atomic.incr t.generation

let invalidate t name =
  locked t (fun () -> Hashtbl.remove t.entries name);
  drop_dependents t name

(* An append grew [name]'s byte image: the grown entry is shown to [tail]
   (the caching manager fills its columns' appended rows) before it is
   installed. Whatever stops the extension falls back to {!invalidate}:
   the next access rebuilds and reports as it always did. *)
let extend t name ~tail =
  let grown =
    match find t name with
    | Some ({ index = Some ix; _ } as prev) -> (
      match extend_index ix (Catalog.contents t.catalog (Catalog.find t.catalog name)) with
      | Some index -> Some (prev, touch t name ~grown:(prev, index))
      | None | (exception _) -> None)
    | Some _ | None -> None
  in
  match grown with
  | Some (prev, e) when not e.corrupt ->
    tail (e.genuine ()) ~from:(row_count (Option.get prev.info));
    locked t (fun () -> Hashtbl.replace t.entries name e);
    drop_dependents t name;
    true
  | Some _ | None ->
    invalidate t name;
    false

(* Swap in a replacement factory — the fault-injection harness wraps the
   real source with failing accessors this way. The shared source is
   replaced immediately (not lazily) so cold-statistics collection, which
   already happened over the genuine source, is not re-run over the
   injected one. *)
let install_factory t name f =
  let e = touch t name in
  let s = f () in
  locked t (fun () ->
      e.views <- f;
      e.shared <- Some s)

(* Entries keep their artifacts; their views are wrapped anew (an
   installed factory gives way to the genuine views). *)
let set_interposer t ip =
  locked t (fun () ->
      t.interposer <- ip;
      Hashtbl.iter (fun name e -> e.views <- interpose t name e.genuine) t.entries);
  Atomic.incr t.generation

let interposer t = t.interposer
