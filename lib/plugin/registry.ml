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
  fixed_schema : bool;
  built_rows : int;
  extended_rows : int;
}

(* The structural index behind a CSV or JSON factory, kept so an append
   can extend it. *)
type index = Csv_ix of Csv_index.t | Json_ix of Json_index.t

(* One shard of a shard set: a member dataset plus its slice of the global
   row space. Offsets are assigned in member order, so the concatenated
   view enumerates rows exactly as one file holding the shards in sequence
   would — the root of the sharded == single-file bit-identity contract. *)
type shard_info = { sh_member : string; sh_offset : int; sh_rows : int }

(* Per-(shard, path) pruning digest, built lazily on first use and
   memoized. [sd_min]/[sd_max] span the {e numeric} non-null values only
   (under [Expr.cmp], a numeric constant can only ever equal or order
   against numeric values — see DESIGN.md section 17 for the soundness
   argument); [sd_all_numeric] says no non-null non-numeric value exists,
   which ordering tests require; [sd_keyed] says every non-null value got
   a canonical Bloom key (numerics and strings do, bools/records do not),
   which Bloom-absence pruning requires. *)
type shard_digest = {
  sd_rows : int;
  sd_nonnull : int;
  sd_min : float;
  sd_max : float;
  sd_all_numeric : bool;
  sd_keyed : bool;
  sd_bloom : Proteus_storage.Bloom.t;
}

(* A factory interposer: wraps every factory thunk as it is (re)resolved,
   so injected behaviour (latency, flakiness — the resilience test
   harness) survives the invalidations the retry path performs. [None]
   restores genuine factories on the next resolution. *)
type interposer = string -> (unit -> Source.t) -> unit -> Source.t

type t = {
  catalog : Catalog.t;
  mutable cache : Cache_iface.t;
  sources : (string, Source.t) Hashtbl.t;
  factories : (string, unit -> Source.t) Hashtbl.t;
  infos : (string, index_info) Hashtbl.t;
  indexes : (string, index) Hashtbl.t;
  corrupt : (string, unit) Hashtbl.t;
      (* datasets whose cold-statistics pass met a corrupt numeric field *)
  shard_sets : (string, string list) Hashtbl.t;
  shard_layouts : (string, shard_info array) Hashtbl.t;
      (* refreshed on every parent view build, so layouts track member
         heal/degrade transitions *)
  digests : (string, shard_digest option) Hashtbl.t;
      (* keyed [member ^ "\x00" ^ path]; [None] memoizes "no digest
         obtainable" only transiently (failures are not memoized) *)
  shard_mu : Mutex.t;
      (* guards [digests] and [breakers]: arms and member builds run
         concurrently *)
  build_mu : Mutex.t;
      (* guards the memoization tables ([sources], [factories], [infos],
         [indexes], [corrupt], [shard_layouts]): hedged member builds
         resolve factories from concurrent domains. Heavy work (index
         builds, thunk invocation) runs outside it — a racing double-build
         is resolved by first-install-wins. *)
  generation : int Atomic.t;
      (* bumped on every [invalidate], [extend] and [set_cache]: prepared
         engines capture the stamp and re-stage when it moved, so a
         prepared statement observes dataset updates and caching-mode
         flips *)
  mutable interposer : interposer option;
  mutable retry : Proteus_resilience.Policy.t;
      (* member-build retry budget; the default preserves the original
         "rebuild once from scratch" contract *)
  mutable hedge : Proteus_resilience.Hedge.t option;
      (* straggler hedging for member builds; [None] = off *)
  mutable breaker_cfg : Proteus_resilience.Breaker.config;
  breakers : (string, Proteus_resilience.Breaker.t) Hashtbl.t;
      (* per-member circuit state, living beside the digest cache and
         cleared with it on member re-registration *)
}

let create ?(cache = Cache_iface.disabled) catalog =
  {
    catalog;
    cache;
    sources = Hashtbl.create 16;
    factories = Hashtbl.create 16;
    infos = Hashtbl.create 16;
    indexes = Hashtbl.create 16;
    corrupt = Hashtbl.create 4;
    shard_sets = Hashtbl.create 4;
    shard_layouts = Hashtbl.create 4;
    digests = Hashtbl.create 16;
    shard_mu = Mutex.create ();
    build_mu = Mutex.create ();
    generation = Atomic.make 0;
    interposer = None;
    retry = Proteus_resilience.Policy.default;
    hedge = None;
    breaker_cfg = Proteus_resilience.Breaker.default_config;
    breakers = Hashtbl.create 8;
  }

let with_lock mu f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

let catalog t = t.catalog
let cache t = t.cache
let generation t = Atomic.get t.generation

let set_cache t c =
  t.cache <- c;
  Atomic.incr t.generation

(* Cold-access statistics: cardinality plus min/max of numeric top-level
   fields, observed through the freshly built source — in a single pass
   that observes every numeric path per seek. After an append only the
   rows from [from] on are observed: cardinality and min/max only grow. *)
let collect_stats ?(from = 0) t (d : Dataset.t) (src : Source.t) =
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
  let accessors =
    List.filter_map
      (fun path ->
        match src.Source.field path with
        | access -> Some (path, access)
        | exception Perror.Plan_error _ -> None)
      numeric_paths
  in
  if accessors <> [] then
    for i = from to src.Source.count - 1 do
      if i land 1023 = 0 then Fault.check_cancel ();
      src.Source.seek i;
      List.iter
        (fun (path, access) ->
          match access.Access.get_val () with
          | v -> Stats.observe stats path v
          | exception Perror.Type_error _ -> ()
          | exception (Perror.Parse_error _ as e) ->
            with_lock t.build_mu (fun () -> Hashtbl.replace t.corrupt d.name ());
            (* statistics are advisory: under a degraded error policy a
               corrupt field must not abort the query from the stats pass
               (the scan's own accounting owns error reporting) *)
            if not (Fault.skipping () || Fault.null_filling ()) then raise e)
        accessors
    done

(* Index-build failures name the dataset: the byte offset alone is useless
   to a user when a query touches several files. *)
let with_dataset_context name f =
  try f () with
  | Perror.Parse_error { what; pos; msg } ->
    raise (Perror.Parse_error { what = what ^ ":" ^ name; pos; msg })
  | Perror.Unsupported m -> Perror.unsupported "%s (dataset %s)" m name

(* A source view over a structural index: a private cursor plus
   accessors over the shared read-only index. *)
let view_of_index (d : Dataset.t) = function
  | Csv_ix index ->
    let config = Csv_index.config index and schema = Dataset.schema d in
    let src = Csv_index.source index in
    fun () -> Csv_plugin.make ~config ~schema ~index ~src
  | Json_ix index ->
    let element = d.element in
    fun () -> Json_plugin.make ~element ~index

let index_rows = function
  | Csv_ix ix -> Csv_index.row_count ix
  | Json_ix ix -> Json_index.object_count ix

let index_bytes = function
  | Csv_ix ix -> Csv_index.byte_size ix
  | Json_ix ix -> Json_index.byte_size ix

let index_fixed = function
  | Csv_ix ix -> Csv_index.is_fixed_width ix
  | Json_ix ix -> Json_index.is_fixed_schema ix

(* The heavy per-dataset artifacts (parsed row pages, structural indexes)
   are built once; the returned thunk stamps out cheap source views — each
   a private cursor plus accessors over the shared read-only artifact, so
   parallel workers can scan the same dataset independently. *)
let build_factory t (d : Dataset.t) : unit -> Source.t =
  let indexed build =
    let bytes = Catalog.contents t.catalog d in
    let t0 = Unix.gettimeofday () in
    let index = with_dataset_context d.name (fun () -> build bytes) in
    let rows = index_rows index in
    let info =
      {
        size_bytes = index_bytes index;
        input_bytes = String.length bytes;
        build_seconds = Unix.gettimeofday () -. t0;
        fixed_schema = index_fixed index;
        built_rows = rows;
        extended_rows = 0;
      }
    in
    with_lock t.build_mu (fun () ->
        Hashtbl.replace t.infos d.name info;
        Hashtbl.replace t.indexes d.name index);
    Log.info (fun m ->
        m "built %s index for %s: %d rows, %.1f%% of input%s"
          (Dataset.format_name d.format) d.name rows
          (100. *. float_of_int info.size_bytes /. float_of_int (max 1 info.input_bytes))
          (if info.fixed_schema then " (fixed layout)" else ""));
    view_of_index d index
  in
  match d.format, d.location with
  | Dataset.Binary_row, Dataset.Rows page -> fun () -> Binary_plugin.of_rowpage page
  | Dataset.Binary_column, Dataset.Columns cols ->
    fun () -> Binary_plugin.of_columns ~element:d.element cols
  | Dataset.Binary_row, (Dataset.File _ | Dataset.Blob _) ->
    let bytes = Catalog.contents t.catalog d in
    let page =
      Proteus_storage.Rowpage.of_bytes (Dataset.schema d) (Bytes.of_string bytes)
    in
    fun () -> Binary_plugin.of_rowpage page
  | Dataset.Csv config, (Dataset.File _ | Dataset.Blob _) ->
    indexed (fun bytes -> Csv_ix (Csv_index.build config bytes))
  | Dataset.Json, (Dataset.File _ | Dataset.Blob _) ->
    indexed (fun bytes -> Json_ix (Json_index.build bytes))
  | (Dataset.Csv _ | Dataset.Json), (Dataset.Rows _ | Dataset.Columns _)
  | Dataset.Binary_row, Dataset.Columns _
  | Dataset.Binary_column, (Dataset.File _ | Dataset.Blob _ | Dataset.Rows _) ->
    Perror.plan_error "dataset %s: location does not match format %s" d.name
      (Dataset.format_name d.format)

(* --- concatenated shard views --------------------------------------------- *)

(* Merge per-member accessors for one path into one accessor dispatched on
   the concat cursor. Typed getters survive only when every member offers
   them (a missing one falls the whole path back to boxed dispatch, which
   is always available); batch fills survive likewise and route each run
   of the (ascending) selection vector to the member owning those rows.
   [~fills:false] is used for unnest element fields, whose indexes are not
   global row ids. Dictionary metadata never merges: codes are private to
   each member's cache column. *)
let merged_access ~fills ~cur ~locate ~(offsets : int array)
    (accs : Access.t array) : Access.t =
  let all proj =
    let xs = Array.map proj accs in
    if Array.for_all Option.is_some xs then Some (Array.map Option.get xs)
    else None
  in
  let lift proj = Option.map (fun fs () -> fs.(!cur) ()) (all proj) in
  let nullable = Array.exists (fun a -> a.Access.nullable) accs in
  let is_null =
    if Array.for_all (fun a -> a.Access.is_null = None) accs then None
    else
      let fs = Array.map (fun a -> a.Access.is_null) accs in
      Some (fun () -> match fs.(!cur) with Some f -> f () | None -> false)
  in
  let get_vals = Array.map (fun a -> a.Access.get_val) accs in
  let merge_fill proj =
    if not fills then None
    else
      match all proj with
      | None -> None
      | Some fs ->
        Some
          (fun base out ~sel ~n ->
            let i = ref 0 in
            while !i < n do
              let m = locate (base + sel.(!i)) in
              let mhi = offsets.(m + 1) in
              let j = ref (!i + 1) in
              while !j < n && base + sel.(!j) < mhi do
                incr j
              done;
              let cnt = !j - !i in
              (* sub-vector copies keep each member call inside its own row
                 range; out positions are sel values, so they are unmoved *)
              let sub =
                if !i = 0 && cnt = n then sel else Array.sub sel !i cnt
              in
              fs.(m) (base - offsets.(m)) out ~sel:sub ~n:cnt;
              i := !j
            done)
  in
  let base_ty = Ptype.unwrap_option accs.(0).Access.ty in
  {
    Access.ty = (if nullable then Ptype.Option base_ty else base_ty);
    nullable;
    get_int = lift (fun a -> a.Access.get_int);
    get_float = lift (fun a -> a.Access.get_float);
    get_bool = lift (fun a -> a.Access.get_bool);
    get_str = lift (fun a -> a.Access.get_str);
    is_null;
    get_val = (fun () -> get_vals.(!cur) ());
    fill_int = merge_fill (fun a -> a.Access.fill_int);
    fill_float = merge_fill (fun a -> a.Access.fill_float);
    fill_bool = merge_fill (fun a -> a.Access.fill_bool);
    fill_str = merge_fill (fun a -> a.Access.fill_str);
    dict = None;
  }

(* One [Source.t] over the concatenation of the member views, enumerating
   global rows [0, sum counts) in member order. Seeks hit the cached
   current member in O(1) (scans are overwhelmingly sequential) and fall
   back to binary search. *)
let concat_source ~element (views : Source.t array) : Source.t =
  let n = Array.length views in
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offsets.(i + 1) <- offsets.(i) + views.(i).Source.count
  done;
  let total = offsets.(n) in
  (* largest m with offsets.(m) <= i: lands past empty members, whose
     adjacent offsets are equal *)
  let locate i =
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if offsets.(mid) <= i then lo := mid else hi := mid - 1
    done;
    !lo
  in
  let cur = ref 0 in
  let seek i =
    let m = !cur in
    if i >= offsets.(m) && i < offsets.(m + 1) then
      views.(m).Source.seek (i - offsets.(m))
    else begin
      let m = locate i in
      cur := m;
      views.(m).Source.seek (i - offsets.(m))
    end
  in
  let field path =
    merged_access ~fills:true ~cur ~locate ~offsets
      (Array.map (fun v -> v.Source.field path) views)
  in
  let whole =
    let fs = Array.map (fun v -> v.Source.whole) views in
    fun () -> fs.(!cur) ()
  in
  let validate =
    if Array.for_all (fun v -> v.Source.validate = None) views then None
    else
      let fs = Array.map (fun v -> v.Source.validate) views in
      Some (fun () -> match fs.(!cur) with Some f -> f () | None -> ())
  in
  let unnest path =
    let specs = Array.map (fun v -> v.Source.unnest path) views in
    if not (Array.for_all Option.is_some specs) then None
    else begin
      let specs = Array.map Option.get specs in
      Some
        {
          Source.u_elem_ty = specs.(0).Source.u_elem_ty;
          u_prepare =
            (fun parts -> Array.iter (fun s -> s.Source.u_prepare parts) specs);
          u_iter = (fun ~on_elem -> specs.(!cur).Source.u_iter ~on_elem);
          u_field =
            (fun name ->
              merged_access ~fills:false ~cur ~locate ~offsets
                (Array.map (fun s -> s.Source.u_field name) specs));
          u_value = (fun () -> specs.(!cur).Source.u_value ());
        }
    end
  in
  { Source.element; count = total; seek; field; whole; unnest; validate }

(* A degraded member reads as an empty shard: a rowpage-backed view keeps
   every accessor (typed getters included) so the merged accessors lose no
   capability. *)
let empty_view element =
  Binary_plugin.of_rowpage
    (Proteus_storage.Rowpage.of_records (Schema.of_type element) [])

(* The member breaker, created on first use under the digest lock. *)
let breaker t name =
  with_lock t.shard_mu (fun () ->
      match Hashtbl.find_opt t.breakers name with
      | Some b -> b
      | None ->
        let b = Proteus_resilience.Breaker.create ~config:t.breaker_cfg () in
        Hashtbl.replace t.breakers name b;
        b)

(* What an update of [name] stales beyond its own artifacts: its shard
   parents' concat views and layouts, and its pruning digests. Bumps the
   generation, so prepared engines re-stage. *)
let drop_dependents t name =
  with_lock t.build_mu (fun () ->
      Hashtbl.iter
        (fun parent members ->
          if List.mem name members then begin
            Hashtbl.remove t.sources parent;
            Hashtbl.remove t.factories parent;
            Hashtbl.remove t.shard_layouts parent
          end)
        t.shard_sets);
  Mutex.lock t.shard_mu;
  let prefix = name ^ "\x00" in
  let stale =
    Hashtbl.fold
      (fun k _ acc ->
        if String.length k >= String.length prefix
           && String.sub k 0 (String.length prefix) = prefix
        then k :: acc
        else acc)
      t.digests []
  in
  List.iter (Hashtbl.remove t.digests) stale;
  Mutex.unlock t.shard_mu;
  Atomic.incr t.generation

(* Resolution is memoized under [build_mu], but the heavy work — eager
   index builds in [build_factory], thunk invocations — runs outside it:
   a shard parent's thunk re-enters [factory] per member, and hedged
   builds must be able to race. A racing double-resolution keeps the
   first installed factory. *)
let rec factory t name =
  match with_lock t.build_mu (fun () -> Hashtbl.find_opt t.factories name) with
  | Some f -> f
  | None ->
    let shard_members =
      with_lock t.build_mu (fun () -> Hashtbl.find_opt t.shard_sets name)
    in
    let f =
      match shard_members with
      | Some members -> shard_factory t name members
      | None -> build_factory t (Catalog.find t.catalog name)
    in
    let f = match t.interposer with Some ip -> ip name f | None -> f in
    with_lock t.build_mu (fun () ->
        match Hashtbl.find_opt t.factories name with
        | Some existing -> existing
        | None ->
          Hashtbl.replace t.factories name f;
          f)

(* The parent factory of a shard set: each invocation stamps out fresh
   member views (cheap — heavy artifacts stay memoized per member) and
   concatenates them. Member builds go through {!build_member}: the
   per-member circuit breaker, the straggler hedge, and the configured
   retry budget (the default budget preserves the original "rebuild once
   from scratch" contract). Failures are never memoized (member factories
   install only on success), so a later [Fail_fast] query re-attempts the
   build. *)
and shard_factory t name members : unit -> Source.t =
  let element = (Catalog.find t.catalog name).Dataset.element in
  fun () ->
    let views = List.map (fun m -> build_member t ~element m) members in
    let varr = Array.of_list views in
    let layout =
      let off = ref 0 in
      Array.of_list
        (List.map2
           (fun m (v : Source.t) ->
             let sh = { sh_member = m; sh_offset = !off; sh_rows = v.Source.count } in
             off := !off + v.Source.count;
             sh)
           members views)
    in
    (* refresh on every build: counts track member updates and
       degrade/heal transitions, and a pruning layout must describe the
       very views the engine just got *)
    with_lock t.build_mu (fun () -> Hashtbl.replace t.shard_layouts name layout);
    concat_source ~element varr

(* One member view for the scatter, through the resilience ladder:

   1. the breaker: an open member is skipped immediately (degraded to an
      empty shard with one recorded skip under Skip_row/Null_fill, a
      fast failure under Fail_fast) instead of re-paying its failure;
   2. the hedge (when configured, and only under Fail_fast — degraded
      policies record per-row errors into shared cells, and a speculative
      duplicate would double-account them);
   3. the retry budget: recoverable build failures are re-attempted with
      backoff, invalidating the stale artifact before each retry.

   Budget-exhausted recoverable failures feed the breaker; any success
   closes it. *)
and build_member t ~element m =
  let module R = Proteus_resilience in
  let degrade e =
    if Fault.skipping () || Fault.null_filling () then begin
      Fault.record_skip ~source:m ~row:0 e;
      empty_view element
    end
    else raise e
  in
  let br = breaker t m in
  match R.Breaker.admit br with
  | R.Breaker.Reject ->
    Tally.add_breaker_open 1;
    degrade
      (Perror.Parse_error
         {
           what = "shard:" ^ m;
           pos = -1;
           msg = "member unavailable: circuit breaker open";
         })
  | R.Breaker.Proceed -> (
    let budgeted () =
      R.Policy.run t.retry ~retryable:Fault.recoverable
        ~on_retry:(fun ~attempt:_ _ ->
          Tally.add_shards_retried 1;
          invalidate_artifacts t m)
        (fun _ -> factory t m ())
    in
    let build =
      match t.hedge with
      | Some h when Fault.policy () = Fault.Fail_fast ->
        fun () -> R.Hedge.run h ~key:m budgeted
      | _ -> budgeted
    in
    match build () with
    | v ->
      R.Breaker.success br;
      v
    | exception e when Fault.recoverable e ->
      R.Breaker.failure br;
      degrade e)

(* Invalidate the memoized artifacts of [name] (and stale parent state),
   leaving its breaker alone: the retry path calls this between attempts,
   and a breaker that reset on every retry could never accumulate the
   consecutive failures that open it. *)
and invalidate_artifacts t name =
  with_lock t.build_mu (fun () ->
      Hashtbl.remove t.sources name;
      Hashtbl.remove t.factories name;
      Hashtbl.remove t.infos name;
      Hashtbl.remove t.indexes name;
      Hashtbl.remove t.corrupt name;
      Hashtbl.remove t.shard_layouts name);
  drop_dependents t name

(* Full invalidation (re-registration, updates): artifacts plus the
   member's breaker — a re-registered member starts with a clean circuit,
   which is how a healed source comes back before its cooldown expires. *)
let invalidate t name =
  invalidate_artifacts t name;
  with_lock t.shard_mu (fun () -> Hashtbl.remove t.breakers name)

(* An append grew [name]'s byte image. Extend its structural index over
   the appended bytes only, observe the appended rows' statistics, hand
   [tail] a view over the grown index and the first appended row (the
   caching manager fills the appended rows of its columns there, before
   any query can see the grown view), then swap the grown index in.
   Anything else — no index built yet, a tail that breaks a
   specialization or does not parse, a corrupt numeric field — falls back
   to {!invalidate}: the next access rebuilds and reports as it always
   did. [true] iff the index was extended. *)
let extend t name ~tail =
  let d = Catalog.find t.catalog name in
  let bytes = Catalog.contents t.catalog d in
  let grown =
    match with_lock t.build_mu (fun () -> Hashtbl.find_opt t.indexes name) with
    | None -> None
    | Some old -> (
      match
        match old with
        | Csv_ix ix -> Option.map (fun ix -> Csv_ix ix) (Csv_index.extend ix bytes)
        | Json_ix ix -> Option.map (fun ix -> Json_ix ix) (Json_index.extend ix bytes)
      with
      | Some index -> Some (old, index)
      | None -> None
      (* whatever stops the extension, the rebuild meets again and reports
         at the next access, as it always did *)
      | exception _ -> None)
  in
  (* Cold statistics observe the appended rows first. Their pass is where
     a first access meets a corrupt numeric field and fails, so a dataset
     holding one takes the rebuild: the next access then fails (or, under
     a degraded policy, skips) exactly as a fresh session's first does.
     Without a shared source no statistics were collected yet, and the
     first [source] call observes every row. *)
  let stats_ok (old, index) =
    let corrupt () = with_lock t.build_mu (fun () -> Hashtbl.mem t.corrupt name) in
    (not (with_lock t.build_mu (fun () -> Hashtbl.mem t.sources name)))
    || (not (corrupt ()))
       && begin
            (try collect_stats ~from:(index_rows old) t d (view_of_index d index ())
             with Perror.Parse_error _ -> ());
            not (corrupt ())
          end
  in
  with_lock t.shard_mu (fun () -> Hashtbl.remove t.breakers name);
  match grown with
  | Some ((old, index) as g) when stats_ok g ->
    let from = index_rows old and rows = index_rows index in
    let genuine = view_of_index d index in
    tail (genuine ()) ~from;
    let f = match t.interposer with Some ip -> ip name genuine | None -> genuine in
    (* the shared view only anchors statistics; views handed to scans come
       from [f], through the interposer *)
    let shared = genuine () in
    with_lock t.build_mu (fun () ->
        Hashtbl.replace t.indexes name index;
        Hashtbl.replace t.factories name f;
        (match Hashtbl.find_opt t.infos name with
        | Some i ->
          Hashtbl.replace t.infos name
            {
              i with
              size_bytes = index_bytes index;
              input_bytes = String.length bytes;
              fixed_schema = index_fixed index;
              extended_rows = i.extended_rows + (rows - from);
            }
        | None -> ());
        if Hashtbl.mem t.sources name then Hashtbl.replace t.sources name shared);
    drop_dependents t name;
    Log.info (fun m ->
        m "extended %s index for %s: %d + %d rows" (Dataset.format_name d.format) name from
          (rows - from));
    true
  | Some _ | None ->
    invalidate_artifacts t name;
    false

let source t name =
  match with_lock t.build_mu (fun () -> Hashtbl.find_opt t.sources name) with
  | Some s -> s
  | None ->
    let d = Catalog.find t.catalog name in
    let s = factory t name () in
    let s, fresh =
      with_lock t.build_mu (fun () ->
          match Hashtbl.find_opt t.sources name with
          | Some existing -> (existing, false)
          | None ->
            Hashtbl.replace t.sources name s;
            (s, true))
    in
    if fresh then collect_stats t d s;
    s

let fresh_source t name =
  (* first access still goes through [source] so index building and cold
     statistics happen exactly once *)
  ignore (source t name);
  factory t name ()

let index_info t name = Hashtbl.find_opt t.infos name

(* Swap in a replacement factory — the fault-injection harness wraps the
   real source with failing accessors this way. The shared source is
   replaced immediately (not lazily) so cold-statistics collection, which
   already happened over the genuine source, is not re-run over the
   injected one. The dataset must already be registered. *)
let install_factory t name f =
  let s = f () in
  with_lock t.build_mu (fun () ->
      Hashtbl.replace t.factories name f;
      Hashtbl.remove t.shard_layouts name;
      Hashtbl.replace t.sources name s)

(* --- resilience configuration ---------------------------------------------- *)

let set_interposer t ip =
  t.interposer <- ip;
  (* drop resolved factories so the (new) interposer wraps them on the
     next resolution; memoized sources and heavy artifacts survive *)
  with_lock t.build_mu (fun () -> Hashtbl.reset t.factories);
  Atomic.incr t.generation

let interposer t = t.interposer

let set_retry_policy t p = t.retry <- p
let retry_policy t = t.retry

let set_hedge t h = t.hedge <- h
let hedge t = t.hedge

let set_breaker_config t cfg =
  t.breaker_cfg <- cfg;
  (* existing breakers keep their old config; drop them so the next
     admission creates fresh ones under the new thresholds *)
  with_lock t.shard_mu (fun () -> Hashtbl.reset t.breakers)

let breaker_states t =
  with_lock t.shard_mu (fun () ->
      Hashtbl.fold
        (fun m b acc -> (m, Proteus_resilience.Breaker.state b) :: acc)
        t.breakers [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let breaker_blocked t name =
  match with_lock t.shard_mu (fun () -> Hashtbl.find_opt t.breakers name) with
  | None -> false
  | Some b -> Proteus_resilience.Breaker.blocking b

(* --- shard sets ------------------------------------------------------------ *)

let shard_members t name = Hashtbl.find_opt t.shard_sets name

let shard_parents t name =
  Hashtbl.fold
    (fun parent members acc -> if List.mem name members then parent :: acc else acc)
    t.shard_sets []

(* Register [name] as a shard set over already-registered [members]. The
   parent gets its own catalog entry (element = the members' common
   element; the location is a deliberately unresolvable blob so any path
   that tries to read the parent as one byte image fails loudly instead
   of silently reading nothing). Shard sets are append-only: immutable
   members plus [add_shard]. *)
let register_shard_set t ~name ~members =
  if members = [] then
    Perror.plan_error "shard set %s needs at least one member" name;
  let ds =
    List.map
      (fun m ->
        if String.equal m name then
          Perror.plan_error "shard set %s cannot contain itself" name;
        Catalog.find t.catalog m)
      members
  in
  let first = List.hd ds in
  List.iter
    (fun (d : Dataset.t) ->
      if d.element <> first.Dataset.element then
        Perror.plan_error
          "shard set %s: member %s has element type %a, expected %a" name
          d.name Ptype.pp d.element Ptype.pp first.Dataset.element)
    ds;
  Catalog.register t.catalog
    (Dataset.make ~name ~format:first.Dataset.format
       ~location:(Dataset.Blob (name ^ "\x00shards"))
       ~element:first.Dataset.element);
  Hashtbl.replace t.shard_sets name members;
  invalidate t name

let add_shard t ~name ~member =
  match shard_members t name with
  | None -> Perror.plan_error "%s is not a shard set" name
  | Some members ->
    let d = Catalog.find t.catalog member in
    let parent = Catalog.find t.catalog name in
    if d.Dataset.element <> parent.Dataset.element then
      Perror.plan_error "shard %s: element type %a does not match set %s"
        member Ptype.pp d.Dataset.element name;
    Hashtbl.replace t.shard_sets name (members @ [ member ]);
    invalidate t name

(* The shard layout the engine prunes against: present once the parent
   view has been built (building it on demand here keeps callers simple).
   Returns [None] for ordinary datasets. *)
let shards t name =
  if not (Hashtbl.mem t.shard_sets name) then None
  else begin
    (match with_lock t.build_mu (fun () -> Hashtbl.find_opt t.shard_layouts name)
     with
    | Some _ -> ()
    | None -> ignore (source t name));
    with_lock t.build_mu (fun () -> Hashtbl.find_opt t.shard_layouts name)
  end

(* Build the pruning digest for one (member, path): row count, non-null
   count, numeric min/max and a Bloom filter over canonical keys, in one
   pass over a private member view. Any failure (missing path, parse
   error, degraded member) yields [None] — pruning simply stands down for
   that shard — and is not memoized, so a healed member gets a digest on
   the next query. *)
let shard_digest t ~member ~path =
  let key = member ^ "\x00" ^ path in
  let cached =
    Mutex.lock t.shard_mu;
    let c = Hashtbl.find_opt t.digests key in
    Mutex.unlock t.shard_mu;
    c
  in
  match cached with
  | Some dg -> dg
  | None ->
    let dg =
      match factory t member () with
      | exception e when Fault.recoverable e -> None
      | exception Perror.Plan_error _ -> None
      | src -> (
        match src.Source.field path with
        | exception Perror.Plan_error _ -> None
        | access -> (
          let rows = src.Source.count in
          let bloom = Proteus_storage.Bloom.create rows in
          let nonnull = ref 0 in
          let mn = ref infinity and mx = ref neg_infinity in
          let all_numeric = ref true and keyed = ref true in
          let observe_num f key =
            incr nonnull;
            if f < !mn then mn := f;
            if f > !mx then mx := f;
            Proteus_storage.Bloom.add bloom key
          in
          try
            for i = 0 to rows - 1 do
              if i land 1023 = 0 then Fault.check_cancel ();
              src.Source.seek i;
              match access.Access.get_val () with
              | Value.Null -> ()
              | Value.Int k | Value.Date k ->
                observe_num (float_of_int k) (Proteus_storage.Bloom.key_int k)
              | Value.Float f ->
                (* [Expr.cmp]'s [Float.compare] orders NaN below every float,
                   -inf included, so a data NaN is the shard's minimum:
                   pruning compares bounds under that same order. *)
                if Float.is_nan f then begin
                  incr nonnull;
                  mn := f;
                  Proteus_storage.Bloom.add bloom (Proteus_storage.Bloom.key_float f)
                end
                else observe_num f (Proteus_storage.Bloom.key_float f)
              | Value.String s ->
                incr nonnull;
                all_numeric := false;
                Proteus_storage.Bloom.add bloom
                  (Proteus_storage.Bloom.key_string s)
              | _ ->
                incr nonnull;
                all_numeric := false;
                keyed := false
            done;
            Some
              {
                sd_rows = rows;
                sd_nonnull = !nonnull;
                sd_min = !mn;
                sd_max = !mx;
                sd_all_numeric = !all_numeric;
                sd_keyed = !keyed;
                sd_bloom = bloom;
              }
          with
          | e when Fault.recoverable e -> None
          | Perror.Type_error _ -> None))
    in
    if dg <> None then begin
      Mutex.lock t.shard_mu;
      Hashtbl.replace t.digests key dg;
      Mutex.unlock t.shard_mu
    end;
    dg

(* --- segmented cache fills ------------------------------------------------ *)

(* A fill session is the unit of install-on-commit cache materialization for
   one dataset scan. Fleet workers (per morsel on the tuple lane, per batch
   on the batch lane) fill per-range {e segments} — private column builders
   keyed by their start row — and a successful run commits them in
   ascending start order with one [Array.blit] per segment
   ({!Proteus_storage.Column.Builder.concat}), so the installed columns are
   bit-identical at any domain count and batch size. A run that recorded errors, skipped rows, or died
   mid-scan releases every segment as quarantined: no partially-filled cache
   ever installs (DESIGN.md section 10 semantics, now on the morsel spine). *)
type fill_session = {
  fs_dataset : string;
  fs_bias : Proteus_storage.Memory.Arena.bias;
  fs_paths : (string * Ptype.t) list;  (* elected fill paths, in required order *)
  fs_cache : unit -> Cache_iface.t;
  fs_lock : Mutex.t;  (* guards fs_segs: one lock per segment open, not per row *)
  mutable fs_segs : (int * Proteus_storage.Column.Builder.t list) list;
  mutable fs_e0 : int;  (* the query's error count at arm time *)
}

let session_arm s =
  Mutex.lock s.fs_lock;
  s.fs_segs <- [];
  s.fs_e0 <- Fault.query_errors ();
  Mutex.unlock s.fs_lock

(* Open one segment starting at row [start]: fresh builders (one per elected
   path, in [fs_paths] order), registered so commit/release can see them.
   Each range or batch is scanned by exactly one worker, so start keys are
   unique and ascending-sort reproduces the serial row order. *)
let session_open s ~start =
  let builders =
    List.map (fun (_, ty) -> Proteus_storage.Column.Builder.create ty) s.fs_paths
  in
  Mutex.lock s.fs_lock;
  s.fs_segs <- (start, builders) :: s.fs_segs;
  Mutex.unlock s.fs_lock;
  builders

let quarantine_all s =
  let cache = s.fs_cache () in
  List.iter
    (fun (path, _) ->
      cache.Cache_iface.quarantine ~id:(s.fs_dataset ^ "." ^ path))
    s.fs_paths

(* Abort path: the producing run raised (error policy abort, cancellation,
   budget) — drop every segment and account the fills as quarantined. *)
let session_release s =
  Mutex.lock s.fs_lock;
  s.fs_segs <- [];
  Mutex.unlock s.fs_lock;
  quarantine_all s

(* Commit: blit-assemble the segments in start order and install the columns
   — unless the run recorded any error since arming (skipped rows leave
   hole-y segments; OID-aligned field caches must never install those). *)
let session_commit s =
  Mutex.lock s.fs_lock;
  let segs = List.sort (fun (a, _) (b, _) -> compare (a : int) b) s.fs_segs in
  s.fs_segs <- [];
  Mutex.unlock s.fs_lock;
  if Fault.query_errors () <> s.fs_e0 then quarantine_all s
  else begin
    let open Proteus_storage.Column in
    let cache = s.fs_cache () in
    let rows =
      List.fold_left
        (fun acc (_, bs) ->
          acc + (match bs with b :: _ -> Builder.length b | [] -> 0))
        0 segs
    in
    List.iteri
      (fun i (path, ty) ->
        let col = Builder.concat ty (List.map (fun (_, bs) -> List.nth bs i) segs) in
        cache.Cache_iface.store_field ~dataset:s.fs_dataset ~path ~bias:s.fs_bias col)
      s.fs_paths;
    cache.Cache_iface.note_fill ~dataset:s.fs_dataset ~segments:(List.length segs)
      ~rows
  end

let session_dataset s = s.fs_dataset

type scan = {
  sc_source : Source.t;
  sc_count : int;
  sc_range : lo:int -> hi:int -> on_tuple:(unit -> unit) -> unit;
  sc_range_batches :
    lo:int -> hi:int -> batch:int -> on_batch:(base:int -> len:int -> unit) -> unit;
  sc_fill : fill_session option;
  sc_fill_sel : (base:int -> sel:int array -> n:int -> unit) option;
  sc_probe : (unit -> unit) option;
  sc_dataset : string;
}

(* A cache fill: evaluates one path per row into a column builder, using the
   typed fast path when the accessor offers one. *)
let make_fill (access : Access.t) builder : unit -> unit =
  let open Proteus_storage.Column in
  match access.Access.is_null, access.Access.get_int, access.Access.get_float,
        access.Access.get_bool, access.Access.get_str with
  | None, Some get, _, _, _ -> fun () -> Builder.add_int builder (get ())
  | None, _, Some get, _, _ -> fun () -> Builder.add_float builder (get ())
  | None, _, _, Some get, _ -> fun () -> Builder.add_bool builder (get ())
  | None, _, _, _, Some get -> fun () -> Builder.add_string builder (get ())
  | _ -> fun () -> Builder.add_value builder (access.Access.get_val ())

(* Adaptive storage 2.0: promotion-time materialization of a typed column
   straight from the dataset's format index. A JSON path that crossed the
   promotion threshold is read once through its slot accessors (the
   Json_index entry spans, resolved at accessor-construction time) into a
   cache column, so every later promoted read serves binary values instead
   of re-running numparse/span decoding per tuple. Fired from the manager's
   promotion hook (outside its lock); recoverable failures abandon the
   materialization without recording faults — the hook may run mid-query
   and must never perturb that query's error accounting. Every promotion
   moves the generation, materialized or not: staged engines baked in the
   pre-promotion layout. *)
let materialize_field t ~dataset ~path =
  Fun.protect ~finally:(fun () -> Atomic.incr t.generation) @@ fun () ->
  match Catalog.find_opt t.catalog dataset with
  | Some d when d.Dataset.format = Dataset.Json -> (
    try
      let ty = Source.field_type d.element path in
      let already =
        match t.cache.Cache_iface.lookup_field ~dataset ~path with
        | Some _ -> true
        | None -> false
      in
      if
        (not already)
        && Ptype.is_primitive (Ptype.unwrap_option ty)
        && t.cache.Cache_iface.should_cache_field ~dataset ~path ~ty
      then begin
        let src = fresh_source t dataset in
        let access = src.Source.field path in
        let builder = Proteus_storage.Column.Builder.create ty in
        let fill = make_fill access builder in
        for i = 0 to src.Source.count - 1 do
          if i land 1023 = 0 then Fault.check_cancel ();
          src.Source.seek i;
          fill ()
        done;
        let col = Proteus_storage.Column.Builder.finish builder in
        t.cache.Cache_iface.store_field ~dataset ~path
          ~bias:(Dataset.bias d.Dataset.format) col;
        t.cache.Cache_iface.note_slot_column ~dataset ~path
      end
    with e when Fault.recoverable e ->
      Log.debug (fun m ->
          m "slot-column materialization of %s.%s abandoned: %s" dataset path
            (Printexc.to_string e)))
  | Some _ | None -> ()

(* Is the cache hit for [(dataset, path)] served by a pre-parsed slot
   column? Consulted once per scan construction for observability. *)
let slot_column t ~dataset ~path = t.cache.Cache_iface.slot_column ~dataset ~path

let scan_of t ~dataset ~required ~whole ~(raw : Source.t) ~fill ~session =
  let d = Catalog.find t.catalog dataset in
  let oid = ref 0 in
  let bias = Dataset.bias d.format in
  (* Null_fill wraps each raw accessor so a recoverable parse failure reads
     as [Value.Null] (accounted per field). The wrapper is boxed-only, so
     downstream batch kernels fall back to the scalar-within-selection
     path automatically — faults never corrupt a vectorized lane. *)
  let null_wrap (a : Access.t) =
    Access.boxed
      (Ptype.Option (Ptype.unwrap_option a.Access.ty))
      (fun () ->
        try a.Access.get_val ()
        with e when Fault.recoverable e ->
          Fault.record_null ~source:dataset ~row:!oid e;
          Value.Null)
  in
  (* Route each required path: cache hit -> column accessor; miss elected by
     the policy -> raw accessor + fill into a fresh cache column. Under
     Null_fill no fills are elected: a column with substituted nulls must
     never be installed as if it were the field's true contents. *)
  let routed = Hashtbl.create 8 in
  let to_fill = ref [] in
  List.iter
    (fun path ->
      match t.cache.Cache_iface.lookup_field ~dataset ~path with
      | Some col ->
        let ty = Source.field_type d.element path in
        Hashtbl.replace routed path (Access.of_column col ~cur:oid ty);
        (* slot-read accounting: rows this scan serves from a pre-parsed
           slot column instead of span decoding (ticked at construction —
           the read loop itself stays untouched) *)
        if slot_column t ~dataset ~path then
          Tally.add_slot_reads raw.Source.count
      | None ->
        if fill && not (Fault.null_filling ()) then
          let ty = try Some (Source.field_type d.element path) with Perror.Plan_error _ -> None in
          (match ty with
          | Some ty
            when Ptype.is_primitive (Ptype.unwrap_option ty)
                 && t.cache.Cache_iface.should_cache_field ~dataset ~path ~ty ->
            to_fill := (path, ty, raw.Source.field path) :: !to_fill
          | _ -> ()))
    required;
  let field path =
    match Hashtbl.find_opt routed path with
    | Some a -> a
    | None ->
      let a = raw.Source.field path in
      if Fault.null_filling () then null_wrap a else a
  in
  let seek i =
    raw.Source.seek i;
    oid := i
  in
  let sc_source = { raw with Source.field; seek } in
  (* Skip_row is probe-then-commit: before a row enters the pipeline, read
     every fallible accessor the query needs at that row (cache-routed paths
     are infallible and skipped) plus the format's structural validator.
     A row that probes clean cannot fail downstream, so operators, fills and
     aggregates only ever see the valid subset — which is what makes skip
     runs bit-identical to a clean run over that subset. *)
  let probe =
    let parts =
      List.filter_map
        (fun path ->
          if Hashtbl.mem routed path then None
          else
            match raw.Source.field path with
            | a -> Some (fun () -> ignore (a.Access.get_val ()))
            | exception Perror.Plan_error _ -> None)
        required
    in
    let parts =
      if whole then parts @ [ (fun () -> ignore (raw.Source.whole ())) ] else parts
    in
    let parts =
      match raw.Source.validate with Some v -> v :: parts | None -> parts
    in
    match parts with
    | [] -> None
    | parts -> Some (fun () -> List.iter (fun f -> f ()) parts)
  in
  (* Policy-aware tuple loop: checks the cancellation token every 1024 rows
     and, under Skip_row, drops rows whose probe fails. *)
  let policy_run ~lo ~hi ~on_tuple =
    match probe with
    | Some p when Fault.skipping () ->
      for i = lo to hi - 1 do
        if i land 1023 = 0 then Fault.check_cancel ();
        seek i;
        match p () with
        | () -> on_tuple ()
        | exception e when Fault.recoverable e ->
          Fault.record_skip ~source:dataset ~row:i e
      done
    | _ ->
      for i = lo to hi - 1 do
        if i land 1023 = 0 then Fault.check_cancel ();
        seek i;
        on_tuple ()
      done
  in
  (* The fill specification for this scan object: (path, ty, raw accessor)
     in required order, plus the session the segments land in — a filling
     [scan]'s private session, or the shared one a [scan_view] was given,
     filled through the view's {e own} raw accessors. Either way the engine
     owns the arm/commit/release lifecycle around the whole fleet. *)
  let fills_spec, sess =
    match session with
    | Some s ->
      (List.map (fun (path, ty) -> (path, ty, raw.Source.field path)) s.fs_paths, Some s)
    | None -> (
      match List.rev !to_fill with
      | [] -> ([], None)
      | spec ->
        let s =
          {
            fs_dataset = dataset;
            fs_bias = bias;
            fs_paths = List.map (fun (p, ty, _) -> (p, ty)) spec;
            fs_cache = (fun () -> t.cache);
            fs_lock = Mutex.create ();
            fs_segs = [];
            fs_e0 = 0;
          }
        in
        (spec, Some s))
  in
  (* Tuple lane: one morsel [lo, hi); with a session it fills one segment
     keyed by [lo] while scanning it. Fills run after the Skip_row probe
     admits the row, so a skip run's segments are compacted (and the error
     delta quarantines them at commit). *)
  let sc_range ~lo ~hi ~on_tuple =
    match sess with
    | Some s ->
      let builders = session_open s ~start:lo in
      let fills = List.map2 (fun (_, _, access) b -> make_fill access b) fills_spec builders in
      policy_run ~lo ~hi ~on_tuple:(fun () ->
          List.iter (fun f -> f ()) fills;
          on_tuple ())
    | None ->
      if Fault.active () then policy_run ~lo ~hi ~on_tuple
      else Source.run_range sc_source ~lo ~hi ~on_tuple
  in
  (* Batch lanes never fill inline: the batch driver fills through
     [sc_fill_sel] on the probe-surviving selection (before query filters
     narrow it), one segment per batch, so cache columns still come out
     identical to the tuple lane's at every batch size. *)
  let sc_range_batches ~lo ~hi ~batch ~on_batch =
    Source.run_range_batches sc_source ~lo ~hi ~batch ~on_batch
  in
  let sc_fill_sel =
    match sess with
    | None -> None
    | Some s ->
      (* Per-path segment fillers. Vector-capable accessors (non-nullable
         paths with a native plug-in fill) gather through a scratch array —
         the plug-in reads rows by OID with no cursor churn — and append the
         gathered prefix; the rest seek per selected row. *)
      let mk_filler (_, _, (access : Access.t)) =
        let module B = Proteus_storage.Column.Builder in
        match
          ( access.Access.fill_int, access.Access.fill_float,
            access.Access.fill_bool, access.Access.fill_str )
        with
        | Some f, _, _, _ ->
          let scratch = ref [||] in
          fun b ~base ~sel ~n ->
            let need = sel.(n - 1) + 1 in
            if Array.length !scratch < need then
              scratch := Array.make (max need 1024) 0;
            f base !scratch ~sel ~n;
            let out = !scratch in
            for i = 0 to n - 1 do
              B.add_int b out.(sel.(i))
            done
        | _, Some f, _, _ ->
          let scratch = ref [||] in
          fun b ~base ~sel ~n ->
            let need = sel.(n - 1) + 1 in
            if Array.length !scratch < need then
              scratch := Array.make (max need 1024) 0.;
            f base !scratch ~sel ~n;
            let out = !scratch in
            for i = 0 to n - 1 do
              B.add_float b out.(sel.(i))
            done
        | _, _, Some f, _ ->
          let scratch = ref [||] in
          fun b ~base ~sel ~n ->
            let need = sel.(n - 1) + 1 in
            if Array.length !scratch < need then
              scratch := Array.make (max need 1024) false;
            f base !scratch ~sel ~n;
            let out = !scratch in
            for i = 0 to n - 1 do
              B.add_bool b out.(sel.(i))
            done
        | _, _, _, Some f ->
          let scratch = ref [||] in
          fun b ~base ~sel ~n ->
            let need = sel.(n - 1) + 1 in
            if Array.length !scratch < need then
              scratch := Array.make (max need 1024) "";
            f base !scratch ~sel ~n;
            let out = !scratch in
            for i = 0 to n - 1 do
              B.add_string b out.(sel.(i))
            done
        | None, None, None, None ->
          fun b ~base ~sel ~n ->
            let fill = make_fill access b in
            for i = 0 to n - 1 do
              seek (base + sel.(i));
              fill ()
            done
      in
      let fillers = List.map mk_filler fills_spec in
      Some
        (fun ~base ~sel ~n ->
          if n > 0 then begin
            let builders = session_open s ~start:base in
            List.iter2 (fun f b -> f b ~base ~sel ~n) fillers builders
          end)
  in
  {
    sc_source;
    sc_count = raw.Source.count;
    sc_range;
    sc_range_batches;
    sc_fill = sess;
    sc_fill_sel;
    sc_probe = probe;
    sc_dataset = dataset;
  }

let scan ?(whole = false) t ~dataset ~required =
  (* a private cursor over the shared artifacts (index, parsed pages), so
     concurrent sessions never race on seek state; its fill session, when
     the policy elects fills, is the one a fleet's views share *)
  scan_of t ~dataset ~required ~whole ~raw:(fresh_source t dataset) ~fill:true
    ~session:None

let scan_view ?(whole = false) ?session t ~dataset ~required =
  scan_of t ~dataset ~required ~whole ~raw:(fresh_source t dataset) ~fill:false
    ~session
