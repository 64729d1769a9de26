open Proteus_model
open Proteus_storage
open Proteus_catalog
module Registry = Proteus_plugin.Registry
module Manager = Proteus_cache.Manager
module Executor = Proteus_engine.Executor

type t = {
  catalog : Catalog.t;
  registry : Registry.t;
  cache : Manager.t;
}

type engine = Proteus_engine.Executor.engine = Engine_compiled | Engine_volcano

let create ?cache_budget ?(caching = Manager.default_config) () =
  let catalog = Catalog.create ?cache_budget () in
  let cache = Manager.create ~config:caching catalog in
  let registry = Registry.create ~cache:(Manager.iface cache) catalog in
  (* promotion-time slot columns: a hot JSON path materializes into a typed
     cache column straight from the format index the moment it promotes;
     the registry generation then moves, so staged engines re-stage over
     the promoted layout *)
  Manager.set_on_promote cache (fun dataset path ->
      Registry.materialize_field registry ~dataset ~path);
  { catalog; registry; cache }

let catalog t = t.catalog
let registry t = t.registry
let cache_manager t = t.cache
let cache_stats t = Manager.stats t.cache

let set_caching ?(clear = false) t enabled =
  if clear then Manager.clear t.cache;
  Registry.set_cache t.registry
    (if enabled then Manager.iface t.cache else Proteus_plugin.Cache_iface.disabled)

(* The one path a dataset change takes: whatever was derived from [name]
   goes — its registry entry (which takes the shard sets built over it),
   and the cold statistics and cached columns of [name] and of every shard
   set containing it (the next access collects and fills them afresh). An
   append that [extended] [name]'s own structures in place drops only the
   shard sets'. *)
let invalidate ?(extended = false) t name =
  let drop_derived dataset =
    if Catalog.find_opt t.catalog dataset <> None then
      Stats.clear (Catalog.stats t.catalog dataset);
    Manager.invalidate_dataset t.cache ~dataset
  in
  if not extended then begin
    Registry.invalidate t.registry name;
    drop_derived name
  end;
  List.iter drop_derived (Registry.shard_parents t.registry name)

let register t d =
  Catalog.register t.catalog d;
  invalidate t d.Dataset.name

let register_csv t ~name ?(config = Proteus_format.Csv.default_config) ~element
    ~contents () =
  let blob = name ^ ".csv" in
  Memory.register_blob (Catalog.memory t.catalog) ~name:blob contents;
  register t
    (Dataset.make ~name ~format:(Dataset.Csv config) ~location:(Dataset.Blob blob)
       ~element)

let register_csv_file t ~name ?(config = Proteus_format.Csv.default_config) ~element
    ~path () =
  register t
    (Dataset.make ~name ~format:(Dataset.Csv config) ~location:(Dataset.File path)
       ~element)

let register_json t ~name ~element ~contents =
  let blob = name ^ ".json" in
  Memory.register_blob (Catalog.memory t.catalog) ~name:blob contents;
  register t
    (Dataset.make ~name ~format:Dataset.Json ~location:(Dataset.Blob blob) ~element)

let register_json_inferred t ~name ~contents =
  let element = Typeinfer.of_json contents in
  register_json t ~name ~element ~contents;
  element

let register_csv_inferred t ~name ?(config = Proteus_format.Csv.default_config)
    ~contents () =
  let config = { config with Proteus_format.Csv.has_header = true } in
  let element = Typeinfer.of_csv ~config contents in
  register_csv t ~name ~config ~element ~contents ();
  element

let register_json_file t ~name ~element ~path =
  register t
    (Dataset.make ~name ~format:Dataset.Json ~location:(Dataset.File path) ~element)

let register_rows t ~name ~element records =
  let schema = Schema.of_type element in
  register t
    (Dataset.make ~name ~format:Dataset.Binary_row
       ~location:(Dataset.Rows (Rowpage.of_records schema records))
       ~element)

let register_columns t ~name ~element cols =
  register t
    (Dataset.make ~name ~format:Dataset.Binary_column ~location:(Dataset.Columns cols)
       ~element)

let register_columns_of t ~name ~element records =
  let schema = Schema.of_type element in
  let cols =
    List.map
      (fun (f : Schema.field) ->
        ( f.name,
          Column.of_values f.ty
            (List.map
               (fun r ->
                 match Value.field_opt r f.name with Some v -> v | None -> Value.Null)
               records) ))
      (Schema.fields schema)
  in
  register_columns t ~name ~element cols

let drop t name =
  Catalog.remove t.catalog name;
  invalidate t name

let append t ~name contents =
  let d = Catalog.find t.catalog name in
  let blob =
    match d.Dataset.location with
    | Dataset.Blob b -> b
    | Dataset.File path ->
      (* pull the file through the memory manager once, then keep the
         appended image as a blob under the same name *)
      let current = Memory.load_file (Catalog.memory t.catalog) path in
      Memory.register_blob (Catalog.memory t.catalog) ~name:path current;
      path
    | Dataset.Rows _ | Dataset.Columns _ ->
      Perror.plan_error "dataset %s has no appendable byte image" name
  in
  let mem = Catalog.memory t.catalog in
  let current = Memory.contents mem blob in
  (* appended CSV rows start a row of their own: a last row without its
     terminator would otherwise absorb the first appended one *)
  let sep =
    match d.Dataset.format with
    | Dataset.Csv _
      when contents <> "" && current <> "" && current.[String.length current - 1] <> '\n' ->
      "\n"
    | _ -> ""
  in
  Memory.register_blob mem ~name:blob (String.concat "" [ current; sep; contents ]);
  (* extend what was derived from the unchanged prefix; rebuild only when
     the appended bytes break it *)
  let extended =
    Registry.extend t.registry name ~tail:(fun source ~from ->
        Manager.extend_dataset t.cache ~dataset:name ~source ~from)
  in
  invalidate ~extended t name

(* {2 Shard sets} *)

let register_shard_set t ~name ~members =
  Registry.register_shard_set t.registry ~name ~members;
  invalidate t name

let add_shard t ~name ~member =
  Registry.add_shard t.registry ~name ~member;
  invalidate t name

let shard_member_name name i = Fmt.str "%s__s%d" name i

(* Register each part as member [name__s<i>], then the shard set. *)
let register_members t ~name register parts =
  register_shard_set t ~name
    ~members:
      (List.mapi
         (fun i part ->
           let m = shard_member_name name i in
           register m part;
           m)
         parts)

let register_sharded_csv t ~name ?config ~element ~shards () =
  register_members t ~name
    (fun m contents -> register_csv t ~name:m ?config ~element ~contents ())
    shards

let register_sharded_json t ~name ~element ~shards =
  register_members t ~name
    (fun m contents -> register_json t ~name:m ~element ~contents)
    shards

(* Contiguous n-way split, sizes differing by at most one (the leading
   chunks take the remainder), preserving record order — so the
   concatenated shard set enumerates exactly the input sequence. *)
let chunks n l =
  let len = List.length l in
  let n = max 1 (min n (max 1 len)) in
  let base = len / n and extra = len mod n in
  let rec take k acc l =
    if k = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: r -> take (k - 1) (x :: acc) r
  in
  let rec go i l =
    if i = n then []
    else
      let sz = base + if i < extra then 1 else 0 in
      let part, rest = take sz [] l in
      part :: go (i + 1) rest
  in
  go 0 l

let register_sharded_rows t ~name ~element ~shards records =
  register_members t ~name
    (fun m part -> register_rows t ~name:m ~element part)
    (chunks shards records)

(* Column resolution against registered schemas: a column belongs to the
   unique table alias whose dataset's element type has a field of that
   name. *)
let resolver t : Proteus_lang.Sql.resolver =
 fun ~aliases ~column ->
  let owners =
    List.filter
      (fun (_, ds) ->
        match Catalog.find_opt t.catalog ds with
        | Some d -> (
          match d.Dataset.element with
          | Ptype.Record fields -> List.mem_assoc column fields
          | _ -> false)
        | None -> false)
      aliases
  in
  match owners with
  | [ (alias, _) ] -> Some alias
  | [] | _ :: _ :: _ -> ( match aliases with [ (a, _) ] -> Some a | _ -> None)

(* The one unbound-parameter check: an engine run over a dangling
   [Expr.Param] would read [Value.Null] from its unset slot, a silent wrong
   answer. *)
let reject_unbound = function
  | [] -> ()
  | p :: _ -> Perror.plan_error "unbound parameter ?%s" p

let bind_all params plan =
  let plan = if params = [] then plan else Proteus_algebra.Analysis.bind_params params plan in
  reject_unbound (Proteus_algebra.Analysis.params plan);
  plan

let run_plan ?(engine = Executor.Engine_compiled) ?domains ?batch_size ?(optimize = true)
    ?(params = []) t plan =
  let plan = bind_all params plan in
  let plan = if optimize then Proteus_optimizer.Optimizer.optimize t.catalog plan else plan in
  Executor.run ?batch_size ?domains t.registry ~engine plan

let of_calc t calc = Proteus_optimizer.Optimizer.plan_of_calculus t.catalog calc

(* ORDER BY / LIMIT: the calculus is a bag world, so ordering applies as a
   Sort operator over the translated plan. Keys naming output columns read
   the root binding's record; other key expressions are computed alongside
   the select list as hidden fields and projected away again. *)
let wrap_ordering t (stmt : Proteus_lang.Sql.statement) =
  let plan = of_calc t stmt.Proteus_lang.Sql.body in
  (* HAVING: a selection over the grouped output records *)
  let plan =
    match stmt.Proteus_lang.Sql.having, plan with
    | None, _ -> plan
    | Some pred, Proteus_algebra.Plan.Nest { keys; aggs; binding; _ } ->
      let names =
        List.map fst keys
        @ List.map (fun (a : Proteus_algebra.Plan.agg) -> a.agg_name) aggs
      in
      let resolved =
        List.fold_left
          (fun e n ->
            if List.mem n names then Expr.subst n (Expr.path binding [ n ]) e else e)
          pred (Expr.free_vars pred)
      in
      Proteus_algebra.Plan.select resolved plan
    | Some _, _ -> Perror.plan_error "HAVING requires GROUP BY"
  in
  match stmt.Proteus_lang.Sql.order_by, stmt.Proteus_lang.Sql.limit with
  | [], None -> plan
  | order_by, limit -> (
    let module Plan = Proteus_algebra.Plan in
    let sort_over ~binding ~names input rebuild =
      (* resolve each key: output-column marker or hidden computed field *)
      let hidden = ref [] in
      let keys =
        List.mapi
          (fun i (e, d) ->
            match e with
            | Expr.Var n when List.mem n names -> (Expr.path binding [ n ], d)
            | e ->
              let h = Fmt.str "__ord%d" i in
              hidden := (h, e) :: !hidden;
              (Expr.path binding [ h ], d))
          order_by
      in
      rebuild (List.rev !hidden) (fun inner -> Plan.sort ?limit ~keys inner) input
    in
    match plan with
    | Plan.Reduce
        {
          monoid_output = [ { monoid = Monoid.Collection Ptype.Bag; expr; _ } ];
          pred;
          input;
        } ->
      (* plain SELECT: stream → project row records → sort *)
      let fields =
        match expr with
        | Expr.Record_ctor fs -> fs
        | e ->
          let last_segment = function
            | Expr.Field (_, n) -> Some n
            | Expr.Var n -> Some n
            | _ -> None
          in
          [ (Option.value (last_segment e) ~default:"value", e) ]
      in
      let names = List.map fst fields in
      let filtered =
        match pred with
        | Expr.Const (Value.Bool true) -> input
        | pred -> Plan.select pred input
      in
      sort_over ~binding:"row" ~names filtered (fun hidden mk_sort inner ->
          let projected =
            Plan.project ~binding:"row" ~fields:(fields @ hidden) inner
          in
          let sorted = mk_sort projected in
          if hidden = [] then sorted
          else
            (* drop the hidden sort keys from the visible output *)
            Plan.project ~binding:"row"
              ~fields:(List.map (fun n -> (n, Expr.path "row" [ n ])) names)
              sorted)
    | Plan.Nest { keys = gkeys; aggs; binding; _ }
    | Plan.Select { input = Plan.Nest { keys = gkeys; aggs; binding; _ }; _ } ->
      let names =
        List.map fst gkeys @ List.map (fun (a : Plan.agg) -> a.agg_name) aggs
      in
      sort_over ~binding ~names plan (fun hidden mk_sort inner ->
          if hidden <> [] then
            Perror.unsupported
              "ORDER BY over a GROUP BY query must reference output columns";
          mk_sort inner)
    | _ ->
      Perror.unsupported "ORDER BY/LIMIT requires a row-returning statement")

let plan_sql t q = wrap_ordering t (Proteus_lang.Sql.parse_statement ~resolve:(resolver t) q)

let plan_comprehension t q = of_calc t (Proteus_lang.Comprehension.parse q)

let sql ?engine ?domains ?batch_size ?params t q =
  run_plan ?engine ?domains ?batch_size ~optimize:false ?params t (plan_sql t q)

type outcome = Proteus_engine.Executor.outcome =
  | Completed of Value.t * Fault.report
  | Failed of Fault.report * exn
  | Timed_out of Fault.report
  | Cancelled of Fault.report

type staleness = Current | Refilled | Moved

type handle = {
  h_reg : Registry.t;
  h_stage : unit -> Proteus_engine.Compiled.bound;
  mutable h_bound : Proteus_engine.Compiled.bound;
  mutable h_unbound : string list;  (* parameters no bind has set yet *)
  mutable h_generation : int;  (* the stamps read before the last staging *)
  mutable h_fills : int;
}

type prepared = { compile_seconds : float; run : unit -> Value.t; handle : handle }

(* The one staleness check. A staged engine bakes in its inputs' layout: a
   generation move means that layout is gone; a fill-stamp move means a
   column it reads raw (and re-fills on every run) may now be cached. *)
let staleness p =
  let h = p.handle in
  if Registry.generation h.h_reg <> h.h_generation then Moved
  else if Registry.fill_stamp h.h_reg <> h.h_fills then Refilled
  else Current

(* Stage again in place: the stamps are read first, so a move racing the
   staging reads as stale next time; bound values carry over. *)
let restage p =
  let h = p.handle in
  let t0 = Unix.gettimeofday () in
  let generation = Registry.generation h.h_reg and fills = Registry.fill_stamp h.h_reg in
  let b = h.h_stage () in
  Proteus_engine.Compiled.bind b
    (List.map (fun (n, v) -> (n, !v)) h.h_bound.Proteus_engine.Compiled.bd_params);
  h.h_bound <- b;
  h.h_generation <- generation;
  h.h_fills <- fills;
  Unix.gettimeofday () -. t0

let run_staged p =
  reject_unbound p.handle.h_unbound;
  p.handle.h_bound.Proteus_engine.Compiled.bd_run ()

let bind p params =
  let h = p.handle in
  Proteus_engine.Compiled.bind h.h_bound params;
  h.h_unbound <- List.filter (fun n -> not (List.mem_assoc n params)) h.h_unbound

let prepare ?(domains = 1) ?batch_size ?(optimize = true) ?(params = []) t plan =
  let t0 = Unix.gettimeofday () in
  let plan = if optimize then Proteus_optimizer.Optimizer.optimize t.catalog plan else plan in
  Proteus_algebra.Plan.validate plan;
  let h_stage () =
    Proteus_engine.Compiled.prepare_bound_par ?batch_size t.registry ~domains plan
  in
  let h_generation = Registry.generation t.registry and h_fills = Registry.fill_stamp t.registry in
  let handle =
    {
      h_reg = t.registry;
      h_stage;
      h_bound = h_stage ();
      h_unbound = Proteus_algebra.Analysis.params plan;
      h_generation;
      h_fills;
    }
  in
  let compile_seconds = Unix.gettimeofday () -. t0 in
  let rec p =
    {
      compile_seconds;
      run =
        (fun () ->
          if staleness p <> Current then ignore (restage p);
          Executor.as_query (fun () -> run_staged p));
      handle;
    }
  in
  bind p params;
  p

let refresh_stats t =
  List.iter
    (fun name ->
      Proteus_catalog.Stats.clear (Catalog.stats t.catalog name);
      Registry.invalidate t.registry name;
      (* re-accessing rebuilds the source and re-collects cold statistics *)
      ignore (Registry.source t.registry name))
    (Catalog.names t.catalog)
