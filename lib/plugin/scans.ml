(* Scans: the cache-aware scan over one dataset's views, the fill
   sessions that materialize cache columns on the morsel spine, and the
   one range reader behind slot columns, shard digests and append tails. *)

open Proteus_model
open Proteus_catalog
open Source_catalog

(* --- column reads ----------------------------------------------------------- *)

(* A column filler: [f b ~base ~sel ~n] appends the values of rows
   [base + sel.(0..n-1)] to [b]. A non-nullable typed lane gathers through
   its fill into a scratch array — the plug-in reads rows by OID, or
   through its own cursor — and appends the gathered prefix; nullable and
   boxed paths [seek] per selected row and append the boxed value. *)
let filler ~seek (access : Access.t) =
  let module B = Proteus_storage.Column.Builder in
  let gather (f : _ Access.fill) zero add =
    let scratch = ref [||] in
    fun b ~base ~sel ~n ->
      let need = sel.(n - 1) + 1 in
      if Array.length !scratch < need then scratch := Array.make (max need 1024) zero;
      f base !scratch ~sel ~n;
      let out = !scratch in
      for i = 0 to n - 1 do
        add b out.(sel.(i))
      done
  in
  match access.Access.null, access.Access.lane with
  | None, (Access.Int { fill = Some f; _ } | Access.Date { fill = Some f; _ }) ->
    gather f 0 B.add_int
  | None, Access.Float { fill = Some f; _ } -> gather f 0. B.add_float
  | None, Access.Bool { fill = Some f; _ } -> gather f false B.add_bool
  | None, Access.Str { fill = Some f; _ } -> gather f "" B.add_string
  | _ ->
    fun b ~base ~sel ~n ->
      for i = 0 to n - 1 do
        seek (base + sel.(i));
        B.add_value b (access.Access.get_val ())
      done

(* Rows [\[lo, hi)] of [path] as one column, read 1024 rows at a time
   through {!filler} (checking cancellation per batch). The one range
   reader behind shard digests, slot columns and append tails. *)
let read_column (src : Source.t) path ~lo ~hi =
  let access = src.Source.field path in
  let b = Proteus_storage.Column.Builder.create access.Access.ty in
  let fill = filler ~seek:src.Source.seek access in
  let sel = Array.init 1024 Fun.id in
  let rec go base =
    if base < hi then begin
      Fault.check_cancel ();
      let n = min 1024 (hi - base) in
      fill b ~base ~sel ~n;
      go (base + n)
    end
  in
  go lo;
  Proteus_storage.Column.Builder.finish b

(* --- segmented cache fills ------------------------------------------------ *)

(* A fill session is the unit of install-on-commit cache materialization
   for one dataset scan: fleet workers fill per-range segments (private
   column builders keyed by their start row), and a clean run commits them
   in start order with one [Array.blit] each, so the installed columns are
   bit-identical at any domain count and batch size (DESIGN.md section 10). *)
type fill_session = {
  fs_dataset : string;
  fs_bias : Proteus_storage.Memory.Arena.bias;
  fs_paths : (string * Ptype.t) list;  (* elected fill paths, in required order *)
  fs_cache : unit -> Cache_iface.t;
  fs_fills : int Atomic.t;  (* the registry's fill stamp *)
  fs_lock : Mutex.t;  (* guards fs_segs: one lock per segment open, not per row *)
  mutable fs_segs : (int * Proteus_storage.Column.Builder.t list) list;
  mutable fs_e0 : int;  (* the query's error count at arm time *)
}

let session_arm s =
  Mutex.protect s.fs_lock (fun () ->
      s.fs_segs <- [];
      s.fs_e0 <- Fault.query_errors ())

(* Open one segment starting at row [start]: fresh builders (one per elected
   path, in [fs_paths] order), registered so commit/release can see them.
   Each range or batch is scanned by exactly one worker, so start keys are
   unique and ascending-sort reproduces the serial row order. *)
let session_open s ~start =
  let builders =
    List.map (fun (_, ty) -> Proteus_storage.Column.Builder.create ty) s.fs_paths
  in
  Mutex.protect s.fs_lock (fun () -> s.fs_segs <- (start, builders) :: s.fs_segs);
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
  Mutex.protect s.fs_lock (fun () -> s.fs_segs <- []);
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
    let installed =
      List.mapi
        (fun i (path, ty) ->
          let col = Builder.concat ty (List.map (fun (_, bs) -> List.nth bs i) segs) in
          cache.Cache_iface.store_field ~dataset:s.fs_dataset ~path ~bias:s.fs_bias col)
        s.fs_paths
    in
    if List.mem true installed then Atomic.incr s.fs_fills;
    cache.Cache_iface.note_fill ~dataset:s.fs_dataset ~segments:(List.length segs)
      ~rows
  end

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

(* A promoted JSON path read once through its slot accessors into a cache
   column. Fired from the manager's promotion hook (outside its lock), so
   recoverable failures abandon it without recording faults: the hook may
   run mid-query. Every promotion moves the generation, materialized or
   not: staged engines baked in the pre-promotion layout. *)
let materialize_field t ~dataset ~path =
  Fun.protect ~finally:(fun () -> Atomic.incr t.generation) @@ fun () ->
  match Catalog.find_opt t.catalog dataset with
  | Some d when d.Dataset.format = Dataset.Json -> (
    try
      let ty = Source.field_type d.element path in
      if
        Option.is_none (t.cache.Cache_iface.lookup_field ~dataset ~path)
        && Ptype.is_primitive (Ptype.unwrap_option ty)
        && t.cache.Cache_iface.should_cache_field ~dataset ~path ~ty
             ~rows:(source t dataset).Source.count
      then begin
        let src = fresh_source t dataset in
        let col = read_column src path ~lo:0 ~hi:src.Source.count in
        ignore
          (t.cache.Cache_iface.store_field ~dataset ~path
             ~bias:(Dataset.bias d.Dataset.format) col);
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
                 && t.cache.Cache_iface.should_cache_field ~dataset ~path ~ty
                      ~rows:raw.Source.count ->
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
            fs_fills = t.fills;
            fs_lock = Mutex.create ();
            fs_segs = [];
            fs_e0 = 0;
          }
        in
        (spec, Some s))
  in
  let fillers = List.map (fun (_, _, access) -> filler ~seek access) fills_spec in
  (* Tuple lane: one morsel [lo, hi); with a session it fills one segment
     keyed by [lo] while scanning it. Fills run after the Skip_row probe
     admits the row, so a skip run's segments are compacted (and the error
     delta quarantines them at commit). *)
  let sc_range ~lo ~hi ~on_tuple =
    match sess with
    | Some s ->
      let builders = session_open s ~start:lo in
      (* the cursor's row, as a one-lane batch *)
      let fills = List.map2 (fun f b () -> f b ~base:!oid ~sel:iota ~n:1) fillers builders in
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
