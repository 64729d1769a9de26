(* Shard sets: a dataset scanned as the concatenation of its members'
   views. The source catalog knows a shard parent only as an entry whose
   views this module's builder makes from its members; here live the
   concatenated views, the layout the engine prunes against, the
   per-member pruning digests and the resilience ladder (breaker, hedge,
   retry budget) every member build runs through. *)

open Proteus_model
open Proteus_catalog
module R = Proteus_resilience

(* Offsets are assigned in member order, so the concatenated view
   enumerates rows exactly as one file holding the shards in sequence
   would: the root of the sharded == single-file bit-identity contract. *)
type shard_info = { sh_member : string; sh_offset : int; sh_rows : int }

(* A zone map with one zone over the member's rows, and a Bloom filter
   over its non-null values' keys (DESIGN.md section 17). *)
type shard_digest = {
  sd_zones : Proteus_storage.Zonemap.t;
  sd_bloom : Proteus_storage.Bloom.t;
}

type state = {
  mu : Mutex.t;  (* guards the tables: arms and member builds run concurrently *)
  layouts : (string, shard_info array) Hashtbl.t;
      (* per parent, refreshed on every build of its views, so layouts
         track member heal/degrade transitions *)
  digests : (string, (string, shard_digest) Hashtbl.t) Hashtbl.t;
      (* per member, then path; failures are not memoized *)
  breakers : (string, R.Breaker.t) Hashtbl.t;
      (* per-member circuit state, cleared on member re-registration *)
  mutable retry : R.Policy.t;
      (* member-build retry budget; the default preserves the original
         "rebuild once from scratch" contract *)
  mutable hedge : R.Hedge.t option;  (* straggler hedging; [None] = off *)
  mutable breaker_cfg : R.Breaker.config;
}

type t = state Source_catalog.t

let create ?cache catalog =
  Source_catalog.create ?cache catalog
    ~shards:
      {
        mu = Mutex.create ();
        layouts = Hashtbl.create 4;
        digests = Hashtbl.create 16;
        breakers = Hashtbl.create 8;
        retry = R.Policy.default;
        hedge = None;
        breaker_cfg = R.Breaker.default_config;
      }

let locked (t : t) f = Mutex.protect t.shards.mu f

(* What an update of [name] stales here: its digests, its layout when it
   is a parent, and its parents' layouts. *)
let forget t name =
  let stale = name :: Source_catalog.derived_from t name in
  locked t (fun () ->
      List.iter (fun n -> Hashtbl.remove t.shards.digests n; Hashtbl.remove t.shards.layouts n) stale)

(* An update that keeps the breaker: the retry path drops a member this
   way, so its consecutive failures still accumulate. *)
let drop t name =
  Source_catalog.invalidate t name;
  forget t name

(* --- concatenated views ---------------------------------------------------- *)

(* Merge per-member accessors for one path into one accessor dispatched on
   the concat cursor. A typed lane survives when every member has the same
   lane (else the path falls back to boxed dispatch, which is always
   available); its fill survives when every member has one, and routes
   each run of the (ascending) selection vector to the member owning those
   rows. Unnest element fields have no fills, so none is merged for them.
   Dictionary metadata never merges: codes are private to each member's
   cache column. *)
let merged_access ~cur ~locate ~(offsets : int array) (accs : Access.t array) : Access.t =
  let merge (rs : _ Access.reader array) : _ Access.reader =
    let gets = Array.map (fun r -> r.Access.get) rs in
    let fill =
      if Array.exists (fun r -> r.Access.fill = None) rs then None
      else
        let fs = Array.map (fun r -> Option.get r.Access.fill) rs in
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
    { Access.get = (fun () -> gets.(!cur) ()); fill }
  in
  (* [all lane_of] merges the members' readers when every lane matches *)
  let all lane_of =
    let rs = Array.map (fun a -> lane_of a.Access.lane) accs in
    if Array.for_all Option.is_some rs then Some (merge (Array.map Option.get rs)) else None
  in
  let lane =
    match accs.(0).Access.lane with
    | Access.Int _ ->
      Option.map (fun r -> Access.Int r) (all (function Access.Int r -> Some r | _ -> None))
    | Access.Date _ ->
      Option.map (fun r -> Access.Date r) (all (function Access.Date r -> Some r | _ -> None))
    | Access.Float _ ->
      Option.map (fun r -> Access.Float r) (all (function Access.Float r -> Some r | _ -> None))
    | Access.Bool _ ->
      Option.map (fun r -> Access.Bool r) (all (function Access.Bool r -> Some r | _ -> None))
    | Access.Str _ ->
      Option.map (fun r -> Access.Str r) (all (function Access.Str r -> Some r | _ -> None))
    | Access.Boxed -> None
  in
  match lane with
  | Some lane ->
    let null =
      if Array.for_all (fun a -> a.Access.null = None) accs then None
      else
        let fs = Array.map (fun a -> a.Access.null) accs in
        Some (fun () -> match fs.(!cur) with Some f -> f () | None -> false)
    in
    Access.prim ?null lane
  | None ->
    let nullable =
      Array.exists (fun a -> match a.Access.ty with Ptype.Option _ -> true | _ -> false) accs
    in
    let base_ty = Ptype.unwrap_option accs.(0).Access.ty in
    let get_vals = Array.map (fun a -> a.Access.get_val) accs in
    Access.boxed
      (if nullable then Ptype.Option base_ty else base_ty)
      (fun () -> get_vals.(!cur) ())

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
    merged_access ~cur ~locate ~offsets
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
              merged_access ~cur ~locate ~offsets
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

(* --- the member ladder ------------------------------------------------------ *)

(* The member breaker, created on first use. *)
let breaker (t : t) name =
  locked t (fun () ->
      match Hashtbl.find_opt t.shards.breakers name with
      | Some b -> b
      | None ->
        let b = R.Breaker.create ~config:t.shards.breaker_cfg () in
        Hashtbl.replace t.shards.breakers name b;
        b)

let reset_breaker (t : t) name = locked t (fun () -> Hashtbl.remove t.shards.breakers name)

(* One member view for the scatter, through the resilience ladder:

   1. the breaker: an open member is skipped immediately (degraded to an
      empty shard with one recorded skip under Skip_row/Null_fill, a
      fast failure under Fail_fast) instead of re-paying its failure;
   2. the hedge (when configured, and only under Fail_fast — degraded
      policies record per-row errors into shared cells, and a speculative
      duplicate would double-account them);
   3. the retry budget: recoverable build failures are re-attempted with
      backoff, dropping the member's entry before each retry.

   Budget-exhausted recoverable failures feed the breaker; any success
   closes it. Failures are never memoized: the catalog installs an entry
   only once its build succeeded. *)
let build_member (t : t) ~element m =
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
         { what = "shard:" ^ m; pos = -1; msg = "member unavailable: circuit breaker open" })
  | R.Breaker.Proceed -> (
    let budgeted () =
      R.Policy.run t.shards.retry ~retryable:Fault.recoverable
        ~on_retry:(fun ~attempt:_ _ ->
          Tally.add_shards_retried 1;
          drop t m)
        (fun _ -> Source_catalog.factory t m ())
    in
    let build =
      match t.shards.hedge with
      | Some h when Fault.policy () = Fault.Fail_fast -> fun () -> R.Hedge.run h ~key:m budgeted
      | _ -> budgeted
    in
    match build () with
    | v ->
      R.Breaker.success br;
      v
    | exception e when Fault.recoverable e ->
      R.Breaker.failure br;
      degrade e)

(* The parent's views: each call stamps out fresh member views (cheap —
   heavy artifacts stay in the members' entries) and concatenates them,
   refreshing the layout so it describes the very views the engine just
   got. *)
let parent_views (t : t) name members () =
  let element = (Catalog.find (Source_catalog.catalog t) name).Dataset.element in
  let members = Array.of_list members in
  let views = Array.map (build_member t ~element) members in
  let off = ref 0 in
  let layout =
    Array.mapi
      (fun i (v : Source.t) ->
        off := !off + v.count;
        { sh_member = members.(i); sh_offset = !off - v.count; sh_rows = v.count })
      views
  in
  locked t (fun () -> Hashtbl.replace t.shards.layouts name layout);
  concat_source ~element views

(* --- updates and resilience configuration ----------------------------------- *)

(* Re-registration and updates: the entry plus the breaker — a
   re-registered member starts with a clean circuit, which is how a healed
   source comes back before its cooldown expires. *)
let invalidate t name =
  drop t name;
  reset_breaker t name

let extend t name ~tail =
  reset_breaker t name;
  let extended = Source_catalog.extend t name ~tail in
  forget t name;
  extended

let set_retry_policy (t : t) p = t.shards.retry <- p

let set_hedge (t : t) h = t.shards.hedge <- h

(* existing breakers keep their old config; drop them so the next
   admission creates fresh ones under the new thresholds *)
let set_breaker_config (t : t) cfg =
  t.shards.breaker_cfg <- cfg;
  locked t (fun () -> Hashtbl.reset t.shards.breakers)

let breaker_states (t : t) =
  locked t (fun () ->
      Hashtbl.fold (fun m b acc -> (m, R.Breaker.state b) :: acc) t.shards.breakers [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let breaker_blocked (t : t) name =
  match locked t (fun () -> Hashtbl.find_opt t.shards.breakers name) with
  | None -> false
  | Some b -> R.Breaker.blocking b

(* --- shard sets -------------------------------------------------------------- *)

let shard_parents = Source_catalog.derived_from

(* Make [name] the shard set over [members]: its entry's views are their
   concatenation, and an update of a member drops it. *)
let derive t name members =
  Source_catalog.derive t name ~inputs:members (parent_views t name members);
  invalidate t name

(* Register [name] as a shard set over already-registered [members]. The
   parent gets its own catalog entry (element = the members' common
   element; the location is a deliberately unresolvable blob so any path
   that tries to read the parent as one byte image fails loudly instead
   of silently reading nothing). Shard sets are append-only: immutable
   members plus [add_shard]. *)
let register_shard_set t ~name ~members =
  if members = [] then Perror.plan_error "shard set %s needs at least one member" name;
  let catalog = Source_catalog.catalog t in
  let ds =
    List.map
      (fun m ->
        if String.equal m name then Perror.plan_error "shard set %s cannot contain itself" name;
        Catalog.find catalog m)
      members
  in
  let first = List.hd ds in
  List.iter
    (fun (d : Dataset.t) ->
      if d.element <> first.Dataset.element then
        Perror.plan_error "shard set %s: member %s has element type %a, expected %a" name d.name
          Ptype.pp d.element Ptype.pp first.Dataset.element)
    ds;
  Catalog.register catalog
    (Dataset.make ~name ~format:first.Dataset.format
       ~location:(Dataset.Blob (name ^ "\x00shards"))
       ~element:first.Dataset.element);
  derive t name members

let add_shard t ~name ~member =
  match Source_catalog.inputs t name with
  | None -> Perror.plan_error "%s is not a shard set" name
  | Some members ->
    let catalog = Source_catalog.catalog t in
    let d = Catalog.find catalog member in
    if d.Dataset.element <> (Catalog.find catalog name).Dataset.element then
      Perror.plan_error "shard %s: element type %a does not match set %s" member Ptype.pp
        d.Dataset.element name;
    derive t name (members @ [ member ])

(* The shard layout the engine prunes against: present once the parent
   view has been built (building it on demand here keeps callers simple).
   Returns [None] for ordinary datasets. *)
let shards t name =
  if Source_catalog.inputs t name = None then None
  else begin
    if locked t (fun () -> not (Hashtbl.mem t.shards.layouts name)) then
      ignore (Source_catalog.source t name);
    locked t (fun () -> Hashtbl.find_opt t.shards.layouts name)
  end

(* Build the pruning digest for one (member, path) from one read of its
   column over a private member view. Any failure (missing or
   non-primitive path, parse error, degraded member) yields [None] —
   pruning simply stands down for that shard — and is not memoized, so a
   healed member gets a digest on the next query. A column no zone map
   describes (booleans, no rows) has no digest either. *)
let shard_digest (t : t) ~member ~path =
  (* the member's table as of now: a digest built while an update of the
     member forgets the table lands in the forgotten one *)
  let memo =
    locked t (fun () ->
        match Hashtbl.find_opt t.shards.digests member with
        | Some m -> m
        | None ->
          let m = Hashtbl.create 4 in
          Hashtbl.replace t.shards.digests member m;
          m)
  in
  match locked t (fun () -> Hashtbl.find_opt memo path) with
  | Some _ as dg -> dg
  | None ->
    let dg =
      match
        let src = Source_catalog.factory t member () in
        Scans.read_column src path ~lo:0 ~hi:src.Source.count
      with
      | exception e when Fault.recoverable e -> None
      | exception (Perror.Plan_error _ | Perror.Type_error _) -> None
      | col ->
        Option.map
          (fun sd_zones -> { sd_zones; sd_bloom = Proteus_storage.Bloom.of_column col })
          (Proteus_storage.Zonemap.of_column ~zone:(Proteus_storage.Column.length col) col)
    in
    Option.iter (fun dg -> locked t (fun () -> Hashtbl.replace memo path dg)) dg;
    dg
