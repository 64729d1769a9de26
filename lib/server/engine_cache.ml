(* The plan-shape engine cache: an LRU of prepared handles
   ([Proteus.Db.prepare]) keyed by what they were staged FOR rather than the
   query text — (plan-shape fingerprint, domain count, batch size).
   [Fingerprint.parameterize] lifts comparison literals into "~k" slots
   before keying, so queries differing only in constants share one handle;
   a hit re-binds the slots and re-runs without re-staging a closure.

   Concurrency protocol (lock order: entry mutex > compile mutex > cache
   mutex — outer locks may take inner ones, never the reverse):
   - [t.compile_mu] serializes optimize/parameterize/stage, re-stages
     included: the registry's lazily-built artifacts (structural indexes,
     cold statistics, source factories) are built from one domain at a time.
   - [t.mu] guards only the table and the counters, and is NEVER held
     across staging or a run, so a hit never waits behind a compile.
   - each entry carries its own run mutex: a staged engine owns cursor
     state and parameter slots, so one handle serves one query at a time.

   Staleness is the handle's own check ([Db.staleness]). A handle whose
   generation moved is dropped at the next lookup, install or [stats] read,
   counted as an invalidation. A handle that only saw a fill install a
   column re-stages in place and stays a hit; a fresh handle whose own run
   filled re-stages before it installs, so its own fill never vetoes it.

   Quarantine (install-on-commit, mirroring the data-cache rule): a fresh
   handle installs only after a clean first run (no errors recorded, no
   abort, generation unmoved meanwhile); a cached handle whose run comes
   back unclean is evicted on the spot. *)

module Db = Proteus.Db

type entry = {
  e_key : string * int * int;  (* shape fingerprint, domains, batch size *)
  e_prepared : Db.prepared;
  e_mu : Mutex.t;  (* one run at a time per handle *)
  mutable e_stamp : int;  (* LRU clock *)
}

type stats = {
  hits : int;
  misses : int;
  installs : int;
  evictions : int;      (* capacity pressure *)
  invalidations : int;  (* entries dropped because the generation moved *)
  poisoned : int;       (* engines dropped because their run was unclean *)
  entries : int;
  compile_seconds : float;  (* cumulative staging time: misses and re-stages *)
}

type t = {
  db : Db.t;
  capacity : int;
  compile_mu : Mutex.t;  (* serializes optimize + stage; never nested inside mu *)
  mu : Mutex.t;
  table : (string * int * int, entry) Hashtbl.t;
  mutable clock : int;
  mutable s : stats;  (* the counters; [entries] is read off the table *)
}

let create ?(capacity = 64) db =
  {
    db;
    capacity = max 1 capacity;
    compile_mu = Mutex.create ();
    mu = Mutex.create ();
    table = Hashtbl.create 64;
    clock = 0;
    s = { hits = 0; misses = 0; installs = 0; evictions = 0; invalidations = 0;
          poisoned = 0; entries = 0; compile_seconds = 0. };
  }

let moved e = Db.staleness e.e_prepared = Db.Moved

(* Drop the handles whose generation moved. Caller holds [t.mu]. *)
let sweep t =
  Hashtbl.filter_map_inplace
    (fun _ e ->
      if moved e then begin
        t.s <- { t.s with invalidations = t.s.invalidations + 1 };
        None
      end
      else Some e)
    t.table

type lease = {
  l_cache : t;
  l_entry : entry;
  l_hit : bool;
  mutable l_compile_seconds : float;
  mutable l_done : bool;
}

let hit l = l.l_hit
let compile_seconds l = l.l_compile_seconds

let add_compile t dt =
  Mutex.protect t.mu (fun () ->
      t.s <- { t.s with compile_seconds = t.s.compile_seconds +. dt })

(* Re-stage a handle that saw a fill install a column since it was staged,
   so it reads the cache; 0 when it is current. The caller holds its run
   mutex, so no session running the old engine sees its slots swapped. *)
let refresh t e =
  if Db.staleness e.e_prepared <> Db.Refilled then 0.
  else Mutex.protect t.compile_mu (fun () -> Db.restage e.e_prepared)

(* [acquire t plan] — [plan] is unoptimized and bound ([Db.bind_all]); a
   parameter left in it stays unbound and fails the run. Returns a lease
   holding the entry's run mutex; the caller MUST [release] it (clean or
   not) when the run ends. *)
let acquire t ?(domains = 1) ?batch_size plan =
  let batch = Option.value batch_size ~default:Proteus_engine.Compiled.default_batch_size in
  let entry, hit, staged, consts =
    Mutex.protect t.compile_mu (fun () ->
        let plan = Proteus_optimizer.Optimizer.optimize (Db.catalog t.db) plan in
        let pplan, consts = Proteus_algebra.Fingerprint.parameterize plan in
        let key = (Proteus_algebra.Fingerprint.plan pplan, domains, batch) in
        let cached =
          Mutex.protect t.mu (fun () ->
              sweep t;
              let cached = Hashtbl.find_opt t.table key in
              (match cached with
              | Some e ->
                t.s <- { t.s with hits = t.s.hits + 1 };
                t.clock <- t.clock + 1;
                e.e_stamp <- t.clock
              | None -> t.s <- { t.s with misses = t.s.misses + 1 });
              cached)
        in
        match cached with
        | Some e -> (e, true, 0., consts)
        | None ->
          let p = Db.prepare ~domains ~batch_size:batch ~optimize:false t.db pplan in
          ( { e_key = key; e_prepared = p; e_mu = Mutex.create (); e_stamp = 0 },
            false,
            p.Db.compile_seconds,
            consts ))
  in
  Mutex.lock entry.e_mu;
  let dt =
    match staged +. refresh t entry with
    | dt -> dt
    | exception ex ->
      Mutex.unlock entry.e_mu;
      raise ex
  in
  add_compile t dt;
  (* the slots may still hold the previous session's constants *)
  Db.bind entry.e_prepared consts;
  { l_cache = t; l_entry = entry; l_hit = hit; l_compile_seconds = dt; l_done = false }

let run l = Db.run_staged l.l_entry.e_prepared

let release l ~clean =
  if not l.l_done then begin
    l.l_done <- true;
    let t = l.l_cache and e = l.l_entry in
    (* a clean fresh handle whose own run installed columns re-stages
       before it installs, so its first hit reads the cache *)
    let clean =
      clean
      && (l.l_hit
         ||
         match refresh t e with
         | dt ->
           l.l_compile_seconds <- l.l_compile_seconds +. dt;
           add_compile t dt;
           true
         | exception _ -> false)
    in
    Mutex.lock t.mu;
    (if l.l_hit then begin
       if not clean then
         match Hashtbl.find_opt t.table e.e_key with
         | Some cur when cur == e ->
           Hashtbl.remove t.table e.e_key;
           t.s <- { t.s with poisoned = t.s.poisoned + 1 }
         | _ -> ()
     end
     else if clean && (not (moved e)) && not (Hashtbl.mem t.table e.e_key)
     then begin
       sweep t;
       t.clock <- t.clock + 1;
       e.e_stamp <- t.clock;
       Hashtbl.replace t.table e.e_key e;
       t.s <- { t.s with installs = t.s.installs + 1 };
       (* one install overflows by at most one: evict the least recent *)
       if Hashtbl.length t.table > t.capacity then begin
         let v = Hashtbl.fold (fun _ x v -> if x.e_stamp < v.e_stamp then x else v) t.table e in
         Hashtbl.remove t.table v.e_key;
         t.s <- { t.s with evictions = t.s.evictions + 1 }
       end
     end
     else if not clean then t.s <- { t.s with poisoned = t.s.poisoned + 1 });
    Mutex.unlock t.mu;
    Mutex.unlock e.e_mu
  end

let stats t =
  Mutex.protect t.mu (fun () ->
      sweep t;
      { t.s with entries = Hashtbl.length t.table })

let pp_stats ppf s =
  Fmt.pf ppf
    "hits=%d misses=%d installs=%d evictions=%d invalidations=%d poisoned=%d \
     entries=%d compile_ms=%.3f"
    s.hits s.misses s.installs s.evictions s.invalidations s.poisoned s.entries
    (1000. *. s.compile_seconds)
