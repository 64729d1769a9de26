(* The plan-shape engine cache: compiled engines keyed by what they were
   staged FOR rather than the query text — (plan-shape fingerprint, domain
   count, batch size). [Fingerprint.parameterize] lifts comparison literals
   into "~k" slots before keying, so queries differing only in constants
   share one compiled engine; a lookup hit re-binds the slots to the new
   constants and re-runs without re-staging a single closure.

   Concurrency protocol (lock order: compile mutex > entry mutex > cache
   mutex — outer locks may take inner ones, never the reverse):
   - [t.compile_mu] serializes the whole optimize/parameterize/stage path:
     the registry's lazily-built artifacts (structural indexes, cold
     statistics, source factories) are never built from two domains at
     once.
   - [t.mu] guards only the table and the counters, and is NEVER held
     across staging or a run, so a hit never waits behind a compile.
   - each entry carries its own run mutex: a compiled engine owns cursor
     state and parameter slots, so one engine serves one query at a time;
     a second session hitting the same shape blocks on the entry, not on
     the cache.

   Staleness: an engine bakes in its inputs' layout, so it serves only the
   registry generation it was staged under (every register, drop, append,
   shard change, promotion and [set_caching] moves it). The table holds
   engines of one generation, [t.swept]; the first lookup, install or
   [stats] read that sees the generation move drops them all, counted as
   invalidations.

   Quarantine (install-on-commit, mirroring the data-cache rule): a fresh
   compile is NOT installed at stage time. The caller runs it first and
   releases the lease with [~clean] reflecting the outcome; only a clean
   run (no errors recorded, no abort, generation unmoved meanwhile)
   installs the engine for reuse. A cached engine whose run comes back
   unclean is evicted on the spot — degraded runs never poison later
   sessions. *)

open Proteus_model
module Plan = Proteus_algebra.Plan
module Analysis = Proteus_algebra.Analysis
module Fingerprint = Proteus_algebra.Fingerprint
module Compiled = Proteus_engine.Compiled
module Registry = Proteus_plugin.Registry

type key = { k_shape : string; k_domains : int; k_batch : int }

type entry = {
  e_key : key;
  e_bound : Compiled.bound;
  e_generation : int;  (* registry generation the engine was staged under *)
  e_mu : Mutex.t;  (* one run at a time per engine *)
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
  compile_seconds : float;  (* cumulative staging time across misses *)
}

type t = {
  db : Proteus.Db.t;
  capacity : int;
  compile_mu : Mutex.t;  (* serializes optimize + stage; never nested inside mu *)
  mu : Mutex.t;
  table : (key, entry) Hashtbl.t;
  mutable swept : int;  (* the generation every resident entry was staged under *)
  mutable clock : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_installs : int;
  mutable c_evictions : int;
  mutable c_invalidations : int;
  mutable c_poisoned : int;
  mutable c_compile : float;
}

let create ?(capacity = 64) db =
  let t =
    {
      db;
      capacity = max 1 capacity;
      compile_mu = Mutex.create ();
      mu = Mutex.create ();
      table = Hashtbl.create 64;
      swept = Registry.generation (Proteus.Db.registry db);
      clock = 0;
      c_hits = 0;
      c_misses = 0;
      c_installs = 0;
      c_evictions = 0;
      c_invalidations = 0;
      c_poisoned = 0;
      c_compile = 0.;
    }
  in
  t

(* The current registry generation, after dropping the entries of an older
   one. Caller holds [t.mu]. *)
let sweep t =
  let gen = Registry.generation (Proteus.Db.registry t.db) in
  if gen <> t.swept then begin
    t.c_invalidations <- t.c_invalidations + Hashtbl.length t.table;
    Hashtbl.clear t.table;
    t.swept <- gen
  end;
  gen

type lease = {
  l_cache : t;
  l_entry : entry;
  l_hit : bool;
  l_compile_seconds : float;
  mutable l_done : bool;
}

let hit l = l.l_hit
let compile_seconds l = l.l_compile_seconds

(* [acquire t plan] — [plan] is unoptimized and fully bound (no user
   parameters left). Returns a lease holding the entry's run mutex; the
   caller MUST [release] it (clean or not) when the run ends. *)
let acquire t ?(domains = 1) ?batch_size plan =
  (match Analysis.params plan with
  | [] -> ()
  | p :: _ ->
    Perror.plan_error "engine cache: unbound parameter ?%s in plan" p);
  let batch =
    match batch_size with Some b -> b | None -> Compiled.default_batch_size
  in
  let reg = Proteus.Db.registry t.db in
  Mutex.lock t.compile_mu;
  let lease, consts =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.compile_mu)
      (fun () ->
        let plan =
          Proteus_optimizer.Optimizer.optimize (Proteus.Db.catalog t.db) plan
        in
        Plan.validate plan;
        let pplan, consts = Fingerprint.parameterize plan in
        let key =
          { k_shape = Fingerprint.plan pplan; k_domains = domains; k_batch = batch }
        in
        (* the generation is read BEFORE staging, so a move racing the
           compile or the first run vetoes the install *)
        Mutex.lock t.mu;
        let gen = sweep t in
        let cached = Hashtbl.find_opt t.table key in
        (match cached with
        | Some e ->
          t.c_hits <- t.c_hits + 1;
          t.clock <- t.clock + 1;
          e.e_stamp <- t.clock
        | None -> t.c_misses <- t.c_misses + 1);
        Mutex.unlock t.mu;
        let entry, was_hit, dt =
          match cached with
          | Some e -> (e, true, 0.)
          | None ->
            let t0 = Unix.gettimeofday () in
            let bound = Compiled.prepare_bound_par ~batch_size:batch reg ~domains pplan in
            let dt = Unix.gettimeofday () -. t0 in
            Mutex.lock t.mu;
            t.c_compile <- t.c_compile +. dt;
            Mutex.unlock t.mu;
            ( { e_key = key; e_bound = bound; e_generation = gen; e_mu = Mutex.create ();
                e_stamp = 0 },
              false,
              dt )
        in
        ( { l_cache = t; l_entry = entry; l_hit = was_hit; l_compile_seconds = dt;
            l_done = false },
          consts ))
  in
  Mutex.lock lease.l_entry.e_mu;
  (* the engine's slots may still hold the previous session's constants *)
  Compiled.bind lease.l_entry.e_bound consts;
  lease

let run l = l.l_entry.e_bound.Compiled.bd_run ()

let release l ~clean =
  if not l.l_done then begin
    l.l_done <- true;
    let t = l.l_cache and e = l.l_entry in
    Mutex.lock t.mu;
    (if l.l_hit then begin
       if not clean then
         match Hashtbl.find_opt t.table e.e_key with
         | Some cur when cur == e ->
           Hashtbl.remove t.table e.e_key;
           t.c_poisoned <- t.c_poisoned + 1
         | _ -> ()
     end
     else if clean && e.e_generation = sweep t && not (Hashtbl.mem t.table e.e_key)
     then begin
       t.clock <- t.clock + 1;
       e.e_stamp <- t.clock;
       Hashtbl.replace t.table e.e_key e;
       t.c_installs <- t.c_installs + 1;
       while Hashtbl.length t.table > t.capacity do
         let victim =
           Hashtbl.fold
             (fun _ e acc ->
               match acc with
               | Some v when v.e_stamp <= e.e_stamp -> acc
               | _ -> Some e)
             t.table None
         in
         match victim with
         | Some v ->
           Hashtbl.remove t.table v.e_key;
           t.c_evictions <- t.c_evictions + 1
         | None -> ()
       done
     end
     else if not clean then t.c_poisoned <- t.c_poisoned + 1);
    Mutex.unlock t.mu;
    Mutex.unlock e.e_mu
  end

let stats t =
  Mutex.lock t.mu;
  ignore (sweep t);
  let s =
    {
      hits = t.c_hits;
      misses = t.c_misses;
      installs = t.c_installs;
      evictions = t.c_evictions;
      invalidations = t.c_invalidations;
      poisoned = t.c_poisoned;
      entries = Hashtbl.length t.table;
      compile_seconds = t.c_compile;
    }
  in
  Mutex.unlock t.mu;
  s

let pp_stats ppf s =
  Fmt.pf ppf
    "hits=%d misses=%d installs=%d evictions=%d invalidations=%d poisoned=%d \
     entries=%d compile_ms=%.3f"
    s.hits s.misses s.installs s.evictions s.invalidations s.poisoned s.entries
    (1000. *. s.compile_seconds)
