(** A Proteus session: the single query interface over heterogeneous data
    the paper promises.

    Register datasets of any supported format, then ask SQL (flat,
    relational) or comprehension (nested) queries; each query runs through
    the full pipeline — parse → calculus normalization → nested relational
    algebra → rule- and cost-based optimization → cache matching → engine
    generation (closure compilation) → execution — and the session's caching
    manager adapts the storage to the workload as a side effect.

    A query is a plan ({!plan_sql}, {!plan_comprehension} or one built by
    hand) and {!run_plan} runs it; {!prepare} stages it once to run many
    times, and a guarded run is {!Proteus_engine.Executor.query} around a
    plain one.

    {[
      let db = Proteus.Db.create () in
      Proteus.Db.register_json db ~name:"sailors" ~element:... ~contents;
      Proteus.Db.sql db "SELECT COUNT(*) FROM sailors WHERE age > 30";
      Proteus.Db.run_plan ~optimize:false db
        (Proteus.Db.plan_comprehension db "for { s <- sailors } yield sum(s.id)")
    ]} *)

open Proteus_model
open Proteus_storage
open Proteus_catalog

type t

(** [create ()] — [caching] defaults to enabled with the paper's policies;
    [cache_budget] is the arena size in bytes. *)
val create :
  ?cache_budget:int -> ?caching:Proteus_cache.Manager.config -> unit -> t

val catalog : t -> Catalog.t
val registry : t -> Proteus_plugin.Registry.t
val cache_manager : t -> Proteus_cache.Manager.t

(** Snapshot of the session's cache activity — hit/store counts plus the
    segmented-fill totals (commits, segments blit-assembled, rows
    materialized) that show how cold runs populated the caches. *)
val cache_stats : t -> Proteus_cache.Manager.stats

(** Switch caching on/off mid-session (existing caches are kept unless
    [clear] is passed). Moves the registry generation, so prepared
    statements re-stage on their next run and the server's engine cache
    stops serving engines staged against the old cache interface. *)
val set_caching : ?clear:bool -> t -> bool -> unit

(** {1 Dataset registration}

    Every [register_*] function makes [name] a dataset over the given
    bytes, rows or columns. Registering a name again, over new bytes or the
    same ones, drops everything derived from the old registration: the
    structural index and cold statistics, the cached columns with their
    zone maps, projections, access history and promotions, the
    materialized join sides, and the same for every shard set containing
    the name. The next access rebuilds them from the new bytes. *)

val register_csv :
  t ->
  name:string ->
  ?config:Proteus_format.Csv.config ->
  element:Ptype.t ->
  contents:string ->
  unit ->
  unit

val register_csv_file :
  t ->
  name:string ->
  ?config:Proteus_format.Csv.config ->
  element:Ptype.t ->
  path:string ->
  unit ->
  unit

val register_json : t -> name:string -> element:Ptype.t -> contents:string -> unit

(** [register_json_inferred db ~name ~contents] infers the element type
    from the data ({!Typeinfer.of_json}) and returns it. *)
val register_json_inferred : t -> name:string -> contents:string -> Ptype.t

(** [register_csv_inferred db ~name ~contents ()] — the CSV must carry a
    header row; returns the inferred element type. *)
val register_csv_inferred :
  t ->
  name:string ->
  ?config:Proteus_format.Csv.config ->
  contents:string ->
  unit ->
  Ptype.t

val register_json_file : t -> name:string -> element:Ptype.t -> path:string -> unit

(** [register_rows db ~name ~element records] packs boxed records into the
    binary row format. *)
val register_rows : t -> name:string -> element:Ptype.t -> Value.t list -> unit

(** [register_columns db ~name ~element cols] registers binary columns. *)
val register_columns :
  t -> name:string -> element:Ptype.t -> (string * Column.t) list -> unit

(** [register_columns_of db ~name ~element records] builds the columns from
    boxed records. *)
val register_columns_of : t -> name:string -> element:Ptype.t -> Value.t list -> unit

(** {1 Shard sets}

    A dataset may be registered as a {e shard set}: an ordered list of
    member datasets (each its own file and plug-in instance) queried as one
    concatenated table. Scans fan out over shards as the outer dispense
    unit and merge in member order, so results are bit-identical to a
    single file holding the same rows; the engine prunes shards whose
    zone-map/Bloom digests prove a pushed-down conjunct empty (DESIGN.md
    section 14). Re-registering, dropping, or appending to a member
    invalidates every containing shard set's derived structures. *)

(** [register_shard_set db ~name ~members] registers [name] over the
    already-registered [members] (which must share one element type). *)
val register_shard_set : t -> name:string -> members:string list -> unit

(** [add_shard db ~name ~member] appends one more registered dataset to a
    shard set. *)
val add_shard : t -> name:string -> member:string -> unit

(** [register_sharded_csv db ~name ~element ~shards ()] registers each
    contents string in [shards] as a CSV member dataset
    ([name__s0], [name__s1], …) and the shard set [name] over them. *)
val register_sharded_csv :
  t ->
  name:string ->
  ?config:Proteus_format.Csv.config ->
  element:Ptype.t ->
  shards:string list ->
  unit ->
  unit

(** [register_sharded_json db ~name ~element ~shards] — same for JSON
    member contents. *)
val register_sharded_json :
  t -> name:string -> element:Ptype.t -> shards:string list -> unit

(** [register_sharded_rows db ~name ~element ~shards records] splits the
    records into [shards] contiguous binary-row members (sizes differing by
    at most one, order preserved) and registers the shard set. *)
val register_sharded_rows :
  t -> name:string -> element:Ptype.t -> shards:int -> Value.t list -> unit

(** [drop db name] unregisters a dataset and invalidates its indexes and
    caches (the paper's update handling). *)
val drop : t -> string -> unit

(** [append db ~name contents] appends raw bytes to a blob-backed CSV or
    JSON dataset — the append-like workloads of Section 4. A CSV image
    whose last row lacks its terminator gets one first, so the appended
    rows never fuse with it. Everything derived from the unchanged prefix
    is extended over the appended bytes instead of rebuilt: the structural
    index indexes only the new rows, cold statistics observe only them,
    cached columns fill only them, and zone maps, sorted projections,
    dictionaries, access history and promotions carry over (DESIGN.md
    section 18). When the appended bytes break a specialization the
    structures are dropped and rebuilt on the next access, as the paper
    prescribes for updates. Compiled plans over the dataset (and its shard
    sets) are invalidated either way. Raises [Perror.Plan_error] for
    datasets without a raw byte image. *)
val append : t -> name:string -> string -> unit

(** {1 Querying} *)

type engine = Proteus_engine.Executor.engine =
  | Engine_compiled  (** the specialized engine, morsel-driven over [domains] *)
  | Engine_volcano  (** the iterator interpreter; ignores [domains] *)

(** [plan_sql db q] is the optimized plan of a SQL statement (EXPLAIN).
    Unqualified columns resolve against the registered schemas. *)
val plan_sql : t -> string -> Proteus_algebra.Plan.t

(** [plan_comprehension db q] — the optimized plan of a
    [for {...} yield ...] comprehension. *)
val plan_comprehension : t -> string -> Proteus_algebra.Plan.t

(** [run_plan db plan] optimizes ([optimize], default [true]), compiles and
    runs an algebra plan: the one way to run a query. A comprehension runs
    as [run_plan ~optimize:false db (plan_comprehension db q)].

    [domains] (default 1) is the width of the specialized engine's
    morsel-driven fleet: that many OCaml domains share the input's morsels;
    [~domains:1] runs the same fleet with one worker. Results do not depend
    on it, row order included. The Volcano engine ignores it.

    [batch_size] (default {!Proteus_engine.Compiled.default_batch_size})
    sizes the specialized engine's vectorized lane; [0] disables it
    (pure tuple-at-a-time execution). Results are identical either way.

    [params] binds query parameters ([?] positional — named ["1"], ["2"], …
    in appearance order — or [$name]). Raises [Perror.Plan_error] if any
    parameter is left unbound. *)
val run_plan :
  ?engine:engine ->
  ?domains:int ->
  ?batch_size:int ->
  ?optimize:bool ->
  ?params:(string * Value.t) list ->
  t ->
  Proteus_algebra.Plan.t ->
  Value.t

(** [sql db q] is [run_plan ~optimize:false ?params db (plan_sql db q)]. *)
val sql :
  ?engine:engine ->
  ?domains:int ->
  ?batch_size:int ->
  ?params:(string * Value.t) list ->
  t ->
  string ->
  Value.t

(** {1 Guarded (fault-tolerant) querying}

    A guarded run is
    [Proteus_engine.Executor.query ?policy ?max_errors ?deadline
       (fun () -> run_plan db plan)] (or around {!sql}). It runs under a
    per-query error policy ({!Proteus_model.Fault.policy}) instead of
    failing on the first data error: [Skip_row] drops rows whose required
    fields fail to parse, [Null_fill] substitutes [Null] for unreadable
    fields, and the default [Fail_fast] is exactly the plain run's
    semantics but returning [Failed] instead of raising. The outcome
    carries a structured error report (counts, first error samples with
    byte positions, per-source breakdown). [max_errors] bounds the
    recoverable errors absorbed before the query aborts; [deadline] is an
    absolute [Unix.gettimeofday] time checked cooperatively at morsel/batch
    boundaries — on a parallel engine, one worker's failure or an expired
    deadline stops its peers within one morsel. Front-end errors inside the
    thunk — a misspelled statement, an unknown table, an unbound parameter
    — come back as [Failed] with their {!Perror} exception too. *)

type outcome = Proteus_engine.Executor.outcome =
  | Completed of Value.t * Proteus_model.Fault.report
  | Failed of Proteus_model.Fault.report * exn
  | Timed_out of Proteus_model.Fault.report
  | Cancelled of Proteus_model.Fault.report

(** {1 Prepared queries}

    [prepare] separates engine generation from execution, as the paper
    reports them separately. The handle runs repeatedly, re-scanning the
    inputs; {!bind} rebinds its parameters without re-staging, and a run
    with a parameter never bound raises [Perror.Plan_error].

    Staleness ({!staleness}), checked before each run: the registry
    generation moves on registration, {!drop}, {!append}, shard changes,
    promotions and {!set_caching}; the fill stamp moves when a cache fill
    installs a column (a refused fill moves nothing). Either move re-stages
    the handle in place, so a statement prepared before its inputs were
    cached reads the cache once they are. Arena evictions re-stage nothing:
    the engine keeps its (still-correct) column copies. *)

type handle

type prepared = {
  compile_seconds : float;  (** time spent generating this query's engine *)
  run : unit -> Value.t;  (** re-stage if stale, then run *)
  handle : handle;
}

(** [prepare db plan] optimizes (as {!run_plan}'s [optimize]) and stages an
    algebra plan: [prepare ~optimize:false db (plan_sql db q)] for SQL.
    [domains] and [batch_size] as in {!run_plan}; [params] as {!bind}. *)
val prepare :
  ?domains:int ->
  ?batch_size:int ->
  ?optimize:bool ->
  ?params:(string * Value.t) list ->
  t ->
  Proteus_algebra.Plan.t ->
  prepared

(** [bind p params] sets parameter slots; others keep their value. Raises
    [Perror.Plan_error] on a name the plan has no parameter for. *)
val bind : prepared -> (string * Value.t) list -> unit

(** [bind_all params plan] substitutes [params] as constants and raises
    [Perror.Plan_error] if a parameter is left unbound. *)
val bind_all : (string * Value.t) list -> Proteus_algebra.Plan.t -> Proteus_algebra.Plan.t

(** [Moved]: the generation moved since staging; [Refilled]: only the fill
    stamp did. *)
type staleness = Current | Refilled | Moved

val staleness : prepared -> staleness

(** [restage p] stages again in place, keeping the bound values, and
    returns the staging seconds; with {!run_staged} (no staleness check)
    it lets a cache stage under its own lock. *)
val restage : prepared -> float

val run_staged : prepared -> Value.t

(** [refresh_stats db] re-collects statistics for every registered dataset —
    the paper's idle-time statistics daemon, exposed as an explicit hook. *)
val refresh_stats : t -> unit
