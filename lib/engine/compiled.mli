(** The on-demand engine of Section 5: one specialized implementation per
    query.

    [prepare_par] traverses the physical plan once, in post-order DFS exactly as
    the paper describes, and for every visited operator constructs the
    closures that implement it — typed accessors from the input plug-ins,
    typed expression closures from the expression generators, typed
    aggregate accumulators. The operator logic is stitched into a single
    push-based pipeline (a consumer chain), so per-tuple work contains no
    plan interpretation, no operator boundaries, and no type dispatch: the
    analogue, in OCaml closures, of the paper's LLVM code generation.

    Pipeline breakers: the hash join materializes its build (right) side
    into value vectors — the paper's radix join materializes its inputs —
    and the probe side streams; Nest materializes its groups. When a caching
    manager is wired in, (i) scans serve fields from cached binary columns
    and fill new ones as a side-effect (Section 6), and (ii) join build
    sides are cached and reused across queries keyed by their canonical
    sub-plan fingerprint ("implicit caching"). *)

open Proteus_model
open Proteus_plugin

(** Default batch size of the vectorized lane (rows per batch). *)
val default_batch_size : int

(** Every expression appearing anywhere in a plan (shared by the Volcano
    executor's required-path analysis). *)
val all_exprs : Proteus_algebra.Plan.t -> Expr.t list

(** [root_fold plan] is the fold every root runs, as [(aggregates,
    predicate, input)]: a Reduce root's own, and for any other root one
    [Bag] aggregate collecting its visible bindings — the one binding's
    value, or a record of them all. Shared with the Volcano executor. *)
val root_fold : Proteus_algebra.Plan.t -> Proteus_algebra.Plan.agg list * Expr.t * Proteus_algebra.Plan.t

(** [prepare_par registry ~domains plan] compiles the plan and returns a
    thunk that can be executed repeatedly (each run re-scans the inputs).
    Used to separate "code generation" time from execution time, as the
    paper reports them separately (~50ms compilation per query). Result
    shape matches {!Proteus_algebra.Interp.run}. Raises [Perror.*] on
    malformed plans.

    Execution is morsel-driven over [domains] OCaml domains (DESIGN.md,
    "Parallelism substitution"); [domains <= 1] runs the same fleet with
    one worker, inline on the calling domain. Every root is a fold: a root
    that is not a Reduce collects its visible bindings into a bag. The
    streaming segment of the plan's spine is compiled once per worker —
    each instance owning its closures and scan cursor — and driven by a
    shared morsel dispenser; per-morsel partial results, collections
    included, merge on the calling domain in morsel order, so results are
    deterministic for any domain count, and a spliced group-by emits its
    groups in key order at every width. Every scan runs as a fleet: join
    build sides on fleets of their own, and the input of a Sort through a
    buffered fleet that replays its rows in scan order.

    [batch_size] sizes the vectorized execution lane (DESIGN.md Section 8):
    scan→select→...→aggregate pipeline fragments run over fixed-size
    batches with a selection vector, spilling to the tuple-at-a-time lane
    at the first operator that is not batch-capable. [batch_size <= 0]
    disables the lane entirely (pure tuple-at-a-time execution). Both
    lanes produce bit-identical results, floats included. *)
val prepare_par :
  ?batch_size:int -> Registry.t -> domains:int -> Proteus_algebra.Plan.t -> unit -> Value.t

(** {1 Parameterized engines (prepare once, run many)}

    A plan may contain {!Expr.Param} nodes (SQL [?] / [$name]). Preparing
    such a plan stages every closure exactly once against mutable parameter
    slots; {!bind} writes new constants into the slots and the same engine
    re-runs — no re-staging, no re-analysis. Pruning ({!Prune}) re-arms
    from the currently bound values on every run, and a parameterized
    build side is excluded from join-build caching (its rows change per
    bind). *)

type bound = {
  bd_run : unit -> Value.t;  (** run under the currently bound parameters *)
  bd_params : (string * Value.t ref) list;
      (** one slot per parameter, in plan order; unbound slots read as
          [Value.Null] (comparisons against Null are false) *)
}

(** [bind b env] writes [env]'s values into the engine's slots. Raises
    [Perror.Plan_error] on a name no slot exists for. Parameters absent
    from [env] keep their previous value. *)
val bind : bound -> (string * Value.t) list -> unit

(** {!prepare_par} returning the parameter slots alongside the run thunk. *)
val prepare_bound_par :
  ?batch_size:int -> Registry.t -> domains:int -> Proteus_algebra.Plan.t -> bound
