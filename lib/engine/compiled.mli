(** The on-demand engine of Section 5: one specialized implementation per
    query.

    [execute] traverses the physical plan once, in post-order DFS exactly as
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

(** [execute registry plan] compiles and runs [plan]. Result shape matches
    {!Proteus_algebra.Interp.run}. Raises [Perror.*] on malformed plans.

    [batch_size] sizes the vectorized execution lane (DESIGN.md Section 8):
    scan→select→...→aggregate pipeline fragments run over fixed-size
    batches with a selection vector, spilling to the tuple-at-a-time lane
    at the first operator that is not batch-capable. [batch_size <= 0]
    disables the lane entirely (pure tuple-at-a-time execution). Both
    lanes produce bit-identical results, floats included. *)
val execute : ?batch_size:int -> Registry.t -> Proteus_algebra.Plan.t -> Value.t

(** Every expression appearing anywhere in a plan (shared by the Volcano
    executor's required-path analysis). *)
val all_exprs : Proteus_algebra.Plan.t -> Expr.t list

(** [prepare registry plan] compiles the plan and returns a thunk that can
    be executed repeatedly (each run re-scans the inputs). Used to separate
    "code generation" time from execution time, as the paper reports them
    separately (~50ms compilation per query). *)
val prepare : ?batch_size:int -> Registry.t -> Proteus_algebra.Plan.t -> unit -> Value.t

(** [prepare_par registry ~domains plan] is {!prepare} with morsel-driven
    parallel execution over [domains] OCaml domains (DESIGN.md,
    "Parallelism substitution"): the streaming segment of the plan's spine
    is compiled once per domain — each instance owning its closures and
    scan cursor — and driven by a shared morsel dispenser; per-morsel
    partial results merge on the calling domain in morsel order, so
    results are deterministic for any domain count. [domains <= 1] is
    exactly {!prepare}. Plans (or plan segments) that cannot fan out —
    cold scans that would fill cache columns, collection-monoid group-bys
    — silently fall back to the serial engine. *)
val prepare_par :
  ?batch_size:int -> Registry.t -> domains:int -> Proteus_algebra.Plan.t -> unit -> Value.t

(** [execute_par registry ~domains plan] prepares with {!prepare_par} and
    runs once. *)
val execute_par :
  ?batch_size:int -> Registry.t -> domains:int -> Proteus_algebra.Plan.t -> Value.t

(** {1 Parameterized engines (prepare once, run many)}

    A plan may contain {!Expr.Param} nodes (SQL [?] / [$name]). Preparing
    such a plan stages every closure exactly once against mutable parameter
    slots; {!bind} writes new constants into the slots and the same engine
    re-runs — no re-staging, no re-analysis. Pruning ({!Prune}) re-arms
    from the currently bound values on every run, and parameterized
    predicates are excluded from σ-result and join-build caching (their
    result sets change per bind). *)

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

(** {!prepare} returning the parameter slots alongside the run thunk. *)
val prepare_bound :
  ?batch_size:int -> Registry.t -> Proteus_algebra.Plan.t -> bound

(** {!prepare_par} returning the parameter slots alongside the run thunk. *)
val prepare_bound_par :
  ?batch_size:int -> Registry.t -> domains:int -> Proteus_algebra.Plan.t -> bound
