(** Unified entry point over the executors. *)

type engine =
  | Engine_compiled  (** the on-demand specialized engine (Section 5) *)
  | Engine_volcano   (** the iterator interpreter baseline *)

(** [run registry ~engine plan] validates and executes [plan] as one
    query (see {!as_query}). [batch_size] configures the specialized
    engine's vectorized lane and [domains] (default 1) its morsel-driven
    fleet width (see {!Compiled.prepare_par}); the Volcano engine ignores
    both. *)
val run :
  ?batch_size:int ->
  ?domains:int ->
  Proteus_plugin.Registry.t ->
  engine:engine ->
  Proteus_algebra.Plan.t ->
  Proteus_model.Value.t

(** Result of a guarded (fault-tolerant) execution. Every report carries
    the query's own counters ([rp_stats]). *)
type outcome =
  | Completed of Proteus_model.Value.t * Proteus_model.Fault.report
      (** the query finished; the report's error counts are zero under
          [Fail_fast] and carry skip/null accounting under the degraded
          policies *)
  | Failed of Proteus_model.Fault.report * exn
      (** the query aborted: a data/plan error under [Fail_fast], or the
          error budget was exceeded ([Fault.Budget_exceeded]) *)
  | Timed_out of Proteus_model.Fault.report  (** the deadline passed *)
  | Cancelled of Proteus_model.Fault.report
      (** the cancellation token fired without a recorded failure *)

(** [run_guarded reg ~engine plan] executes under an error policy
    ([Fail_fast] when omitted — exactly {!run}'s semantics, but returning
    [Failed] instead of raising). [max_errors] bounds the recoverable
    errors a degraded policy may absorb before the query aborts;
    [timeout_ms] sets a deadline enforced cooperatively at morsel/batch
    boundaries. Runs as one {!query}. *)
val run_guarded :
  ?batch_size:int ->
  ?domains:int ->
  ?policy:Proteus_model.Fault.policy ->
  ?max_errors:int ->
  ?timeout_ms:int ->
  Proteus_plugin.Registry.t ->
  engine:engine ->
  Proteus_algebra.Plan.t ->
  outcome

(** [query f] is the lifecycle of one query: install a fresh
    {!Proteus_model.Fault} context (policy, budget, absolute [deadline]),
    show it to [on_ctx] (e.g. to register it for cancellation), run [f]
    under it, fold its counters into the process totals, and classify the
    outcome from the context. Never raises. *)
val query :
  ?policy:Proteus_model.Fault.policy ->
  ?max_errors:int ->
  ?deadline:float ->
  ?on_ctx:(Proteus_model.Fault.ctx -> unit) ->
  (unit -> Proteus_model.Value.t) ->
  outcome

(** [measure f] runs [f] as one [Fail_fast] query of its own (not inside
    another) and returns its value with the query's counters, re-raising
    whatever the query raised. *)
val measure : (unit -> 'a) -> 'a * Counters.snapshot

(** [as_query f] is [fst (measure f)], except inside an already active
    query, where it just runs [f] and the counts belong to that query. *)
val as_query : (unit -> 'a) -> 'a
