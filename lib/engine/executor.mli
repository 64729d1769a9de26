(** Unified entry point over the executors. *)

type engine =
  | Engine_compiled  (** the on-demand specialized engine (Section 5) *)
  | Engine_volcano   (** the iterator interpreter baseline *)

(** [run registry ~engine plan] validates and executes [plan].
    [batch_size] configures the specialized engine's vectorized lane and
    [domains] (default 1) its morsel-driven fleet width (see
    {!Compiled.prepare_par}); the Volcano engine ignores both. *)
val run :
  ?batch_size:int ->
  ?domains:int ->
  Proteus_plugin.Registry.t ->
  engine:engine ->
  Proteus_algebra.Plan.t ->
  Proteus_model.Value.t

(** Result of a guarded (fault-tolerant) execution. *)
type outcome =
  | Completed of Proteus_model.Value.t * Proteus_model.Fault.report
      (** the query finished; the report is empty under [Fail_fast] and
          carries skip/null accounting under the degraded policies *)
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
    boundaries. Not reentrant: one guarded query at a time per process
    (parallel runs already serialize on the domain pool). *)
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
