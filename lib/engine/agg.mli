(** Staged aggregate accumulators.

    A factory builds per-group accumulator instances whose [step] closure was
    specialized once per query: integer sums accumulate into an [int ref]
    with no boxing per tuple, float folds into a [float ref], and only
    genuinely dynamic cases fall back to the boxed {!Monoid.acc}.

    For morsel-driven parallel execution each worker folds its morsels into
    a private instance; [partial] then exports the worker's state and
    {!merge}/{!finalize} combine the per-worker partials into the final
    aggregate ([Avg] exports a (sum, count) record, a collection its values
    newest first, everything else its plain accumulated value). *)

open Proteus_model

type instance = {
  step : unit -> unit;        (** fold the current tuple in *)
  value : unit -> Value.t;    (** read the final aggregate out *)
  partial : unit -> Value.t;  (** read the partial state out, for {!merge} *)
}

(** [factory monoid compiled] stages the accumulator for folding the values
    of [compiled]; each call to the factory starts a fresh group. *)
val factory : Monoid.t -> Exprc.compiled -> unit -> instance

(** Batch-lane accumulator: [bstep] folds a whole selection at once. The
    vectorized loops fold lanes in selection order with exactly the scalar
    [step]'s operations, so results are bit-identical (floats included) to
    stepping tuple-by-tuple. *)
type binstance = {
  bstep : base:int -> sel:int array -> n:int -> unit;
  bvalue : unit -> Value.t;
  bpartial : unit -> Value.t;  (** as {!instance.partial} *)
}

(** [batch_factory m ~seek ~scalar ~batch] stages the batch accumulator:
    an array-level loop over [batch]'s kernel buffer when the monoid/lane
    pair supports it, otherwise (collections included) a per-lane
    [seek]-then-scalar-[step] shim. *)
val batch_factory :
  Monoid.t ->
  seek:(int -> unit) ->
  scalar:Exprc.compiled ->
  batch:Exprc.bcompiled option ->
  unit ->
  binstance

(** [merge m a b] combines two partials of monoid [m], [a] folded over rows
    that precede [b]'s. Collections concatenate [a]'s values before [b]'s,
    copying only [b]'s: a left fold over n partials costs time linear in
    their total values. *)
val merge : Monoid.t -> Value.t -> Value.t -> Value.t

(** [finalize m partial] turns a merged partial into the aggregate value
    ([Avg] divides sum by count; a collection reverses its values into scan
    order and builds the bag, set or list; every other monoid is the
    identity). *)
val finalize : Monoid.t -> Value.t -> Value.t
