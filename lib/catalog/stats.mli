(** Per-source statistics (Section 5.2 "Enabling Cost-based Optimizations").

    The metadata store keeps dataset cardinalities and min/max values per
    attribute. Statistics collection is delegated to the input plug-ins,
    which fold observations in (i) during cold first accesses, (ii) when a
    blocking operator materializes values, and (iii) when an explicit
    refresh — the paper's idle-time daemon — runs.

    A field's running statistics live in one accumulator ({!acc}), which a
    collection pass resolves once per field. The cold pass folds whole
    batches of unboxed values into it ({!observe_ints}, {!observe_floats});
    its distinct sample is an unboxed int or float table with the equality
    of [compare] (one NaN, and [0.0 = -0.0]). {!observe} is the boxed,
    one-value form of the same fold: both give the same statistics for the
    same values in the same order. *)

open Proteus_model

type field_stats = {
  min : Value.t;
  max : Value.t;
  nonnull : int;
  distinct_estimate : int;  (** coarse: min(nonnull, sample-based guess) *)
}

type t

val create : unit -> t

val set_cardinality : t -> int -> unit
val cardinality : t -> int option

(** [observe t path v] folds one value into field [path]'s running stats
    ([Null] is not observed). *)
val observe : t -> string -> Value.t -> unit

(** {1 Batched observation} *)

(** One field's running statistics. *)
type acc

(** [acc t path] is field [path]'s accumulator, created empty (the field
    stays unknown to {!field} until a value is observed). [clear] detaches
    every accumulator. *)
val acc : t -> string -> acc

(** [observe_ints acc ~date a ~sel ~n] folds [a.(sel.(i))] for [i < n],
    in that order, as [Date] values when [date] and [Int] values otherwise. *)
val observe_ints : acc -> date:bool -> int array -> sel:int array -> n:int -> unit

(** [observe_floats acc a ~sel ~n] folds [a.(sel.(i))] for [i < n]. *)
val observe_floats : acc -> float array -> sel:int array -> n:int -> unit

(** [observe_value acc v] is {!observe} on a resolved accumulator. *)
val observe_value : acc -> Value.t -> unit

val field : t -> string -> field_stats option

(** [selectivity t path ~op ~value] estimates the fraction of rows
    satisfying [path op value] under a uniform distribution between the
    recorded min and max. [op] is one of [`Lt | `Le | `Gt | `Ge | `Eq].
    Falls back to the textbook default of 10% ([default_selectivity]) when
    no stats exist — the plug-in skeleton behaviour the paper describes. *)
val selectivity : t -> string -> op:[ `Lt | `Le | `Gt | `Ge | `Eq ] -> value:Value.t -> float

val default_selectivity : float

val clear : t -> unit

val pp : Format.formatter -> t -> unit
