(** Monoids of the monoid comprehension calculus (Section 3, [24]).

    A comprehension [⊕{ e | q1, ..., qn }] accumulates the values of [e] into
    the monoid [⊕]. Primitive monoids produce scalars (SUM, MAX, ...);
    collection monoids produce bags/sets/lists. The Reduce and Nest operators
    of the nested relational algebra are parameterized by a monoid. *)

type primitive =
  | Sum
  | Prod
  | Min
  | Max
  | Avg     (** derived: tracked as (sum, count) internally *)
  | Count   (** sum of 1 per element *)
  | All     (** boolean conjunction *)
  | Any     (** boolean disjunction *)

type t =
  | Primitive of primitive
  | Collection of Ptype.coll

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool

(** {1 Scalar accumulation}

    An accumulator for one aggregate. [Avg] needs two pieces of state, so the
    accumulator is an abstract record rather than a bare value. *)

type acc

(** [acc_create p] is the identity element of [p]. *)
val acc_create : primitive -> acc

(** [acc_step acc v] folds value [v] into the accumulator.
    [Count] ignores [v]. Numeric monoids widen Int/Float as needed. *)
val acc_step : acc -> Value.t -> unit

(** [acc_value acc] extracts the current aggregate. [Min]/[Max] over zero
    elements yield [Value.Null]; [Avg] over zero elements yields [Null];
    [Sum]/[Count] yield [Int 0]. *)
val acc_value : acc -> Value.t

(** [collect c vs] builds the collection value for collection monoid [c]
    (sets are deduplicated). *)
val collect : Ptype.coll -> Value.t list -> Value.t

