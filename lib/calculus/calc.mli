(** The monoid comprehension calculus (Section 3, after Fegaras–Maier [24]).

    A query is a comprehension: an output specification over a sequence of
    qualifiers. Generators ([x <- source]) range over datasets, over
    collection-valued paths of already-bound variables (the unnesting case),
    or over sub-comprehensions; predicates filter the bindings accumulated so
    far.

    Example 3.1 of the paper:
    {v
    for { s1 <- Sailor, c <- s1.children, s2 <- Ship,
          p <- s2.personnel, s1.id = p.id, c.age > 18 }
    yield bag (s1.id, s2.name, c.name)
    v}
    is [{ output = Collect (Bag, <record>); quals = [Gen...; Pred...] }]. *)

open Proteus_model

type source =
  | Dataset of string          (** a catalog dataset *)
  | Path of Expr.t             (** a nested collection, e.g. [s1.children] *)
  | Sub of t                   (** a nested comprehension *)

and qual =
  | Gen of string * source
  | Pred of Expr.t

and output =
  | Collect of Ptype.coll * Expr.t
      (** [bag/set/list { e | ... }] *)
  | Aggregate of (string * Monoid.primitive * Expr.t) list
      (** scalar fold(s): [sum/max/... { e | ... }]; several at once for
          multi-aggregate queries *)
  | Group of {
      keys : (string * Expr.t) list;
      aggs : (string * Monoid.primitive * Expr.t) list;
    }  (** grouping fold — the calculus pattern SQL's GROUP BY desugars to *)

and t = {
  output : output;
  quals : qual list;
}

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool

(** Free variables (referenced but not generator-bound). *)
val free_vars : t -> string list

(** [datasets t] is every dataset name referenced, sub-comprehensions
    included. *)
val datasets : t -> string list

(** [eval ~lookup t] evaluates the comprehension directly (list semantics,
    nested loops) — the semantic oracle for the normalizer and the
    algebra translation. *)
val eval : lookup:(string -> Value.t list) -> t -> Value.t

(** [validate t] checks variable scoping.
    Raises [Perror.Plan_error] on unbound/shadowed variables. *)
val validate : t -> unit
