(** A deterministic TPC-H data generator (the lineitem/orders subset used in
    Section 7.1) plus the evaluation's query templates.

    The paper runs SF10 (60M lineitems) and SF100; this generator produces
    the same schema and value distributions at laptop scale (the benchmark
    harness defaults to SF 0.01 ≈ 60k lineitems). As in the paper, file
    contents are shuffled to destroy interesting orders, and all queried
    fields are numeric.

    One [t] renders into every format the evaluation needs: CSV, JSON
    (objects with a fixed field order — machine-generated data), a
    denormalized JSON orders file embedding each order's lineitems (for the
    unnest query of Figure 9), boxed records (for loading the baselines),
    and binary columns. *)

open Proteus_model

type t = {
  sf : float;
  lineitems : Value.t list;
  orders : Value.t list;
  order_count : int;     (** orderkeys are 1..order_count (uniform) *)
}

(** [generate ~sf ()] — deterministic for a given [sf] and [seed]
    (default 42). SF 1.0 ≈ 6M lineitems, 1.5M orders. *)
val generate : ?seed:int -> sf:float -> unit -> t

val lineitem_type : Ptype.t
(** l_orderkey, l_linenumber (1–7), l_quantity (1–50), l_extendedprice,
    l_discount, l_tax — all numeric, as in the experiments. *)

val order_type : Ptype.t
(** o_orderkey, o_custkey, o_totalprice, o_shippriority *)

val denorm_order_type : Ptype.t
(** orders with an embedded [lineitems] array (the denormalized JSON file
    MongoDB-style systems expect) *)

(** {1 Rendering} *)

val lineitem_csv : t -> string
val orders_csv : t -> string

(** JSON writers. [shuffle_fields] (default false) randomizes the field
    order per object: the benchmark instances use it so that no system can
    exploit field order (as the paper stipulates), which keeps Proteus'
    structural index in its flexible per-object Level-0 mode. Without it the
    writer emits machine-generated fixed order, and the index switches to
    the compressed fixed-schema fast path. *)
val lineitem_json : ?shuffle_fields:bool -> t -> string

val orders_json : ?shuffle_fields:bool -> t -> string

val denormalized_orders : t -> Value.t list
val denormalized_json : ?shuffle_fields:bool -> t -> string

(** Binary columns, one per field. *)
val lineitem_columns : t -> (string * Proteus_storage.Column.t) list
val orders_columns : t -> (string * Proteus_storage.Column.t) list

(** {1 The Section 7.1 query templates}

    Each takes the dataset name(s) to scan and the selectivity factor
    (0.1/0.2/0.5/1.0 in the paper); the predicate is
    [l_orderkey < sel * order_count], giving exactly that fraction. *)

module Queries : sig
  type projection_variant = Count1 | Max1 | Agg4
  type join_variant = JCount | JMax | JAgg2

  (** Figure 5/6: [SELECT AGG(val1),... FROM lineitem WHERE l_orderkey < X] *)
  val projection :
    lineitem:string -> order_count:int -> variant:projection_variant ->
    selectivity:float -> Proteus_algebra.Plan.t

  (** Figure 7/8: COUNT with 1, 3 or 4 predicates *)
  val selection :
    lineitem:string -> order_count:int -> predicates:int -> selectivity:float ->
    Proteus_algebra.Plan.t

  (** Figure 9/10: orders ⋈ lineitem with aggregates over the orders side *)
  val join :
    orders:string -> lineitem:string -> order_count:int -> variant:join_variant ->
    selectivity:float -> Proteus_algebra.Plan.t

  (** Figure 9 "Unnest": COUNT over the embedded lineitem arrays of the
    denormalized orders *)
  val unnest_count :
    denorm:string -> order_count:int -> selectivity:float -> Proteus_algebra.Plan.t

  (** Figures 11/12: GROUP BY l_linenumber with 1, 3 or 4 aggregates *)
  val group_by :
    lineitem:string -> order_count:int -> aggregates:int -> selectivity:float ->
    Proteus_algebra.Plan.t
end
