(** Pruning: proofs that rows [\[lo, hi)] of a driving scan hold no
    qualifying row (DESIGN.md, "Pruning").

    One conjunct extractor feeds every summary the storage layer keeps:
    zone maps and sorted projections of promoted cached columns, per-shard
    digests of a shard set, and the key summary of an Inner hash-join build
    probing the scan. One refutation test, {!may_match}, decides each
    (summary, test) pair. A scan driver holds one {!t}: built once per
    driving scan, {!arm}ed once per run after the join builds, and asked
    {!skip} per morsel by the fleet's dispenser, its only caller. *)

open Proteus_model
open Proteus_plugin

(** {1 Conjuncts} *)

(** [conjuncts ~binding pred] lists the conjuncts of [pred] of shape
    [binding.path op operand] with [operand] a [Const] or [Param], in
    either order: [(path, op, operand)] with [op] flipped when the operand
    came first. *)
val conjuncts : binding:string -> Expr.t -> (string * Expr.binop * Expr.t) list

(** [cmp_test op v] is the summary test for [path op v]: comparisons
    [=, <, <=, >, >=] against int, date, float or string values. *)
val cmp_test : Expr.binop -> Value.t -> Proteus_storage.Zonemap.test option

(** [note_selective cache ~dataset ~binding pred] reports the columns that
    [pred] pins against a constant or parameter to the promotion policy,
    marking those pinned by a range comparison. *)
val note_selective :
  Cache_iface.t -> dataset:string -> binding:string -> Expr.t -> unit

(** {1 The refutation test} *)

(** Build-side join keys: bounds, the distinct keys when few, and a Bloom
    filter over all of them. *)
type keys

(** What every qualifying row's value must satisfy. *)
type test =
  | Cmp of Proteus_storage.Zonemap.test list  (** a conjunction on one path *)
  | In of keys  (** equals one of an Inner join build's keys *)
  | Nothing  (** an empty Inner build side: no row qualifies *)

(** [keys ks] is the membership test for the build keys [ks] ([Nothing]
    when empty). *)
val keys : int array -> test

(** What storage knows about one column. *)
type summary =
  | Zones of Proteus_storage.Zonemap.t  (** per-zone min/max *)
  | Band of Proteus_storage.Projection.t * bool array
      (** the zones of a sorted projection a test's values occupy; see {!seek} *)
  | Digest of Registry.shard_digest
      (** one shard member, whole: its one-zone zone map, refined for
          equality by its Bloom filter *)

(** [seek projection test] binary-searches the sorted projection for the
    band of positions [test] admits and marks their zones (one
    [sorted_seeks] tick). [None] when the test is not seekable. *)
val seek : Proteus_storage.Projection.t -> test -> summary option

(** [may_match summary test ~lo ~hi] is [false] only if no row in
    [\[lo, hi)] can satisfy [test] under [Expr] comparison semantics
    (Null compares false, int/float compare through float conversion,
    ints among themselves exactly, strings under [String.compare]; bounds
    never order values of different kinds).
    Every summary covers a prefix of the rows (a zone map or projection
    its column's rows, a digest its member's rows when it was built):
    rows past that prefix — appended since — are never refuted. A digest
    describes its rows as a whole, so it refutes [\[lo, hi)] only when
    [hi] is within them. *)
val may_match : summary -> test -> lo:int -> hi:int -> bool

(** {1 The handle} *)

(** One spine hash join as the handle sees it after its build ran. *)
type join = {
  kind : Proteus_algebra.Plan.join_kind;
  rows : int;  (** materialized build rows *)
  probe_key : Expr.t option;  (** probe-side key, when keys are unboxed ints *)
  keys : int array;  (** the build's int keys *)
}

type t

(** [create reg ~slots ~dataset ~binding ~filling preds] is the handle of
    a scan over [dataset]'s rows bound to [binding], where every predicate
    of [preds] holds on every row that qualifies. [slots] are the engine's
    parameter slots. A [filling] scan never prunes. *)
val create :
  Registry.t ->
  slots:(string * Value.t ref) list ->
  dataset:string ->
  binding:string ->
  filling:bool ->
  Expr.t list ->
  t

(** [note t pred] is {!note_selective} for the handle's scan. *)
val note : t -> Expr.t -> unit

(** [add_joins t f]: at every {!arm}, [f ()] lists joins probing the scan. *)
val add_joins : t -> (unit -> join list) -> unit

(** [arm t] prepares one run: it stands down under a degraded fault policy
    or a filling scan, resolves parameters, seeks projections, summarizes
    join keys and prunes shards (ticking [shards_pruned]). Call it on the
    run's calling domain, before any {!skip}. *)
val arm : t -> unit

(** [skip t ~lo ~hi] is [true] when the armed tests prove [\[lo, hi)]
    holds no qualifying row. It ticks [morsels_skipped] on a skip,
    [probe_morsels_skipped] when a join-key test decided it, and
    [zone_checks] per summary consulted. Safe on any domain. *)
val skip : t -> lo:int -> hi:int -> bool
