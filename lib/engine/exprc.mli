(** The expression generators (Section 5.2).

    [compile] turns an algebraic expression into a closure, resolving — once
    per query — everything a tuple-at-a-time interpreter would re-decide per
    tuple: which plug-in accessor serves each path, the numeric type of each
    operator, nullability, and constant values. The result is a {e typed}
    closure whenever the operand types can be pinned down statically
    (non-nullable int/float/bool/string paths); otherwise a boxed closure
    with exactly the interpreter's semantics.

    Operators are agnostic to where a value comes from: the compile
    environment maps each bound variable to a {!repr} describing its current
    physical representation — raw-scan accessors, structural-index unnest
    spans, a boxed register, or materialized columns — and the compiled
    closure reads whichever it is ("the operators are oblivious to whether a
    value ... is not fully materialized yet"). *)

open Proteus_model
open Proteus_plugin

(** Physical representation of a bound variable at this point of the
    pipeline. *)
type repr =
  | Scan_repr of Source.t            (** live scan cursor *)
  | Unnest_repr of Source.unnest_spec  (** current nested element (span) *)
  | Boxed_repr of Value.t ref        (** boxed register *)
  | Row_repr of (string * Value.t array ref) list * int ref * bool ref
      (** materialized rows: per-path arrays, row cursor, null-row flag
          (for outer-join padding) *)
  | Param_repr of Value.t ref
      (** runtime parameter slot — re-bindable between runs without
          re-staging any closure *)

type cenv = (string, repr) Hashtbl.t

(** [param_key name] is the reserved cenv key for parameter [name] (["?"]
    prefix — SQL identifiers cannot start with it, so slots never collide
    with plan bindings). *)
val param_key : string -> string

(** [param_slot cenv name] is the registered slot for parameter [name].
    Raises [Perror.Plan_error] when no slot was registered. *)
val param_slot : cenv -> string -> Value.t ref

type compiled =
  | C_int of (unit -> int)
  | C_float of (unit -> float)
  | C_bool of (unit -> bool)
  | C_str of (unit -> string)
  | C_val of (unit -> Value.t)

val compile : cenv -> Expr.t -> compiled

(** [to_val c] is the boxed view of a compiled closure. *)
val to_val : compiled -> unit -> Value.t

(** [to_pred c] views a compiled closure as a predicate (boxed results
    follow the interpreter's null-is-false rule).
    Raises [Perror.Type_error] if the closure cannot yield booleans. *)
val to_pred : compiled -> unit -> bool

(** {1 The batch lane}

    A batch kernel evaluates its expression for a whole batch at once:
    [k ~base ~sel ~n] computes, for each of the first [n] selection-vector
    entries, the value of the expression at element [base + sel.(i)] into
    slot [sel.(i)] of the node's output buffer (batch-aligned layout: slot
    [j] always corresponds to element [base + j], so shrinking [sel] never
    moves data). Buffers are allocated once per compile at [batch_size]. *)

type bkernel = base:int -> sel:int array -> n:int -> unit

type bcompiled =
  | B_int of int array * bkernel
  | B_float of float array * bkernel
  | B_bool of bool array * bkernel
  | B_str of string array * bkernel

(** [compile_batch cenv ~batch_size e] stages [e] as a batch kernel, or
    [None] when the scalar closure is the right lane: nullable or boxed
    leaves (incl. dates), non-scan representations, conditionals, null
    tests, constructors. [And]/[Or] keep exact short-circuit semantics by
    evaluating the right operand only on the lanes the left one leaves
    undecided. *)
val compile_batch : cenv -> batch_size:int -> Expr.t -> bcompiled option

(** [batch_int_fill cenv ~batch_size ~seek e] stages an integer join-key
    expression for the batch probe: a key buffer plus the kernel that fills
    it for the selected lanes (via {!compile_batch} when possible, else a
    [seek]-then-eval shim over the typed scalar closure). [None] when [e]
    is not statically an int. *)
val batch_int_fill :
  cenv -> batch_size:int -> seek:(int -> unit) -> Expr.t ->
  (int array * bkernel) option

(** [path_of e] decomposes [e] into a variable and a dotted path when it is
    a pure path expression ([x.a.b] → [Some ("x", "a.b")], [x] →
    [Some ("x", "")]). *)
val path_of : Expr.t -> (string * string) option

(** [required_paths exprs] maps each free variable to either [`Whole] (used
    bare) or [`Paths ps] (only these dotted paths are read) across all
    [exprs] — the engine's projection-pushdown analysis. *)
val required_paths : Expr.t list -> (string * [ `Whole | `Paths of string list ]) list
