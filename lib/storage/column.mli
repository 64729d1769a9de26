(** Typed column chunks — the binary column format, in memory.

    Used by (i) the binary-column input plug-in (the "MonetDB-like" files the
    paper's Proteus reads), (ii) the caching manager (caches are binary
    columns materialized from evaluated expressions, Section 6), and (iii)
    the column-store baseline engine. *)

open Proteus_model

type t =
  | Ints of int array
  | Floats of float array
  | Bools of bool array
  | Strings of string array
  | Dicts of int array * string array
      (** dictionary-encoded strings: element [i] is [dict.(codes.(i))]. The
          promoted layout for hot cached string columns — comparisons run on
          codes, LIKE runs once per dictionary entry. *)
  | Nullmask of bool array * t
      (** validity-tagged column: [mask.(i)] true means value [i] is NULL *)

val length : t -> int

(** [get c i] boxes element [i]. Dates are stored in [Ints] columns; callers
    that care about dates re-wrap via the schema. *)
val get : t -> int -> Value.t

(** [dict_encode a] is [(codes, dict)] with [dict] deduplicated in first-seen
    order and [dict.(codes.(i)) = a.(i)] for every [i]. *)
val dict_encode : string array -> int array * string array

(** [promote_strings c] rewrites a (possibly nullable) [Strings] column to its
    [Dicts] layout; identity on already-promoted columns, [None] otherwise. *)
val promote_strings : t -> t option

(** [append a b] is [a]'s rows followed by [b]'s, in [a]'s layout: a
    dictionary column [a] takes a plain string column [b] and extends its
    dictionary in first-seen order. A null mask is kept when either side
    has one. Raises [Invalid_argument] on mismatched layouts. *)
val append : t -> t -> t

(** [of_values ty vs] packs boxed values into a typed column. Null values
    force a [Nullmask] wrapper. *)
val of_values : Ptype.t -> Value.t list -> t

(** Builders: dynamic typed arrays, for streaming materialization. *)
module Builder : sig
  type column = t
  type t

  val create : Ptype.t -> t

  (** Fast paths that avoid boxing. Using one on a column of a different type
      raises [Perror.Type_error]. *)
  val add_int : t -> int -> unit

  val add_float : t -> float -> unit
  val add_bool : t -> bool -> unit
  val add_string : t -> string -> unit

  val add_value : t -> Value.t -> unit
  val length : t -> int
  val finish : t -> column

  (** [concat ty segs] assembles per-segment builders (in list order) into one
      column with a single exact-size allocation and one [Array.blit] per
      segment — bit-identical to [finish] of a builder fed every row in that
      order. The null mask is kept only when some segment holds a null, like
      [finish]. Segments must all have been created with [ty]. *)
  val concat : Ptype.t -> t list -> column
end

(** Approximate memory footprint in bytes (for cache budgeting). *)
val byte_size : t -> int

(** [min_max c] is [(min, max)] over non-null elements, [None] when empty.
    Used by the statistics collectors. *)
val min_max : t -> (Value.t * Value.t) option
