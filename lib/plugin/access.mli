(** Typed field accessors — the runtime face of an input plug-in.

    An accessor reads one field of the input element a scan cursor currently
    points at. The plug-in constructs it {e once per query} (Section 5.1's
    code generation, staged here as closure construction): the format
    dispatch, byte offsets, index slots and type checks are all resolved at
    construction time, so each per-tuple call is a monomorphic closure.

    A primitive field carries one typed {!lane}: a {!reader} whose [get]
    reads at the cursor and whose [fill] is the batch lane —
    [fill base out ~sel ~n] writes the field value of element
    [base + sel.(i)] into [out.(sel.(i))] for each of the first [n]
    selection-vector entries, batch-aligned, so slot [j] of every buffer
    corresponds to element [base + j] and filters that shrink [sel] never
    move data. The plug-in that owns the cursor decides how a batch is read:
    by explicit row (column slices, positional index spans, JSON layout
    slots) or through {!shim_fill} over its own cursor. [fill = None] means
    only that the field is not addressable by row (unnest element fields);
    every top-level primitive accessor has one. A fill reads the value lane
    only: on a nullable accessor it is defined at non-null rows, so
    consumers test [null] first.

    [get_val] always works and is the boxed read used by un-specialized
    consumers (the Volcano interpreter, nested values, and any expression
    whose type the compiler could not pin down). *)

open Proteus_model

(** [fill base out ~sel ~n]: for 0 <= i < n, [out.(sel.(i)) <- value at
    element OID [base + sel.(i)]]. Entries of [out] outside the selection
    are left untouched. *)
type 'a fill = int -> 'a array -> sel:int array -> n:int -> unit

(** One typed read path: [get] at the cursor, [fill] by explicit row. *)
type 'a reader = { get : unit -> 'a; fill : 'a fill option }

type lane =
  | Int of int reader
  | Date of int reader  (** day counts; the boxed view stays [Value.Date] *)
  | Float of float reader
  | Bool of bool reader
  | Str of string reader
  | Boxed  (** no typed path: read through [get_val] *)

type t = {
  ty : Ptype.t;                        (** static type, [Option]-wrapped if nullable *)
  null : (unit -> bool) option;        (** null test at the cursor, for nullable typed lanes *)
  lane : lane;
  get_val : unit -> Value.t;           (** boxed read; yields [Null] for nulls *)
  dict : (int array * string array) option;
      (** dictionary metadata when a non-nullable accessor reads a promoted
          ({!Proteus_storage.Column.Dicts}) cache column: its [Str] lane
          still decodes, while comparison kernels may work on the codes
          directly (equality as a code compare, LIKE once per entry) *)
}

(** {1 Constructors} *)

(** [prim ?null lane] is the one constructor of a primitive accessor: [ty]
    and [get_val] follow from the lane, [Option]-wrapped and null-testing
    when [null] is given. Raises [Invalid_argument] on [Boxed]. *)
val prim : ?null:(unit -> bool) -> lane -> t

(** [shim_fill seek get] reads a batch through a cursor: for each selected
    lane, [seek] the cursor to the element, then [get] it. For readers with
    no row-addressable fill (a computed expression). *)
val shim_fill : (int -> unit) -> (unit -> 'a) -> 'a fill

(** [boxed ty f] wraps a boxed-only accessor (nested values etc.). *)
val boxed : Ptype.t -> (unit -> Value.t) -> t

(** [of_column col ~cur ty] reads a {!Proteus_storage.Column.t} at the row
    index in [cur] — the access path for binary columns, caches, and
    materialized intermediates. The lane matches the column payload and
    fills by direct slice; a null mask adds the null test. *)
val of_column : Proteus_storage.Column.t -> cur:int ref -> Ptype.t -> t
