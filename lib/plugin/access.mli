(** Typed field accessors — the runtime face of an input plug-in.

    An accessor reads one field of the input element a scan cursor currently
    points at. The plug-in constructs it {e once per query} (Section 5.1's
    code generation, staged here as closure construction): the format
    dispatch, byte offsets, index slots and type checks are all resolved at
    construction time, so each per-tuple call is a monomorphic closure.

    The typed getters ([get_int], ...) are present only when the plug-in
    could specialize for that type; [get_val] always works and is the boxed
    fallback used by un-specialized consumers (the Volcano interpreter, and
    any expression whose type the compiler could not pin down).

    The optional batch getters ([fill_int], ...) are the vectorized lane:
    [fill base out ~sel ~n] writes the field value of element [base + sel.(i)]
    into [out.(sel.(i))] for each of the first [n] selection-vector entries —
    batch-aligned, so slot [j] of every buffer corresponds to element
    [base + j] and filters that shrink [sel] never move data. Plug-ins
    provide them only for non-nullable primitive fields they can extract
    without going through the scan cursor (direct column slices, positional
    index spans); everything else is reached by the engine through a
    seek-then-get shim, so a plug-in that provides no fills still works
    unmodified. *)

open Proteus_model

(** [fill base out ~sel ~n]: for 0 <= i < n, [out.(sel.(i)) <- value at
    element OID [base + sel.(i)]]. Entries of [out] outside the selection
    are left untouched. *)
type 'a fill = int -> 'a array -> sel:int array -> n:int -> unit

type t = {
  ty : Ptype.t;                        (** static type, [Option]-wrapped if nullable *)
  nullable : bool;
  get_int : (unit -> int) option;
  get_float : (unit -> float) option;
  get_bool : (unit -> bool) option;
  get_str : (unit -> string) option;
  is_null : (unit -> bool) option;     (** present when [nullable] with typed paths *)
  get_val : unit -> Value.t;           (** boxed read; yields [Null] for nulls *)
  fill_int : int fill option;          (** batch lane (never set for nullable fields) *)
  fill_float : float fill option;
  fill_bool : bool fill option;
  fill_str : string fill option;
  dict : (int array * string array) option;
      (** dictionary metadata when the accessor reads a promoted
          ({!Proteus_storage.Column.Dicts}) cache column: [get_str]/[fill_str]
          still decode, while comparison kernels may work on the codes
          directly (equality as a code compare, LIKE once per entry) *)
}

(** {1 Constructors} *)

val of_int : ?null:(unit -> bool) -> ?fill:int fill -> (unit -> int) -> t
val of_date : ?null:(unit -> bool) -> ?fill:int fill -> (unit -> int) -> t
val of_float : ?null:(unit -> bool) -> ?fill:float fill -> (unit -> float) -> t
val of_bool : ?null:(unit -> bool) -> ?fill:bool fill -> (unit -> bool) -> t
val of_str : ?null:(unit -> bool) -> ?fill:string fill -> (unit -> string) -> t

(** [shim_fill seek get] serves the batch lane for an accessor without a
    native fill: for each selected lane, [seek] the scan cursor to the
    element, then [get] it. *)
val shim_fill : (int -> unit) -> (unit -> 'a) -> 'a fill

(** [boxed ty f] wraps a boxed-only accessor (nested values etc.). *)
val boxed : Ptype.t -> (unit -> Value.t) -> t

(** [of_column col ~cur ty] reads a {!Proteus_storage.Column.t} at the row
    index in [cur] — the access path for binary columns, caches, and
    materialized intermediates. Typed fast paths match the column payload;
    non-nullable columns also carry direct-slice batch fills. *)
val of_column : Proteus_storage.Column.t -> cur:int ref -> Ptype.t -> t
