(** Two-level structural index for JSON datasets (Section 5.2, Figure 4).

    A dataset is a sequence of JSON objects. During the first (validating)
    access, one pass populates, per object:

    - {b Level 1}: an array of entries — the binary start/end positions and
      kind of each registered token. Entry 0 spans the whole object. Fields
      are registered recursively through nested {e objects} (path ["c.d.d1"]
      dereferences in one step); array {e contents} are deliberately not
      registered — the Unnest operator handles them with a uniform code path.

    - {b Level 0}: an associative array mapping flattened field paths to
      Level-1 slots, giving deterministic lookups despite JSON's flexible
      field order.

    When every object turns out to have the same fields in the same order,
    Level 0 is dropped and a single shared path→slot map is kept for the
    whole dataset ("specializing per dataset contents"): slot positions are
    deterministic, only the variable value spans remain per object. *)

type kind = Kobj | Karr | Kstr | Kint | Kfloat | Kbool | Knull

type entry = { start : int; stop : int; kind : kind }

type t

(** [build src] validates the input and builds the index.
    Raises [Perror.Parse_error] on malformed JSON. *)
val build : string -> t

(** [extend t src] indexes [src], whose prefix is the source [t] indexed
    (an append), indexing only the objects after [t]'s last one and keeping
    every earlier object's entries. The result answers every query exactly
    as [build] over [src] does. [None] when [t] has a fixed schema that an
    appended object does not share: the caller rebuilds. *)
val extend : t -> string -> t option

val source : t -> string
val object_count : t -> int
val is_fixed_schema : t -> bool

(** [object_span t obj] is the byte span of object [obj]. *)
val object_span : t -> int -> int * int

(** [paths t] is the list of all registered field paths (fixed-schema mode:
    the shared map's keys; otherwise the union over objects). *)
val paths : t -> string list

(** [slot t path] resolves a path to its shared Level-1 slot — only
    meaningful in fixed-schema mode, where the resolution can be done once
    per query instead of once per object. *)
val slot : t -> string -> int option

(** [entry_at t ~obj ~slot] fetches a Level-1 entry by slot. *)
val entry_at : t -> obj:int -> slot:int -> entry

(** [find t ~obj ~path] resolves [path] ("a.b.c") through Level 0 (or the
    shared map). [None] when the object lacks the field. *)
val find : t -> obj:int -> path:string -> entry option

(** Flexible-schema fast path: resolve the path to its interned id once per
    query ({!path_id}), then look fields up by id per object
    ({!find_by_id}) — the string comparison leaves the per-tuple loop. *)
val path_id : t -> string -> int option

val find_by_id : t -> obj:int -> id:int -> entry option

(** {1 Allocation-free span access}

    [entry] is immutable and allocated per lookup; on the per-tuple hot
    path of a scan that is one minor-heap record (plus an option) per field
    read, and under multi-domain execution those allocations serialize the
    workers on the shared minor-GC barrier. A {!span} is the mutable
    counterpart: each staged accessor owns one scratch span and refills it
    in place, so steady-state scans allocate nothing. Scratch spans must
    not be shared across domains — one per pipeline instance. *)

type span = {
  mutable sp_start : int;
  mutable sp_stop : int;
  mutable sp_kind : kind;
}

val make_span : unit -> span

(** [entry_span t ~obj ~slot sp] is {!entry_at} into [sp]. *)
val entry_span : t -> obj:int -> slot:int -> span -> unit

(** [slot_by_id t ~obj ~id] is {!find_by_id}'s slot resolution without the
    option: [-1] when the object lacks the field. *)
val slot_by_id : t -> obj:int -> id:int -> int

(** Span decoding, mirroring the entry readers below. *)

val span_int : t -> span -> int
val span_float : t -> span -> float
val span_bool : t -> span -> bool
val span_string : t -> span -> string
val span_value : t -> span -> Proteus_model.Value.t

(** {1 Value decoding} — parse an entry's span directly out of the raw
    bytes; no AST is built. *)

val read_int : t -> entry -> int
val read_float : t -> entry -> float
val read_bool : t -> entry -> bool
val read_string : t -> entry -> string

(** [read_value t entry] boxes any entry, fully parsing nested structures
    (used at output boundaries, not in scan loops). *)
val read_value : t -> entry -> Proteus_model.Value.t

(** {1 Unnest support} *)

(** [array_elements t entry] is the spans of the elements of an array entry,
    in order. *)
val array_elements : t -> entry -> entry list

(** [iter_array_spans t entry ~f] visits each element span without building
    entries — the Unnest code path, which "applies the same action to every
    nested element". *)
val iter_array_spans : t -> entry -> f:(start:int -> stop:int -> unit) -> unit

(** [find_in_span t ~start ~stop ~path] scans an un-indexed object span (an
    array element) for a field path. *)
val find_in_span : t -> start:int -> stop:int -> path:string -> entry option

(** [find_parts_in_span] is {!find_in_span} with the dotted path pre-split
    (the per-query form the plug-ins stage). *)
val find_parts_in_span :
  t -> start:int -> stop:int -> parts:string list -> entry option

(** [find_parts_span t ~start ~stop ~parts sp] is the allocation-free
    {!find_parts_in_span}: the value span of the final path segment lands in
    the scratch [sp] (intermediate object spans travel through it too), and
    the result is [false] when any segment is missing — the form a
    generated unnest stages so per-element fallback lookups build no entry
    records or options. *)
val find_parts_span :
  t -> start:int -> stop:int -> parts:string list -> span -> bool

(** [scan_span_fields t ~start ~stop ~names ~starts ~stops] walks the
    members of the object span once, filling [starts]/[stops] with the
    value spans of the fields in [names] ([-1] marks absence) and stopping
    early once all are found — the extraction loop a generated unnest uses
    ("processing only the required data fields"). *)
val scan_span_fields :
  t ->
  start:int -> stop:int -> names:string array -> starts:int array ->
  stops:int array -> unit

(** [read_string_span t ~start ~stop] decodes a string literal span
    (quotes included). *)
val read_string_span : t -> start:int -> stop:int -> string

(** {1 Introspection} *)

(** Index footprint in bytes — reported against the file size as in
    Section 7.1 (~15–25%). *)
val byte_size : t -> int
