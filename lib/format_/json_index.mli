(** Two-level structural index for JSON datasets (Section 5.2, Figure 4).

    A dataset is a sequence of JSON objects. During the first (validating)
    access, one pass populates, per object:

    - {b Level 1}: the binary start/end positions and kind of each
      registered token. Slot 0 spans the whole object. Fields are registered
      recursively through nested {e objects} (path ["c.d.d1"] dereferences
      in one step); array {e contents} are deliberately not registered —
      the Unnest operator handles them with a uniform code path.

    - {b Level 0}: an associative array mapping flattened field paths to
      Level-1 slots, giving deterministic lookups despite JSON's flexible
      field order.

    Level 0 is kept once per {e layout}, not once per object, and sparse:
    a layout holds one (path id, first slot) pair per distinct path of its
    own, ascending by id, so its size follows its members and not the
    dataset's path count. The pass looks each object's raw member names
    up in a table of spellings, and only a new spelling decodes its names,
    interns its paths and finds or makes its layout. An object stores
    its base, first entry and layout and, per entry (the object itself
    first), the (offset, length, kind) triple, in packed vectors whose byte
    width grows with the largest value held. A dataset whose objects all
    share one layout has a {e fixed schema} ("specializing per dataset
    contents"): slot positions are deterministic, only the value spans
    remain per object. The index of the field-shuffled TPC-H lineitem file
    (six fields, up to 720 layouts) holds 31% of its input; one whose
    objects nearly all differ in layout holds more per object than its
    value spans (the Symantec feed, nine fields shuffled per object:
    123%).

    Every read goes through one API: a caller-owned scratch {!span} is
    loaded — from a Level-1 slot ({!entry_span}, {!field_span}) or from
    un-indexed bytes ({!span_at}, {!find_parts_span}, the element and
    member iterators) — and then decoded. The scan and the un-indexed walks
    allocate nothing per object, element or value. *)

type kind = Kobj | Karr | Kstr | Kint | Kfloat | Kbool | Knull

type t

(** [build src] validates the input and builds the index.
    Raises [Perror.Parse_error] on malformed JSON. *)
val build : string -> t

(** [extend t src] indexes [src], whose prefix is the source [t] indexed
    (an append), indexing only the objects after [t]'s last one and keeping
    every earlier object's entries; [t] stays valid. The result answers
    every query exactly as [build] over [src] does. [None] when [t] has a
    fixed schema that an appended object does not share: the caller
    rebuilds. *)
val extend : t -> string -> t option

val source : t -> string
val object_count : t -> int
val is_fixed_schema : t -> bool

(** [object_span t obj] is the byte span of object [obj]. *)
val object_span : t -> int -> int * int

(** [paths t] is the sorted list of all registered field paths, the union
    over every layout. *)
val paths : t -> string list

(** [slot t path] resolves a path to its shared Level-1 slot — [None]
    unless the schema is fixed. *)
val slot : t -> string -> int option

(** Resolve the path to its interned id once per query ({!path_id}), then
    look fields up by id per object ({!slot_by_id}, {!field_span}) in the
    object's layout — one probe when the layout holds every path of the
    dataset, a search by halves over its own paths otherwise; the string
    comparison leaves the per-tuple loop. *)
val path_id : t -> string -> int option

(** {1 Spans}

    A span is a mutable (start, stop, kind) triple: each staged accessor
    owns one scratch span and refills it in place, so a scan allocates no
    record or option per field read — under multi-domain execution such
    allocations would serialize the workers on the shared minor-GC
    barrier. Scratch spans must not be shared across domains — one per
    pipeline instance. *)

type span = {
  mutable sp_start : int;
  mutable sp_stop : int;
  mutable sp_kind : kind;
}

val make_span : unit -> span

(** [entry_span t ~obj ~slot sp] loads Level-1 slot [slot] of object [obj]
    (slot 0: the whole object) into [sp]. *)
val entry_span : t -> obj:int -> slot:int -> span -> unit

(** [slot_by_id t ~obj ~id] is the Level-0 slot of the interned path [id]
    in object [obj]'s layout; [-1] when the object lacks the field or [id]
    is negative. A duplicated path resolves to its first occurrence. *)
val slot_by_id : t -> obj:int -> id:int -> int

(** [field_span t ~obj ~id sp] loads path [id] of object [obj] into [sp];
    a missing field loads {!absent} at the object's first byte. *)
val field_span : t -> obj:int -> id:int -> span -> unit

(** [absent sp ~at] loads a missing field: an empty [Knull] span at byte
    [at], the enclosing object's first byte, so a null and a missing value
    meet one check, which names that byte. *)
val absent : span -> at:int -> unit

(** [span_at t ~start ~stop sp] loads the un-indexed value span
    [\[start, stop)] into [sp], reading its kind off the bytes. *)
val span_at : t -> start:int -> stop:int -> span -> unit

(** {1 Decoding} — straight out of the raw bytes; no AST is built. *)

val span_int : t -> span -> int
val span_float : t -> span -> float
val span_bool : t -> span -> bool

(** The string literal's contents, escapes decoded. *)
val span_string : t -> span -> string

(** [span_value t sp] boxes any span as written, fully parsing nested
    structures (for output boundaries, not scan loops). *)
val span_value : t -> span -> Proteus_model.Value.t

(** {1 Un-indexed structure} *)

(** [iter_array_spans t sp ~f] visits the bounds of each element of the
    array span [sp] without building anything — the Unnest code path, which "applies
    the same action to every nested element". *)
val iter_array_spans : t -> span -> f:(start:int -> stop:int -> unit) -> unit

(** [iter_members t sp ~f] visits each member of the object span [sp] in
    document order: its decoded name and the bounds of its value. *)
val iter_members : t -> span -> f:(string -> start:int -> stop:int -> unit) -> unit

(** [find_parts_span t ~start ~stop ~parts sp] scans the un-indexed object
    span [\[start, stop)] for a pre-split dotted path: the value span of the
    final segment lands in [sp] (intermediate object spans travel through
    it too), and the result is [false] when any segment is missing. Field
    names are compared against the raw bytes. *)
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

(** {1 Introspection} *)

(** Index footprint in bytes: the heap the index holds beside its source
    (within a few percent of [Obj.reachable_words]), reported against the
    file size as in Section 7.1. *)
val byte_size : t -> int

(** The number of distinct layouts (1 for a fixed schema). *)
val layout_count : t -> int
