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

    When every object turns out to have the same fields in the same order,
    Level 0 is dropped and a single shared path→slot map is kept for the
    whole dataset ("specializing per dataset contents"): slot positions are
    deterministic, only the variable value spans remain per object.

    Every read goes through one API: a caller-owned scratch {!span} is
    loaded — from a Level-1 slot ({!entry_span}) or from un-indexed bytes
    ({!span_at}, {!find_parts_span}, the element and member iterators) —
    and then decoded. Steady-state scans allocate nothing per value. *)

type kind = Kobj | Karr | Kstr | Kint | Kfloat | Kbool | Knull

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

(** Flexible-schema fast path: resolve the path to its interned id once per
    query ({!path_id}), then look fields up by id per object
    ({!slot_by_id}) — the string comparison leaves the per-tuple loop. *)
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

(** [slot_by_id t ~obj ~id] is the object's Level-0 slot for the interned
    path [id]; [-1] when the object lacks the field. *)
val slot_by_id : t -> obj:int -> id:int -> int

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

(** Index footprint in bytes — reported against the file size as in
    Section 7.1 (~15–25%). *)
val byte_size : t -> int
