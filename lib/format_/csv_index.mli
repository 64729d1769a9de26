(** Positional structural index for CSV files (Section 5.2, after NoDB [5]).

    The index stores, for each data row, its start offset and the byte
    positions of every [N]th field. Locating field [k] then means jumping to
    the closest anchored field at or before [k] and scanning forward over at
    most [N-1] separators, instead of re-tokenizing the row from its start.

    When the file has fixed-length rows (every row the same byte length and
    every field at the same offset), the per-row machinery is dropped and
    field positions are computed arithmetically — the paper's
    "specializing per dataset contents" fast path.

    The build is one pass that allocates nothing per row: each row is
    tokenized into one reusable buffer ({!Csv.scan_row}), the fixed-width
    layout is checked in place against the first row's and dropped for
    good at the first row that breaks it, and the anchors are read off
    the buffer. *)

type t

(** [build config ?every src] scans the file once. [every] is the anchor
    stride N (default 5; stride 1 anchors every field). Ragged rows (arity
    differing from the first row) are tolerated here and reported as
    [Perror.Parse_error] when the row is accessed. *)
val build : Csv.config -> ?every:int -> string -> t

(** [extend t src] indexes [src], whose prefix is the source [t] indexed
    (an append), re-scanning only from the start of [t]'s last row — an
    append may complete it — and keeping every earlier row's entries. The
    result answers every query exactly as [build] over [src] does, and is
    fixed-width exactly when that build is: a fixed-width index stays so
    while the new rows conform (otherwise its per-row arrays are
    materialized from the fixed layout), and an index whose only
    non-conforming row was its last regains the fixed path when the
    rescanned rows conform.
    [None] when the append changed [t]'s last row (it continued a row left
    inside an open quote): the old rows are then not a prefix of the new
    ones and the caller rebuilds. *)
val extend : t -> string -> t option

val config : t -> Csv.config

(** The source string the index was built over. *)
val source : t -> string
val row_count : t -> int
val stride : t -> int

(** True when the fixed-width fast path is active. *)
val is_fixed_width : t -> bool

(** [row_span t row] is [(start, stop)] of the row's bytes. *)
val row_span : t -> int -> int * int

(** [field_span t ~row ~field] is the span of one field, using the anchors. *)
val field_span : t -> row:int -> field:int -> int * int

(** [field_start t ~row ~field] and [field_stop t ~row ~field start] are
    {!field_span}'s two ends without the pair: the accessors and batch
    fills call them once per value, so they allocate nothing. [start] is
    what [field_start] returned for the same field. *)
val field_start : t -> row:int -> field:int -> int

val field_stop : t -> row:int -> field:int -> int -> int

(** Number of fields per row (from the first row). *)
val arity : t -> int

(** [row_arity t row] is the actual field count of one row — equal to
    [arity t] except on ragged rows (always equal in fixed-width mode). *)
val row_arity : t -> int -> int

(** Index footprint in bytes (for the size ratios reported in Section 7.1). *)
val byte_size : t -> int
