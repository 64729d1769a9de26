(** CSV reading and writing.

    The reader operates over the raw file bytes as served by the memory
    manager — it never materializes a parsed copy of the file (queries over
    raw data, Section 5.2). Quoting: a field that starts with ["] runs to the
    closing ["] (doubled quotes escape); otherwise fields run to the next
    separator or newline. *)

open Proteus_model

type config = {
  separator : char;       (** e.g. [','] or TPC-H's ['|'] *)
  has_header : bool;
}

val default_config : config

(** {1 Writing} *)

(** [write_row buf config values] appends one CSV line. An empty last
    field is followed by one more separator, since a trailing separator
    ends a row without an empty field. *)
val write_row : Buffer.t -> config -> Value.t array -> unit

(** [of_records config schema records] renders a full file. *)
val of_records : config -> Schema.t -> Value.t list -> string

(** {1 Reading} *)

(** [row_bounds src ~pos] is [(start, stop, next)] for the row beginning at
    [pos]: the data spans [start..stop) and the next row starts at [next]. *)
val row_bounds : string -> pos:int -> int * int * int

(** [row_eol src ~pos] is the offset of the newline ending the row that
    begins at [pos] (newlines inside quotes do not end it), or the source
    length; [row_bounds] without the triple. *)
val row_eol : string -> pos:int -> int

(** [bom_skip src] is 3 when the file starts with a UTF-8 byte-order mark,
    0 otherwise. *)
val bom_skip : string -> int

(** [data_start config src] is the offset of the first data row (skips a
    UTF-8 BOM and, when [has_header], the header row). *)
val data_start : config -> string -> int

(** [field_spans config src ~start ~stop] splits the row [start..stop) into
    field spans [(fstart, fstop)] in order. *)
val field_spans : config -> string -> start:int -> stop:int -> (int * int) list

(** [count_fields config src ~start ~stop] is the number of fields of the
    row [start..stop), without allocating spans. *)
val count_fields : config -> string -> start:int -> stop:int -> int

(** [field_stop config src ~stop i] is the end of the field starting at
    [i] in a row ending at [stop] (a quoted field's span keeps its quotes). *)
val field_stop : config -> string -> stop:int -> int -> int

(** [next_field config src ~stop fstop] is where the field after the one
    ending at [fstop] starts; [stop] when none follows. *)
val next_field : config -> string -> stop:int -> int -> int

(** [nth_field_start config src ~start ~stop n] is the start of field [n]
    (0-based) of the row, scanning from [start]; [field_stop] ends it.
    Raises [Perror.Parse_error] at [start] when the row has fewer fields.
    Neither allocates. *)
val nth_field_start : config -> string -> start:int -> stop:int -> int -> int

(** A tokenized row, refilled in place by {!scan_row}: field [i] spans
    [bounds.(2i) .. bounds.(2i+1)), for [i < fields]; the row's data ends
    at [stop] and the next row starts at [next] (as in {!row_bounds}). *)
type row = {
  mutable bounds : int array;
  mutable fields : int;
  mutable stop : int;
  mutable next : int;
}

(** An empty row buffer. *)
val row : unit -> row

(** [scan_row config src ~pos r] tokenizes the row starting at [pos] into
    [r]: the spans {!field_spans} gives, and the bounds {!row_bounds}
    gives. A row without quotes takes one pass over its bytes; the buffer
    grows only for a row with more fields than any before it. *)
val scan_row : config -> string -> pos:int -> row -> unit

(** {1 Field decoding} — parse a span without allocating when possible. *)

val parse_int : string -> start:int -> stop:int -> int
val parse_float : string -> start:int -> stop:int -> float
val parse_bool : string -> start:int -> stop:int -> bool
val parse_string : string -> start:int -> stop:int -> string

(** [parse_value ty src ~start ~stop] boxes a field according to [ty]; the
    empty span decodes to [Null] for [Option] types. *)
val parse_value : Ptype.t -> string -> start:int -> stop:int -> Value.t

(** [read_all config schema src] parses a whole file into records (used by
    loaders of the baseline systems, not by Proteus query paths). *)
val read_all : config -> Schema.t -> string -> Value.t list

(** [row_count config src] counts data rows without parsing fields. *)
val row_count : config -> string -> int
