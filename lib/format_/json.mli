(** JSON values, parser and printer — written from scratch.

    This module is the *reference* JSON path: it fully materializes parsed
    values. Proteus' query paths do not use it; they navigate raw bytes via
    {!Json_index}. The baselines (document store, jsonb-style row store) and
    the tests do use it. *)

open Proteus_model

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** [parse src ~pos] parses one JSON value starting at [pos] (after skipping
    whitespace); returns the value and the position after it.
    Raises [Perror.Parse_error] on malformed input. *)
val parse : string -> pos:int -> t * int

(** [parse_string s] parses exactly one JSON value (trailing whitespace ok). *)
val parse_string : string -> t

(** [parse_seq src] parses a whitespace/newline-separated sequence of JSON
    values (the layout of the datasets in the paper: one object per line). *)
val parse_seq : string -> t list

val to_buffer : Buffer.t -> t -> unit
val to_string : t -> string

(** Conversion to/from the Proteus data model. JSON arrays become [List]
    collections; objects become records. *)
val to_value : t -> Value.t

val of_value : Value.t -> t

(** [parse_string_lit src pos] decodes the string literal whose opening
    quote is at [pos]; returns the decoded string and the position after
    the closing quote. Used by {!Json_index} to read field names without
    building an AST. *)
val parse_string_lit : string -> int -> string * int

(** Closure-free raw scanners over [src] bounded by [n]: [ws src n i] is
    the first non-whitespace position at or after [i]; [string_end src n i],
    with [i] just inside a string literal, is the position after its
    closing quote (escapes are skipped, not decoded). Raises
    [Perror.Parse_error] on an unterminated string. *)
val ws : string -> int -> int -> int

val string_end : string -> int -> int -> int
