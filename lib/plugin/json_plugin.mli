(** JSON input plug-in: navigates raw JSON bytes through the two-level
    structural index (Section 5.2, Figure 4).

    Per-query specialization: a path resolves to its interned id {e once
    here}, so the per-tuple accessor is a lookup in the object's layout
    table and a Level-1 read, by cursor or by explicit row for batch fills.
    Nested record paths ("c.d.d1") dereference in one step. Unnest walks
    array spans without boxing elements. *)

open Proteus_model

(** [make ~element ~index] builds a source. [element] is the declared type
    of one object; fields may be [Option]-typed to allow absence. *)
val make : element:Ptype.t -> index:Proteus_format.Json_index.t -> Source.t
