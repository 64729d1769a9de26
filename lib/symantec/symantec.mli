(** A synthetic reimplementation of the Symantec spam-analysis workload of
    Section 7.2.

    The real input is proprietary (spam-trap e-mail telemetry), so this
    module generates data with the same roles, shapes and access patterns:

    - a {b JSON} batch of spam reports — one object per e-mail with id,
      language, origin (ip, country), responsible bot, size, day, score and
      an embedded array of advertised URLs; field order varies per object
      (so Proteus' structural index stays in its flexible mode, as with the
      real feed);
    - a {b CSV} file with the classification workflow's output per mail
      (classes per criterion, confidence, label);
    - a {b binary} database table of historical per-mail records.

    [queries] is the 50-query analysis sequence of Figure 14, grouped per
    dataset combination exactly like the paper's x-axis: Q1–Q8 BIN, Q9–Q15
    CSV, Q16–Q25 JSON, Q26–Q30 BIN⋈CSV, Q31–Q35 BIN⋈JSON, Q36–Q40 CSV⋈JSON
    (Q39 is the join the paper isolates as PostgreSQL's nested-loop
    outlier), Q41–Q50 all three. Selections, 2- and 3-way joins, unnests,
    groupings and aggregates; projectivity 1–9 fields; selectivity ~1–25%. *)

open Proteus_model

type params = {
  json_objects : int;
  csv_rows : int;
  bin_rows : int;
  days : int;    (** the day dimension all selectivities key on *)
  seed : int;
}

val default_params : params
(** 2 000 JSON objects, 15 000 CSV rows, 25 000 binary rows, 100 days. *)

type t = {
  params : params;
  json_text : string;
  csv_text : string;
  bin_records : Value.t list;
}

val generate : ?params:params -> unit -> t

val json_type : Ptype.t
val csv_type : Ptype.t
val bin_type : Ptype.t

(** Dataset names the query plans reference. *)
val json_name : string   (** "spam_json" *)

val csv_name : string    (** "spam_csv" *)

val bin_name : string    (** "spam_bin" *)

(** The 50 queries, in order, with their identifiers ("Q1".."Q50"). *)
val queries : t -> (string * Proteus_algebra.Plan.t) list

(** [group_of "Q17"] is the Figure 14 x-axis group label ("JSON"). *)
val group_of : string -> string
