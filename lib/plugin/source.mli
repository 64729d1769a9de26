(** The input plug-in contract (Table 2 of the paper), staged for the
    closure-compiled engine.

    A [Source.t] is the result of pointing a plug-in at a dataset for one
    query: a positioned cursor plus accessors that read {e at the current
    cursor}, each with one typed lane ({!Access.lane}). The plug-in owns
    the cursor, so it alone decides how a batch is read: every top-level
    primitive field's lane carries a fill, by explicit row where the format
    allows it and through the plug-in's own cursor where it does not. The
    correspondence with the paper's API:

    - [generate()] → {!run} / {!seek}: drive the scan loop;
    - [readValue()/readPath()] → {!field} (dotted paths reach nested
      records in one step, via the structural index's Level 0);
    - [flushValue()] → {!whole} (reconstruct the full element, boxed);
    - [unnestInit()/unnestHasNext()/unnestGetNext()] → {!unnest};
    - [hashValue()] is subsumed by the typed lanes of {!Access.t} (the
      engine hashes unboxed values directly). *)

open Proteus_model

type unnest_spec = {
  u_elem_ty : Ptype.t;  (** element type of the nested collection *)
  u_prepare : string list -> unit;
      (** [u_prepare paths] tells the plug-in, at engine-generation time,
          which element fields the query reads: the plug-in can then fuse
          their extraction into the element-boundary scan ("generate code
          processing only the required data fields", Section 5.2). Optional
          optimization — accessors must work without it. *)
  u_iter : on_elem:(unit -> unit) -> unit;
      (** iterate the collection of the {e current} element; during each
          [on_elem] call the element accessors below are valid *)
  u_field : string -> Access.t;  (** field of the current nested element *)
  u_value : unit -> Value.t;     (** current nested element, boxed *)
}

type t = {
  element : Ptype.t;            (** type of one dataset element *)
  count : int;                  (** number of elements (known after indexing) *)
  seek : int -> unit;           (** position the cursor at an OID *)
  field : string -> Access.t;
      (** accessor for a dotted path; raises [Perror.Plan_error] on unknown
          paths whose absence the schema does not allow. The registry's
          segmented cache fills read through these accessors — on a view,
          through the view's private cursor — so parallel workers can
          materialize cache segments of the same dataset independently. *)
  whole : unit -> Value.t;      (** the full current element, boxed *)
  unnest : string -> unnest_spec option;
      (** [None] when the path is not a nested collection *)
  validate : (unit -> unit) option;
      (** structural check of the {e current} element beyond what the
          requested accessors would touch (e.g. CSV row arity against the
          file's nominal arity); raises [Perror.Parse_error] on a malformed
          element. [None] when the format has nothing extra to check.
          Consulted by the error-policy scan drivers before committing a
          row; plain [Fail_fast] scans never call it. *)
}

(** [run_range t ~lo ~hi ~on_tuple] is the scan loop over the half-open OID
    range [lo, hi) — one morsel: seek each position, then call [on_tuple]. *)
val run_range : t -> lo:int -> hi:int -> on_tuple:(unit -> unit) -> unit

(** [run_range_batches t ~lo ~hi ~batch ~on_batch] drives one morsel
    [lo, hi) as fixed-size batches: [on_batch ~base ~len] is called for each
    OID range [base, base + len) ([len <= batch]; only the last batch is
    short). The batch lane's scan loop: no cursor motion happens here —
    batch consumers read via {!Access.t} lane fills (or seek themselves for
    the spill paths). Batch boundaries depend only on [lo]/[hi]/[batch],
    never on the worker, so morsel-parallel batch execution stays
    deterministic. *)
val run_range_batches :
  t -> lo:int -> hi:int -> batch:int -> on_batch:(base:int -> len:int -> unit) -> unit

(** [field_type element path] resolves a dotted path against an element
    type; [Option] layers encountered on the way make the result nullable.
    Raises [Perror.Plan_error] for unknown fields. *)
val field_type : Ptype.t -> string -> Ptype.t
