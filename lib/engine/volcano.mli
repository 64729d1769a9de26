(** The Volcano-style iterator interpreter [27] — the un-specialized
    baseline the paper's Section 5 argues against.

    Every operator is a generic iterator exposing [next()]; every tuple
    crosses one virtual call per operator and every expression is
    re-interpreted over boxed values per tuple. Data access still goes
    through the same input plug-ins and structural indexes as the compiled
    engine (both engines read the same raw bytes); what differs is purely
    the per-tuple interpretation overhead — which is exactly the ablation
    the on-demand engine of Section 5.1 is designed to eliminate. *)

open Proteus_model
open Proteus_plugin

(** [execute registry plan] interprets [plan]. Result shape matches
    {!Proteus_algebra.Interp.run} and {!Compiled.prepare_par}. *)
val execute : Registry.t -> Proteus_algebra.Plan.t -> Value.t

(** How scans obtain their data. The baseline systems of the evaluation
    (generic row stores) reuse this interpreter over their own storage by
    supplying a provider. *)
type provider = dataset:string -> required:string list -> Source.t

val execute_with : provider -> Proteus_algebra.Plan.t -> Value.t
