(* The engine's name for the query counters. They live in the model layer
   beside the fault context that owns them, so the plug-in and resilience
   layers tick the same cells (see {!Proteus_model.Tally}). *)

include Proteus_model.Tally
