open Proteus_storage

type packed = { length : int; cols : (string * Proteus_storage.Column.t) list }

type t = {
  lookup_field : dataset:string -> path:string -> Column.t option;
  store_field :
    dataset:string -> path:string -> bias:Memory.Arena.bias -> Column.t -> bool;
  should_cache_field :
    dataset:string -> path:string -> ty:Proteus_model.Ptype.t -> rows:int -> bool;
  lookup_packed : key:string -> packed option;
  store_packed :
    key:string -> datasets:string list -> bias:Memory.Arena.bias -> packed -> unit;
  quarantine : id:string -> unit;
  note_fill : dataset:string -> segments:int -> rows:int -> unit;
  note_selective : dataset:string -> path:string -> ranged:bool -> unit;
      (* [ranged] marks a range (not just equality) comparison: the signal
         that a sorted projection would pay off on this column *)
  lookup_zones : dataset:string -> path:string -> Zonemap.t option;
  lookup_projection : dataset:string -> path:string -> Projection.t option;
  note_slot_column : dataset:string -> path:string -> unit;
  slot_column : dataset:string -> path:string -> bool;
      (* a promoted path was materialized straight from format-index spans
         (pre-parsed slot column); feeds manager stats *)
}

let disabled =
  {
    lookup_field = (fun ~dataset:_ ~path:_ -> None);
    store_field = (fun ~dataset:_ ~path:_ ~bias:_ _ -> false);
    should_cache_field = (fun ~dataset:_ ~path:_ ~ty:_ ~rows:_ -> false);
    lookup_packed = (fun ~key:_ -> None);
    store_packed = (fun ~key:_ ~datasets:_ ~bias:_ _ -> ());
    quarantine = (fun ~id:_ -> ());
    note_fill = (fun ~dataset:_ ~segments:_ ~rows:_ -> ());
    note_selective = (fun ~dataset:_ ~path:_ ~ranged:_ -> ());
    lookup_zones = (fun ~dataset:_ ~path:_ -> None);
    lookup_projection = (fun ~dataset:_ ~path:_ -> None);
    note_slot_column = (fun ~dataset:_ ~path:_ -> ());
    slot_column = (fun ~dataset:_ ~path:_ -> false);
  }
